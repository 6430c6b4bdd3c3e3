"""State files and run reports.

A state file is a JSON document with keys ``dim``, ``re``, ``im`` and
``metadata``; it must parse into a valid :class:`~spapt.states.DensityMatrix`
or loading fails with a diagnostic naming the violated invariant.  Reports
are emitted as JSON (full envelope with the run configuration) or CSV
(header row, comma separated, UTF-8, LF line endings); numeric values are
formatted with 12 significant digits in both encodings so the two agree
exactly.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import sys
from typing import Any

import numpy as np

from .linalg import ValidationError
from .states import DensityMatrix, require_single

__all__ = [
    "round12",
    "fmt12",
    "state_payload",
    "save_state",
    "load_state",
    "render_report",
    "write_report",
]


def fmt12(x: float) -> str:
    """12-significant-digit decimal form of a float."""
    return format(float(x), ".12g")


def round12(x: float) -> float:
    """Float rounded to 12 significant digits (what both encodings carry)."""
    return float(fmt12(x))


def state_payload(rho: DensityMatrix, metadata: dict[str, Any]) -> dict[str, Any]:
    """JSON-ready document for a state file."""
    require_single("state_payload", rho)
    return {
        "dim": rho.dim,
        "re": [[round12(v) for v in row] for row in np.real(rho.mat).tolist()],
        "im": [[round12(v) for v in row] for row in np.imag(rho.mat).tolist()],
        "metadata": {k: str(v) for k, v in metadata.items()},
    }


def _write_text(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fp:
                fp.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {out}: {exc}") from exc


def save_state(rho: DensityMatrix, metadata: dict[str, Any], out: str | None) -> None:
    _write_text(json.dumps(state_payload(rho, metadata), indent=2), out)


def load_state(path: str) -> tuple[DensityMatrix, dict[str, Any]]:
    """Parse and validate a state file; failures name the broken invariant."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except OSError as exc:
        raise ValidationError(f"cannot read state file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, bad UTF-8, over-long integers, deep nesting
        raise ValidationError(f"state file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"state file {path} must hold a JSON object, got {type(doc).__name__}")
    for key in ("dim", "re", "im"):
        if key not in doc:
            raise ValidationError(f"state file {path} lacks required key {key!r}")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValidationError(f"state file {path}: key 'dim' must be a JSON integer, got {type(dim).__name__}")
    try:
        re = np.array(doc["re"], dtype=float)
        im = np.array(doc["im"], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"state file {path} has malformed arrays: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(f"state file {path}: re/im must both be {dim}x{dim} arrays, got {re.shape} and {im.shape}")
    try:
        rho = DensityMatrix(re + 1j * im)
    except ValidationError as exc:
        raise ValidationError(f"state file {path} failed validation: {exc}") from exc
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValidationError(f"state file {path}: metadata must be a mapping")
    return rho, metadata


def _rounded(value: Any) -> Any:
    if isinstance(value, (float, np.floating)):
        return round12(value)
    if isinstance(value, (int, np.integer, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return str(value)


def render_report(report: dict[str, Any], output_format: str) -> str:
    """Serialize a run report as JSON or CSV.

    The report is a mapping with ``command``, ``config`` and ``rows``
    (a list of flat mappings sharing one key set).  CSV carries the rows
    only; the configuration is echoed inside each row by the commands.
    """
    if output_format == "json":
        return json.dumps(_rounded(report), indent=2)
    if output_format != "csv":
        raise ValidationError(f"unknown output format {output_format!r}; expected json or csv")
    rows = report["rows"]
    if not rows:
        raise ValidationError("cannot render an empty CSV report")
    buffer = _stdio.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    for row in rows:
        cells = []
        for key in header:
            value = row.get(key)
            if value is None:
                cells.append("")
            elif isinstance(value, (float, np.floating)):
                cells.append(fmt12(value))
            else:
                cells.append(str(value))
        writer.writerow(cells)
    return buffer.getvalue()


def write_report(report: dict[str, Any], output_format: str, out: str | None) -> None:
    _write_text(render_report(report, output_format), out)
