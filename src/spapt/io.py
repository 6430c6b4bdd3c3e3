"""State files and run reports.

A state file is a JSON document with keys ``dim``, ``re``, ``im`` and
``metadata``; it must parse into a valid :class:`~spapt.states.DensityMatrix`
or loading fails with a diagnostic naming the violated invariant.  Reports
are emitted as JSON (full envelope with the run configuration) or CSV
(header row, comma separated, UTF-8, LF line endings); numeric values are
formatted with 12 significant digits in both encodings so the two agree
exactly.  One emitter writes the JSON of reports and state files: the bytes
of ``json.dumps(indent=2)``, from json's C encoder.
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
    """Float rounded to 12 significant digits (what both encodings carry): ``float(fmt12(x))``, in one call."""
    return float("%.12g" % x)


def state_payload(rho: DensityMatrix, metadata: dict[str, Any]) -> dict[str, Any]:
    """JSON-ready document for the state file of a single state, whose writer rounds each entry as :func:`round12` does; a stack is refused."""
    require_single("state_payload", rho)
    return {
        "dim": rho.dim,
        "re": np.real(rho.mat).tolist(),
        "im": np.imag(rho.mat).tolist(),
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
    _write_text(_json(state_payload(rho, metadata)), out)


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


def _scalars(value: Any) -> Any:
    """A dict or list with each float rounded as :func:`round12` rounds it, or None when it holds a container."""
    if isinstance(value, dict):
        flat = {k: round12(v) if isinstance(v, float) else v for k, v in value.items() if not isinstance(v, (dict, list))}
    else:
        flat = [round12(v) if isinstance(v, float) else v for v in value if not isinstance(v, (dict, list))]
    return flat if len(flat) == len(value) else None


def _json(value: Any, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of a dict or list with floats rounded as :func:`round12` rounds them (a key as json
    writes it), its closing bracket after ``pad``.  A container of scalars, or a list of non-empty ones of one kind, is one call of json's
    C encoder whose item separator carries newline and indent: it escapes newlines in strings, so each it writes is a separator."""
    inner = pad + "  "
    flat = _scalars(value)
    if flat is not None:
        text = json.dumps(flat, separators=("," + inner, ": "))
        return text if len(text) == 2 else text[0] + inner + text[1:-1] + pad + text[-1]
    rows = [_scalars(v) if v and isinstance(v, (dict, list)) else None for v in value] if isinstance(value, list) else [None]
    if None not in rows and len({type(row) for row in rows}) == 1:  # non-empty rows, all dicts or all lists
        (start, end), row_pad = "{}" if isinstance(rows[0], dict) else "[]", inner + "  "
        text = json.dumps(rows, separators=("," + row_pad, ": ")).replace(end + "," + row_pad + start, inner + end + "," + inner + start + row_pad)
        return "[" + inner + start + row_pad + text[2:-2] + inner + end + pad + "]"
    keyed = isinstance(value, dict)
    items = [(json.dumps({k: 0})[1:-2] if keyed else "") + (_json(v, inner) if isinstance(v, (dict, list)) else json.dumps(_scalars([v])[0])) for k, v in (value.items() if keyed else enumerate(value))]
    return "{["[not keyed] + inner + ("," + inner).join(items) + pad + "}]"[not keyed]


def render_report(report: dict[str, Any], output_format: str) -> str:
    """Serialize a run report as JSON or CSV.

    The report is a mapping with ``command``, ``config`` and ``rows``
    (a list of flat mappings sharing one key set).  CSV carries the rows
    only; the configuration is echoed inside each row by the commands.
    """
    if output_format == "json":
        return _json(report)
    if output_format != "csv":
        raise ValidationError(f"unknown output format {output_format!r}; expected json or csv")
    rows = report["rows"]
    if not rows:
        raise ValidationError("cannot render an empty CSV report")
    buffer = _stdio.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    header = list(rows[0].keys())
    writer.writerow(header)
    # csv writes None as an empty cell
    writer.writerows([fmt12(v) if isinstance(v, float) else v for v in map(row.get, header)] for row in rows)
    return buffer.getvalue()


def write_report(report: dict[str, Any], output_format: str, out: str | None) -> None:
    _write_text(render_report(report, output_format), out)
