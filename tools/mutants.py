"""Mutation score of the tier-1 suite on hand-written mutants of src/spapt.

Each mutant is one text substitution in one module of ``src/spapt``.  The
script copies the repository once, then for each mutant writes the
substitution into the copy, runs tier-1 there with ``-x`` and restores the
module.  A failing run kills the mutant.  A mutant that passes counts as
equivalent when it is declared so below, since it changes no output any
test can observe, and as a survivor otherwise.

    python tools/mutants.py                 # every mutant, about 5-10 minutes
    python tools/mutants.py tangle-sign     # only the named mutants
    python tools/mutants.py --module channels.py   # only that module's mutants
    python tools/mutants.py --list          # names and substitutions, no run

``--module`` combines with names: only the named mutants of that module run.

The exit status is 0 when no mutant survives and 1 otherwise, or when the
text of a mutant no longer occurs exactly once in its module.  Tier-1 runs
with bytecode writing off, so no mutant reads a stale ``.pyc`` of another.
The mutant runs are not part of tier-1, whose test paths leave out
``tools/``; tier-1 only checks that every mutant's text is still there.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    #: why the mutant changes no observable output, or None when a test should kill it
    equivalent: str | None = None


MUTANTS = (
    # the paper's numbers and rules
    Mutant("spa-one-ninth", "detection.py", "transpose_second(mats) / 9.0", "transpose_second(mats) / 8.0"),
    Mutant("spa-two-ninths-identity", "detection.py", "_TWO_NINTHS_I = (2.0 / 9.0)", "_TWO_NINTHS_I = (1.0 / 9.0)"),
    Mutant("spa-threshold", "detection.py", "SPA_THRESHOLD = 2.0 / 9.0", "SPA_THRESHOLD = 1.0 / 4.0"),
    Mutant("verdict-rule", "detection.py", "lams < threshold - ROUND_TOL", "lams <= threshold + ROUND_TOL"),
    Mutant("witness-without-partial-transpose", "detection.py", "witness = partial_transpose(q)", "witness = q"),
    Mutant("f-hat-inversion-identity", "detection.py", "np.kron(s, np.eye(2) / 2.0)", "np.kron(s, np.eye(2))"),
    Mutant("det-scan-bracket", "detection.py", "lo = min(a1 - b1, a2 - b1 - b2, a3 - b2 - b3, a4 - b3) - RAW_TOL", "lo = min(a1, a2, a3, a4) - RAW_TOL"),
    Mutant("tangle-sign", "states.py", "lam[..., 2] - lam[..., 3]", "lam[..., 2] + lam[..., 3]"),
    Mutant("werner-noise", "states.py", "p * np.eye(4, dtype=complex) / 4.0", "p * np.eye(4, dtype=complex) / 2.0"),
    Mutant("bell-psi-minus-sign", "states.py", '"psi-": [0, 1, -1, 0]', '"psi-": [0, 1, 1, 0]'),
    Mutant("inversion-side-extra-pauli", "channels.py", "PureState(PAULI_Y @ v.amplitudes)", "PureState(PAULI_Y @ PAULIS[1] @ v.amplitudes)"),
    Mutant(
        "pauli-averaging", "tomography.py",
        "e[..., 1:, 0] = ((on_a[..., 0] + on_a[..., 1]) + on_a[..., 2]) / 3.0", "e[..., 1:, 0] = ((on_a[..., 0, :] + on_a[..., 1, :]) + on_a[..., 2, :]) / 3.0",
    ),
    Mutant("trajectory-draws", "tomography.py", "((w * numerator) / denominator) / draws", "(w * numerator) / denominator"),
    Mutant("projection-deficit-sign", "tomography.py", "np.add(x, deficit", "np.subtract(x, deficit"),
    Mutant("range-law-bell-upper", "selftest.py", "1.0 / 6.0 + EXACT_BOUND", "6.0 + EXACT_BOUND"),
    Mutant("range-law-product-upper", "selftest.py", "SPA_THRESHOLD + EXACT_BOUND", "SPA_THRESHOLD + 1e-6"),
    Mutant("bell-spread-bound", "selftest.py", "lams_th.max() - lams_th.min() <= EXACT_BOUND", "lams_th.max() - lams_th.min() <= 1e-6"),
    # report bytes
    Mutant("fmt12-11-digits", "io.py", '".12g"', '".11g"'),
    Mutant("report-indent", "io.py", 'inner = pad + "  "', 'inner = pad + " "'),
    # formulas that agree on real states
    Mutant("linear-entropy-conjugate", "states.py", "(rho.mat @ rho.mat)", "(rho.mat @ rho.mat.conj())"),
    # weakened checks
    Mutant("witness-idempotence", "detection.py", "np.abs(q @ q - q))) > HERMITIAN_TOL", "np.abs(q @ q - q))) > 5e8 * HERMITIAN_TOL"),
    Mutant("zero-weight-tolerance", "linalg.py", "ZERO_WEIGHT_TOL = 1e-14", "ZERO_WEIGHT_TOL = 1e-3"),
    Mutant("instrument-weight-sum", "channels.py", "for b in branches) - 1.0) > ROUND_TOL", "for b in branches) - 1.0) > 1e-6"),
    Mutant("unitarity", "channels.py", "            if dev > TRACE_TOL:\n                raise ValidationError(f\"correction", "            if dev > 1e-3:\n                raise ValidationError(f\"correction"),
    Mutant("table-lower-bound", "tomography.py", "(entries >= -ROUND_TOL)", "(entries >= -1e-6)"),
    Mutant("pure-state-norm", "states.py", "abs(norm - 1.0) <= ROUND_TOL", "abs(norm - 1.0) <= 1e4 * ROUND_TOL"),
    Mutant("fidelity-clamp", "states.py", "return min(max(val, 0.0), 1.0)", "return val"),
    Mutant("state-of-four-axes", "states.py", "if m.ndim > 3:", "if m.ndim > 4:"),
    Mutant("projection-trace-shift", "tomography.py", "x = w + (1.0 - w.sum(axis=-1, keepdims=True)) / n", "x = w + (1.0 - w.sum(axis=-1, keepdims=True)) / (n + 1)"),
    # the checks of the gate, the state, the solve and the projection, and the gate's Hermitian part
    Mutant("gate-finite-dropped", "linalg.py", "    require_all(np.isfinite(a), ", "    (np.isfinite(a), "),
    Mutant("gate-hermitian-tol", "linalg.py", "require_all(defect <= tol, ", "require_all(defect <= 1e3 * tol, "),
    Mutant("state-trace-loosened", "states.py", "require_each(off <= TRACE_TOL", "require_each(off <= 1e3 * TRACE_TOL"),
    Mutant("state-psd-loosened", "states.py", "require_each(lam_min >= -PSD_TOL", "require_each(lam_min >= -1e3 * PSD_TOL"),
    Mutant("eig-nan-dropped", "linalg.py", "if count_nonzero(w != w):", "if False:"),
    Mutant("hermitian-part-times-half", "linalg.py", "(a + a_dag) / 2.0", "(a + a_dag) * 0.5"),
    Mutant("gate-returns-raw", "linalg.py", "h = (a + a_dag) / 2.0", "h = np.array(a)"),
    Mutant("projection-trace-loosened", "tomography.py", "require_each(trace_dev <= RAW_TOL", "require_each(trace_dev <= 1e3 * RAW_TOL"),
    # declared equivalent
    Mutant(
        "born-clip-abs", "tomography.py", "np.minimum(np.maximum(0.0, _born_weights", "np.minimum(np.abs(_born_weights",
        "a Born weight of a valid state is below 0 by rounding noise only, and f_hat is continuous in it",
    ),
    Mutant("mems-kink-strict", "states.py", "np.where(p >= 2.0 / 3.0", "np.where(p > 2.0 / 3.0", "at p = 2/3 both branches give f = 1/3 to the bit"),
    Mutant("fig3-grid-unrounded", "cli.py", "grid = [round(0.05 * k, 10) for k in range(21)]", "grid = [0.05 * k for k in range(21)]", "the grid moves by an ulp, below the 12 digits a report carries"),
    # the array families
    Mutant("mems-branches-swapped", "states.py", "np.where(p >= 2.0 / 3.0, p / 2.0, 1.0 / 3.0)", "np.where(p >= 2.0 / 3.0, 1.0 / 3.0, p / 2.0)"),
    Mutant("rho-family-p-unbroadcast", "states.py", 'p = _unit_interval("p", p)[..., None, None]\n    alpha', 'p = _unit_interval("p", p)\n    alpha'),
    # the per-state sampler memo
    Mutant("trajectory-memo-by-state", "tomography.py", "if kept is None or kept[0] is not source:", "if kept is None:"),
    Mutant("memo-writable", "tomography.py", "value.setflags(write=False)", "value.setflags(write=True)"),
    # the detection layer and the selftest on stacks, and the table's entries-first test
    Mutant("det-scan-stack-refusal", "detection.py", "if operator.mat.ndim != 2:", "if operator.mat.ndim > 3:"),
    Mutant("lambda-min-d-first-entry", "detection.py", "gated_eig(operator.mat).values[..., 0]", "gated_eig(operator.mat).values[0]"),
    Mutant(
        "table-entries-first-dropped", "tomography.py",
        "        if count_nonzero(inside) != inside.size:\n            _name_entry_defect(p, q, r, lead)\n", "",
    ),
    Mutant("measure-prepare-inversion-coefficient", "selftest.py", "(4.0 / 3.0) * mixed", "(2.0 / 3.0) * mixed"),
    # the stacked verdict and the stacked random states
    Mutant("verdict-labels-swapped", "detection.py", 'np.where(entangled, "entangled", "undetected")', 'np.where(entangled, "undetected", "entangled")'),
    Mutant(
        "random-state-norm-summed", "states.py",
        "np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag)", "(v.real * v.real).sum(-1) + (v.imag * v.imag).sum(-1)",
    ),
    Mutant("random-state-components-reversed", "states.py", "for k in range(n_components):", "for k in reversed(range(n_components)):"),
    # the certificates read once per channel, the values-only solve, and f_hat off the ideal span
    Mutant("is-cp-threshold", "channels.py", "gated_eigvals(channel.choi.mat)[0] >= -PSD_TOL", "gated_eigvals(channel.choi.mat)[0] >= PSD_TOL"),
    Mutant("tp-row-writable", "channels.py", "return _read_only(vec(np.eye(dim)))", "return vec(np.eye(dim))"),
    Mutant("eigvals-nan-dropped", "linalg.py", "if count_nonzero(w != w):", "if vectors and count_nonzero(w != w):"),
    Mutant(
        "f-hat-map-off-span", "detection.py", "f_map = np.array(rows).reshape(20, 16)",
        # a direction no ideal table has a component along: sum(q + r) - sum(p[0] + p[1]) is 1 - 1
        "f_map = np.array(rows).reshape(20, 16) + 0.05 * np.outer(np.r_[-np.ones(8), np.zeros(8), np.ones(4)], np.diag([1.0, -1.0, -1.0, 1.0]).ravel())",
    ),
    # the JSON emitter and the sweeps kept per process
    Mutant("emitter-separator-shallow", "io.py", 'json.dumps(flat, separators=("," + inner, ": "))', 'json.dumps(flat, separators=("," + pad, ": "))'),
    Mutant(
        "sweep-keeps-first-sampled", "cli.py", 'sampled = detect(sample_table(sweep, cfg), "f_hat").lambda_min.tolist()',
        'sampled = _fig3_sweep.__dict__.setdefault("sampled", detect(sample_table(sweep, cfg), "f_hat").lambda_min.tolist())',
    ),
    # the one-parse dispatch to a subcommand's parser
    Mutant("dispatch-extras-accepted", "cli.py", "    if extras:\n        parser.error(", "    if False:\n        parser.error("),
    Mutant("dispatch-whole-argv", "cli.py", "parse_known_args(argv[1:], ", "parse_known_args(argv, "),
    Mutant("dispatch-ambiguity-unguarded", "cli.py", ' or "--=" in " ".join(argv)', ""),
)


def stale_mutants(mutants: tuple[Mutant, ...] | list[Mutant] = MUTANTS) -> list[str]:
    """Names of the mutants whose text no longer occurs exactly once in its module."""
    return [m.name for m in mutants if (ROOT / "src" / "spapt" / m.module).read_text(encoding="utf-8").count(m.old) != 1]


def _tier1(copy: Path) -> tuple[bool, str]:
    """Run tier-1 in ``copy`` with -x: whether it passed, and the first failing test."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    # the staleness test would kill every mutant, since a mutated module no longer holds its text
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--ignore", "tests/test_mutants.py"]
    result = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True)
    first = next((line for line in result.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))), result.stdout.strip()[-200:])
    return result.returncode == 0, first


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="run only these mutants (default: all)")
    parser.add_argument("--module", help="run only the mutants of this module of src/spapt, such as channels.py")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"unknown mutants: {', '.join(sorted(unknown))}")
    if args.module and args.module not in {m.module for m in MUTANTS}:
        parser.error(f"no mutants in module {args.module}")
    mutants = [m for m in MUTANTS if (not args.names or m.name in args.names) and (not args.module or m.module == args.module)]
    if not mutants:
        parser.error(f"none of the named mutants is in module {args.module}")
    if args.list:
        for m in mutants:
            print(f"{m.name:36} {m.module}: {m.old!r} -> {m.new!r}")
        return 0
    stale = stale_mutants(mutants)
    if stale:
        print(f"stale mutants, text not found exactly once: {', '.join(stale)}", file=sys.stderr)
        return 1
    counts = {"killed": 0, "equivalent": 0, "survived": 0}
    with tempfile.TemporaryDirectory(prefix="spapt-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_run", ".benchmarks"))
        for m in mutants:
            module = copy / "src" / "spapt" / m.module
            original = module.read_text(encoding="utf-8")
            module.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                passed, first = _tier1(copy)
            finally:
                module.write_text(original, encoding="utf-8")
            status = "killed" if not passed else "equivalent" if m.equivalent else "survived"
            counts[status] += 1
            detail = first if not passed else m.equivalent or "no test fails"
            print(f"{status:10} {m.name:36} {time.perf_counter() - start:6.1f} s  {detail}", flush=True)
    print(f"{counts['killed']} killed, {counts['equivalent']} equivalent, {counts['survived']} survived of {len(mutants)}")
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
