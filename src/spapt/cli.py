"""Experiment harness CLI.

Subcommands: prepare, apply, detect, table1, fig3, selftest.  Every
report embeds the configuration (seed, shots, package version) needed to
reproduce it bit for bit.  Exit codes: 0 success, 1 usage error,
2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any, Callable

import numpy as np

from . import __version__
from .linalg import NumericError, ValidationError
from .states import (
    BELL_KINDS,
    NINE_STATE_PARAMS,
    DensityMatrix,
    bell,
    fidelity,
    linear_entropy,
    mems,
    min_eigenvalue,
    rho_family,
    tangle,
    werner,
)
from .channels import (
    DEPOLARIZE_SIDE,
    IDENTITY_SIDE,
    INVERSION_SIDE,
    TRANSPOSE_SIDE,
    Branch,
    Channel,
    Instrument,
    apply,
    spa_pt,
)
from .tomography import (
    ShotConfig,
    ideal_probabilities,
    qst_linear_inversion,
    project_to_physical,
    sample_pauli_expectations,
    sample_table,
    trajectory,
    trajectory_spa_pt,
)
from .detection import detect
from .io import load_state, save_state, write_report
from .selftest import run_all

__all__ = ["main", "build_parser", "CHANNEL_FACTORIES"]


class UsageError(Exception):
    """Bad command line that argparse cannot catch on its own."""


class _Parser(argparse.ArgumentParser):
    # exit code 1 for usage errors (argparse defaults to 2, which this
    # package reserves for validation failures)
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


# every channel is a local instrument, so both modes of apply serve each one; one
# instrument per factory, so its effect and superoperator stacks are built once
CHANNEL_FACTORIES: dict[str, Callable[[], Channel]] = {
    "spa_pt": spa_pt,
    "id_spa_transpose": Instrument((Branch(1, (IDENTITY_SIDE, TRANSPOSE_SIDE)),)).channel,
    "spa_transpose_id": Instrument((Branch(1, (TRANSPOSE_SIDE, IDENTITY_SIDE)),)).channel,
    "spa_inversion_depolarize": Instrument((Branch(1, (INVERSION_SIDE, DEPOLARIZE_SIDE)),)).channel,
    "id_depolarize": Instrument((Branch(1, (IDENTITY_SIDE, DEPOLARIZE_SIDE)),)).channel,
    "depolarize_id": Instrument((Branch(1, (DEPOLARIZE_SIDE, IDENTITY_SIDE)),)).channel,
    "identity": Instrument((Branch(1, (IDENTITY_SIDE, IDENTITY_SIDE)),)).channel,
}


def _family(name: str, build: Callable[..., DensityMatrix], *flags: str) -> tuple[Callable[..., Any], tuple[str, ...]]:
    return (lambda *values: (build(*values), {"family": name, **dict(zip(flags, values))})), flags


def _state_file(path: str) -> tuple[DensityMatrix, dict[str, Any]]:
    rho, metadata = load_state(path)
    return rho, {**metadata, "family": "file", "source": path}


# family -> (builder returning the state and its metadata, flags the builder takes in order)
FAMILIES = {
    "bell": _family("bell", bell, "kind"),
    "werner": _family("werner", werner, "p"),
    "mems": _family("mems", mems, "p"),
    "rho_family": _family("rho_family", rho_family, "p", "alpha"),
    "file": (_state_file, ("path",)),
}
#: every flag that some family takes, in first-use order
_FAMILY_FLAGS = tuple(dict.fromkeys(flag for _, flags in FAMILIES.values() for flag in flags))

# CLI method -> (library method, whether it reads a sampled table instead of the state)
DETECTORS = {
    "ppt": ("ppt", False),
    "spa_spectrum": ("spa_spectrum", False),
    "f_hat_ideal": ("f_hat", False),
    "f_hat_sampled": ("f_hat", True),
}


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shots", type=int, default=ShotConfig.shots_per_setting, help=f"shots per measurement setting (default {ShotConfig.shots_per_setting})")
    parser.add_argument("--seed", type=int, default=ShotConfig.seed, help=f"root RNG seed (default {ShotConfig.seed})")
    parser.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format", help="report encoding")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spapt", description="Local measure-and-prepare approximation of the partial transpose and operation-based entanglement detection.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    prepare = sub.add_parser("prepare", help="write a state file for a named family")
    prepare.add_argument("family", choices=tuple(FAMILIES))
    prepare.add_argument("--kind", choices=BELL_KINDS, help="Bell state name (family bell)")
    prepare.add_argument("--p", type=float, help="mixing parameter in [0, 1]")
    prepare.add_argument("--alpha", type=float, help="amplitude parameter in [0, 1] (family rho_family)")
    prepare.add_argument("--path", help="existing state file to revalidate (family file)")
    prepare.add_argument("--out", default=None, help="state file path (default: stdout)")
    prepare.set_defaults(handler=_cmd_prepare)

    apply_cmd = sub.add_parser("apply", help="apply a channel to a state file")
    apply_cmd.add_argument("--state", required=True, help="input state file")
    apply_cmd.add_argument("--channel", required=True, choices=sorted(CHANNEL_FACTORIES))
    apply_cmd.add_argument("--mode", choices=("exact", "trajectory"), default="exact")
    apply_cmd.add_argument("--state-out", default=None, help="where to write the transformed state file")
    _add_run_options(apply_cmd)
    apply_cmd.set_defaults(handler=_cmd_apply)

    detect_cmd = sub.add_parser("detect", help="entanglement verdict for a state file")
    detect_cmd.add_argument("--state", required=True, help="input state file")
    detect_cmd.add_argument("--method", required=True, choices=tuple(DETECTORS))
    _add_run_options(detect_cmd)
    detect_cmd.set_defaults(handler=_cmd_detect)

    table1 = sub.add_parser("table1", help="minimum eigenvalues for the four Bell states by three methods")
    _add_run_options(table1)
    table1.set_defaults(handler=_cmd_table1)

    fig3 = sub.add_parser("fig3", help="detection sweep over the benchmark state families")
    _add_run_options(fig3)
    fig3.set_defaults(handler=_cmd_fig3)

    selftest = sub.add_parser("selftest", help="run the invariant suites end to end")
    selftest.add_argument("--seed", type=int, default=ShotConfig.seed)
    # selftest has no --shots; the default completes the ShotConfig that checks its seed
    selftest.set_defaults(handler=_cmd_selftest, shots=ShotConfig.shots_per_setting)
    return parser


def _report(args: argparse.Namespace, cfg: ShotConfig, rows: list[dict[str, Any]], **config: Any) -> int:
    """Write the report envelope; every row ends with the seed and the version."""
    report = {
        "command": args.command,
        "config": {"version": __version__, "seed": cfg.seed, "shots_per_setting": cfg.shots_per_setting, **config},
        "rows": [{**row, "seed": cfg.seed, "version": __version__} for row in rows],
    }
    write_report(report, args.output_format, args.out)
    return 0


def _cmd_prepare(args: argparse.Namespace, cfg: None) -> int:
    build, flags = FAMILIES[args.family]
    values = [getattr(args, flag) for flag in flags]
    if None in values:
        raise UsageError(f"family {args.family} requires " + " and ".join(f"--{flag}" for flag in flags))
    foreign = [flag for flag in _FAMILY_FLAGS if flag not in flags and getattr(args, flag) is not None]
    if foreign:
        raise UsageError(f"family {args.family} does not take " + " or ".join(f"--{flag}" for flag in foreign))
    rho, metadata = build(*values)
    metadata["version"] = __version__
    save_state(rho, metadata, args.out)
    return 0


def _spectrum_row(rho: DensityMatrix) -> dict[str, float]:
    values = rho.spectrum.values
    row = {f"eig_{k + 1}": float(v) for k, v in enumerate(values)}
    row["min_eigenvalue"] = float(values[0])
    return row


def _cmd_apply(args: argparse.Namespace, cfg: ShotConfig) -> int:
    rho, _ = load_state(args.state)
    channel = CHANNEL_FACTORIES[args.channel]()
    exact_out = apply(channel, rho)
    if args.mode == "trajectory":
        out_state = trajectory(rho, channel.instrument, cfg)
        fidelity_to_exact = fidelity(out_state, exact_out)
        shots = cfg.shots_per_setting
    else:
        out_state = exact_out
        fidelity_to_exact = None
        shots = 0
    row: dict[str, Any] = {"channel": args.channel, "mode": args.mode}
    row.update(_spectrum_row(out_state))
    row["fidelity_to_exact"] = fidelity_to_exact
    row["shots"] = shots
    if args.state_out is not None:
        out_meta = {"family": "channel_output", "channel": args.channel, "mode": args.mode, "source": args.state, "seed": cfg.seed, "shots": shots}
        save_state(out_state, out_meta, args.state_out)
    return _report(args, cfg, [row], channel=args.channel, mode=args.mode, state=args.state)


def _cmd_detect(args: argparse.Namespace, cfg: ShotConfig) -> int:
    rho, _ = load_state(args.state)
    method, sampled = DETECTORS[args.method]
    verdict = detect(sample_table(rho, cfg) if sampled else rho, method)
    row = {
        "method": args.method,
        "lambda_min": verdict.lambda_min,
        "threshold": verdict.threshold,
        "margin": verdict.margin,
        "verdict": verdict.verdict,
        "shots": verdict.shots,
    }
    return _report(args, cfg, [row], method=args.method, state=args.state)


# table1 and fig3 each run on one stack of states, built once per process with its columns that
# depend on neither seed nor shots, all read-only; later runs draw from the kept stack's memo
@functools.cache
def _bell_sweep() -> tuple[DensityMatrix, tuple[float, ...]]:
    states = bell(BELL_KINDS)
    return states, tuple(detect(states, "spa_spectrum").lambda_min.tolist())


@functools.cache
def _fig3_sweep() -> tuple[DensityMatrix, tuple[tuple[Any, ...], ...]]:
    """The sweep stack and per state its family, p, alpha, tangle, linear entropy, lambda_th, ideal lambda_d and verdict."""
    grid = [round(0.05 * k, 10) for k in range(21)]
    labels = [("rho_family", p, alpha) for p, alpha in NINE_STATE_PARAMS] + [(family, p, None) for family in ("werner", "mems") for p in grid]
    p, alpha = np.array(NINE_STATE_PARAMS).T
    states = DensityMatrix.concatenate([rho_family(p, alpha), werner(grid), mems(grid)])
    spa, ideal = detect(states, "spa_spectrum"), detect(ideal_probabilities(states), "f_hat")
    columns = zip(tangle(states).tolist(), linear_entropy(states).tolist(), spa.lambda_min.tolist(), ideal.lambda_min.tolist(), spa.verdict.tolist())
    return states, tuple(label + column for label, column in zip(labels, columns))


def _cmd_table1(args: argparse.Namespace, cfg: ShotConfig) -> int:
    # lambda_exp is the experiment's estimate: trajectory runs, sampled state tomography of the
    # output, physicality projection, then the spectrum
    states, lambda_th = _bell_sweep()
    lambda_exp = min_eigenvalue(project_to_physical(qst_linear_inversion(sample_pauli_expectations(trajectory_spa_pt(states, cfg), cfg))))
    columns = zip(BELL_KINDS, lambda_th, lambda_exp.tolist(), detect(sample_table(states, cfg), "f_hat").lambda_min.tolist())
    rows = [{"state": kind, "lambda_th": th, "lambda_exp": exp, "lambda_d": d, "shots": cfg.shots_per_setting} for kind, th, exp, d in columns]
    return _report(args, cfg, rows)


def _cmd_fig3(args: argparse.Namespace, cfg: ShotConfig) -> int:
    sweep, fixed = _fig3_sweep()
    sampled = detect(sample_table(sweep, cfg), "f_hat").lambda_min.tolist()
    keys = ("family", "p", "alpha", "tangle", "linear_entropy", "lambda_th", "lambda_d_ideal", "lambda_d_sampled", "verdict", "shots")
    return _report(args, cfg, [dict(zip(keys, (*row[:-1], d, row[-1], cfg.shots_per_setting))) for row, d in zip(fixed, sampled)])


def _cmd_selftest(args: argparse.Namespace, cfg: ShotConfig) -> int:
    return 0 if run_all(cfg.seed) else 3


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first call of main, not at import, and reused: parsing
    # leaves no state in the parser, and building it costs more than most commands
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # every command but prepare samples: its shots and seed are checked before any work
        cfg = None if args.command == "prepare" else ShotConfig(args.shots, args.seed)
        return args.handler(args, cfg)
    except UsageError as exc:
        print(f"spapt: error: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"spapt: validation error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"spapt: numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
