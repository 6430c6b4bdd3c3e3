"""Experiment harness CLI.

Subcommands: prepare, apply, detect, table1, fig3, selftest.  Every
report embeds the configuration (seed, shots, package version) needed to
reproduce it bit for bit.  Exit codes: 0 success, 1 usage error,
2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

import numpy as np

from . import __version__
from .linalg import NumericError, ValidationError, herm_eig
from .states import (
    BELL_KINDS,
    NINE_STATE_PARAMS,
    DensityMatrix,
    bell,
    fidelity,
    linear_entropy,
    mems,
    rho_family,
    tangle,
    werner,
)
from .channels import (
    Channel,
    ProductChannel,
    apply,
    depolarize,
    identity_channel,
    spa_inversion,
    spa_pt,
    spa_transpose,
)
from .tomography import (
    ShotConfig,
    qst_linear_inversion,
    project_to_physical,
    sample_pauli_expectations,
    sample_table,
    trajectory_spa_pt,
)
from .detection import detect, f_hat, lambda_min_d
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


CHANNEL_FACTORIES: dict[str, Callable[[], Channel]] = {
    "spa_pt": spa_pt,
    "id_spa_transpose": lambda: ProductChannel(identity_channel(2), spa_transpose()),
    "spa_transpose_id": lambda: ProductChannel(spa_transpose(), identity_channel(2)),
    "spa_inversion_depolarize": lambda: ProductChannel(spa_inversion(), depolarize()),
    "id_depolarize": lambda: ProductChannel(identity_channel(2), depolarize()),
    "depolarize_id": lambda: ProductChannel(depolarize(), identity_channel(2)),
    "identity": lambda: identity_channel(4),
}

DETECT_METHODS = ("ppt", "spa_spectrum", "f_hat_ideal", "f_hat_sampled")


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shots", type=int, default=100000, help="shots per measurement setting (default 100000)")
    parser.add_argument("--seed", type=int, default=42, help="root RNG seed (default 42)")
    parser.add_argument("--format", choices=("json", "csv"), default="json", dest="output_format", help="report encoding")
    parser.add_argument("--out", default=None, help="report path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spapt", description="Local measure-and-prepare approximation of the partial transpose and operation-based entanglement detection.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    prepare = sub.add_parser("prepare", help="write a state file for a named family")
    prepare.add_argument("family", choices=("bell", "werner", "mems", "rho_family", "file"))
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
    detect_cmd.add_argument("--method", required=True, choices=DETECT_METHODS)
    _add_run_options(detect_cmd)
    detect_cmd.set_defaults(handler=_cmd_detect)

    table1 = sub.add_parser("table1", help="minimum eigenvalues for the four Bell states by three methods")
    _add_run_options(table1)
    table1.set_defaults(handler=_cmd_table1)

    fig3 = sub.add_parser("fig3", help="detection sweep over the benchmark state families")
    _add_run_options(fig3)
    fig3.set_defaults(handler=_cmd_fig3)

    selftest = sub.add_parser("selftest", help="run the invariant suites end to end")
    selftest.add_argument("--seed", type=int, default=42)
    selftest.set_defaults(handler=_cmd_selftest)
    return parser


def _config_dict(args: argparse.Namespace, **extra: Any) -> dict[str, Any]:
    cfg = {"version": __version__}
    if hasattr(args, "seed"):
        cfg["seed"] = args.seed
    if hasattr(args, "shots"):
        cfg["shots_per_setting"] = args.shots
    cfg.update(extra)
    return cfg


def _cmd_prepare(args: argparse.Namespace) -> int:
    family = args.family
    if family == "bell":
        if args.kind is None:
            raise UsageError("family bell requires --kind")
        rho = bell(args.kind)
        metadata = {"family": "bell", "kind": args.kind}
    elif family == "werner":
        if args.p is None:
            raise UsageError("family werner requires --p")
        rho = werner(args.p)
        metadata = {"family": "werner", "p": args.p}
    elif family == "mems":
        if args.p is None:
            raise UsageError("family mems requires --p")
        rho = mems(args.p)
        metadata = {"family": "mems", "p": args.p}
    elif family == "rho_family":
        if args.p is None or args.alpha is None:
            raise UsageError("family rho_family requires --p and --alpha")
        rho = rho_family(args.p, args.alpha)
        metadata = {"family": "rho_family", "p": args.p, "alpha": args.alpha}
    else:
        if args.path is None:
            raise UsageError("family file requires --path")
        rho, metadata = load_state(args.path)
        metadata = {**metadata, "family": "file", "source": args.path}
    metadata["version"] = __version__
    save_state(rho, metadata, args.out)
    return 0


def _spectrum_row(mat: np.ndarray) -> dict[str, float]:
    values = herm_eig(mat).values
    row = {f"eig_{k + 1}": float(v) for k, v in enumerate(values)}
    row["min_eigenvalue"] = float(values[0])
    return row


def _cmd_apply(args: argparse.Namespace) -> int:
    rho, metadata = load_state(args.state)
    channel = CHANNEL_FACTORIES[args.channel]()
    if channel.dim_in != rho.dim:
        raise ValidationError(f"channel {args.channel} expects dim {channel.dim_in}, state has dim {rho.dim}")
    exact_out = apply(channel, rho)
    if args.mode == "trajectory":
        if args.channel != "spa_pt":
            raise ValidationError("trajectory mode is implemented for the spa_pt channel only")
        cfg = ShotConfig(shots_per_setting=args.shots, seed=args.seed)
        out_state = trajectory_spa_pt(rho, cfg)
        fidelity_to_exact = fidelity(out_state, exact_out)
        shots = args.shots
    else:
        out_state = exact_out
        fidelity_to_exact = None
        shots = 0
    row: dict[str, Any] = {"channel": args.channel, "mode": args.mode}
    row.update(_spectrum_row(out_state.mat))
    row["fidelity_to_exact"] = fidelity_to_exact
    row["shots"] = shots
    row["seed"] = args.seed
    row["version"] = __version__
    report = {
        "command": "apply",
        "config": _config_dict(args, channel=args.channel, mode=args.mode, state=args.state),
        "rows": [row],
    }
    if args.state_out is not None:
        out_meta = {"family": "channel_output", "channel": args.channel, "mode": args.mode, "source": args.state, "seed": args.seed, "shots": shots}
        save_state(out_state, out_meta, args.state_out)
    write_report(report, args.output_format, args.out)
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    rho, _ = load_state(args.state)
    if args.method == "ppt":
        verdict = detect(rho, "ppt")
    elif args.method == "spa_spectrum":
        verdict = detect(rho, "spa_spectrum")
    elif args.method == "f_hat_ideal":
        verdict = detect(rho, "f_hat")
    else:
        cfg = ShotConfig(shots_per_setting=args.shots, seed=args.seed)
        verdict = detect(sample_table(rho, cfg), "f_hat")
    row = {
        "method": args.method,
        "lambda_min": verdict.lambda_min,
        "threshold": verdict.threshold,
        "margin": verdict.margin,
        "verdict": verdict.verdict,
        "shots": verdict.shots,
        "seed": args.seed,
        "version": __version__,
    }
    report = {"command": "detect", "config": _config_dict(args, method=args.method, state=args.state), "rows": [row]}
    write_report(report, args.output_format, args.out)
    return 0


def _lambda_exp(rho: DensityMatrix, cfg: ShotConfig) -> float:
    """Experiment-style estimate: trajectory runs, sampled state
    tomography of the output, physicality projection, then the spectrum."""
    out = trajectory_spa_pt(rho, cfg)
    expectations = sample_pauli_expectations(out, cfg)
    reconstructed = project_to_physical(qst_linear_inversion(expectations))
    return float(herm_eig(reconstructed.mat).values[0])


def _cmd_table1(args: argparse.Namespace) -> int:
    cfg = ShotConfig(shots_per_setting=args.shots, seed=args.seed)
    rows = []
    for kind in BELL_KINDS:
        rho = bell(kind)
        lambda_th = detect(rho, "spa_spectrum").lambda_min
        lambda_exp = _lambda_exp(rho, cfg)
        lambda_d = lambda_min_d(f_hat(sample_table(rho, cfg)))
        rows.append(
            {
                "state": kind,
                "lambda_th": lambda_th,
                "lambda_exp": lambda_exp,
                "lambda_d": lambda_d,
                "shots": args.shots,
                "seed": args.seed,
                "version": __version__,
            }
        )
    report = {"command": "table1", "config": _config_dict(args), "rows": rows}
    write_report(report, args.output_format, args.out)
    return 0


def _fig3_row(family: str, p: float, alpha: float | None, rho: DensityMatrix, cfg: ShotConfig, args: argparse.Namespace) -> dict[str, Any]:
    spa = detect(rho, "spa_spectrum")
    lambda_d_ideal = detect(rho, "f_hat").lambda_min
    lambda_d_sampled = lambda_min_d(f_hat(sample_table(rho, cfg)))
    return {
        "family": family,
        "p": p,
        "alpha": alpha,
        "tangle": tangle(rho),
        "linear_entropy": linear_entropy(rho),
        "lambda_th": spa.lambda_min,
        "lambda_d_ideal": lambda_d_ideal,
        "lambda_d_sampled": lambda_d_sampled,
        "verdict": spa.verdict,
        "shots": args.shots,
        "seed": args.seed,
        "version": __version__,
    }


def _cmd_fig3(args: argparse.Namespace) -> int:
    cfg = ShotConfig(shots_per_setting=args.shots, seed=args.seed)
    rows = []
    for p, alpha in NINE_STATE_PARAMS:
        rows.append(_fig3_row("rho_family", p, alpha, rho_family(p, alpha), cfg, args))
    grid = [round(0.05 * k, 10) for k in range(21)]
    for p in grid:
        rows.append(_fig3_row("werner", p, None, werner(p), cfg, args))
    for p in grid:
        rows.append(_fig3_row("mems", p, None, mems(p), cfg, args))
    report = {"command": "fig3", "config": _config_dict(args), "rows": rows}
    write_report(report, args.output_format, args.out)
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    return 0 if run_all(args.seed) else 3


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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
