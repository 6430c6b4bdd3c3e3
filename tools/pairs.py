"""Interleaved benchmark pairs of a parent and a change, and the claim rule.

Each side is a git revision or tree, extracted with ``git archive`` into a
temporary directory of its own, so both run the committed files only.  Pair
k runs ``bench/run.py --workload W --seed S+k --trace 0`` once per side, at
the run length that script sets, the parent first in even pairs and the change first in odd ones.
The results go into ``--out``, a ``BENCH_<n>.json`` with the blocks of the
earlier ones: ``final`` holds, per workload, each side's median and
quartiles of every end-to-end metric, the pairs the change won and the
ratio of the medians, and ``per_pair`` the raw results; ``claim`` holds the
claimed metric's numbers when ``--claim`` names one.  A file that exists is
updated, so one file collects a run per workload.

    python tools/pairs.py HEAD~1 HEAD --workload shot_sweep --pairs 10 --seed 3201 --out BENCH_31.json
    python tools/pairs.py HEAD "$(git write-tree)" --workload certify --pairs 5 --seed 3301 --out BENCH_31.json
    python tools/pairs.py HEAD --aa --workload cli_reports --pairs 10 --seed 3401 --out aa.json

``--aa`` runs the parent against a second copy of itself, which measures the
spread between identical programs.  The quartiles are those of
``statistics.quantiles`` with the method :data:`QUARTILE_METHOD`.  A run that
reports itself not correct stops the driver.  The exit
status is 0, or 1 when ``--claim`` names a metric whose claim does not hold.
The script starts only its own benchmark processes and changes no file of
the repository except ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
#: the quartile method of every median, quartile and IQR here: at 10 pairs the
#: "inclusive" method (numpy's default percentile) gives an IQR about 28 % narrower
QUARTILE_METHOD = "exclusive"


def end_to_end() -> dict[str, str]:
    """Each end-to-end metric of the benchmark, in order, and whether "higher" or "lower" is better."""
    return {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile of ``values`` by :data:`QUARTILE_METHOD`."""
    q1, median, q3 = statistics.quantiles(values, n=4, method=QUARTILE_METHOD)
    return q1, median, q3


def _won(parent: float, change: float, better: str) -> bool:
    """Whether the change beat the parent in one pair; a tie counts for neither."""
    return change > parent if better == "higher" else change < parent


def summary(per_pair: list[dict], metric: str, better: str) -> dict:
    """One metric of a workload's pairs: each side's median and quartiles, the pairs the
    change won and the change's median over the parent's, rounded as the files record them."""
    sides = {}
    for side in SIDES:
        q1, median, q3 = quartiles([pair[side][metric] for pair in per_pair])
        sides[side] = {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}
    medians = [statistics.median(pair[side][metric] for pair in per_pair) for side in SIDES]
    return {
        **sides,
        "change_better_pairs": sum(_won(pair["parent"][metric], pair["change"][metric], better) for pair in per_pair),
        "median_ratio": round(medians[1] / medians[0], 4),
    }


def _seed_range(per_pair: list[dict]) -> str:
    seeds = [pair["seed"] for pair in per_pair]
    return f"{min(seeds)}-{max(seeds)}"


def workload_block(per_pair: list[dict], metrics: dict[str, str]) -> dict:
    """The ``final`` block of one workload: its seeds, pair count, the :func:`summary` of each metric and the pairs."""
    return {
        "seeds": _seed_range(per_pair),
        "pairs": len(per_pair),
        "metrics": {name: summary(per_pair, name, better) for name, better in metrics.items()},
        "per_pair": per_pair,
    }


def claim_block(workload: str, metric: str, better: str, per_pair: list[dict]) -> dict:
    """The ``claim`` block: both sides' median and quartiles of ``metric`` as :func:`summary` gives them, the
    parent's IQR, the pairs the change won, the change's median gain, positive when the change is better,
    and each side's failed units over all the pairs."""
    stats = summary(per_pair, metric, better)
    parent, change = stats["parent"], stats["change"]
    gain = change["median"] - parent["median"]
    return {
        "workload": workload, "metric": metric, "pairs": len(per_pair), "seeds": _seed_range(per_pair),
        **{f"parent_{key}": parent[key] for key in ("median", "q1", "q3")},
        "parent_iqr": round(parent["q3"] - parent["q1"], 4),
        **{f"change_{key}": change[key] for key in ("median", "q1", "q3")},
        "change_better_pairs": stats["change_better_pairs"],
        "median_gain": round(gain if better == "higher" else -gain, 4),
        **{f"{side}_failed": sum(pair[side]["failed"] for pair in per_pair) for side in SIDES},
    }


def claim_holds(claim: dict) -> bool:
    """The claim rule: the change won at least nine tenths of the pairs, its median gain
    exceeds the distance between the parent's quartiles, and it failed no more units."""
    return (
        10 * claim["change_better_pairs"] >= 9 * claim["pairs"]
        and claim["median_gain"] > claim["parent_iqr"]
        and claim["change_failed"] <= claim["parent_failed"]
    )


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced ``bench/run.py`` run in ``checkout``: its end-to-end metrics, rounded to 6 decimals as
    the files record them, so a file's blocks are recomputed from its pairs exactly, units timed and failures.
    A run that is not ``correct`` (a unit failed that the workload does not expect to) raises."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the run imports spapt from its own src/
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.splitlines()
    detail = json.loads(next(line for line in lines if line.startswith("detail "))[len("detail "):])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} is not correct: {lines[-1][:500]}")
    return {
        **{name: round(metric["value"], 6) for name, metric in result["metrics"].items()},
        "units_timed": detail["units_timed"],
        "failed": result["failed"],
    }


def interleave(pairs: int, first_seed: int, run) -> list[dict]:
    """``pairs`` pairs of ``run(side, seed)``, one seed per pair from ``first_seed`` on, the parent first in
    even pairs; each pair's throughputs go to standard error as it ends."""
    per_pair = []
    for k in range(pairs):
        seed, order = first_seed + k, SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(side, seed)
        per_pair.append({key: pair[key] for key in ("seed", "first", *SIDES)})
        print(f"pair {k + 1}/{pairs} seed {seed}: " + ", ".join(f"{side} {pair[side]['throughput_per_s']:.1f}/s" for side in SIDES),
              file=sys.stderr, flush=True)
    return per_pair


def _extract(rev: str, into: Path) -> str:
    """Extract ``rev``, a git revision or tree, into ``into`` with ``git archive``; its object id."""
    oid = subprocess.run(["git", "rev-parse", "--verify", rev], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    archive = into.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", f"--output={archive}", oid], cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return oid


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision or tree of the parent")
    parser.add_argument("change", nargs="?", help="git revision or tree of the change (not with --aa)")
    parser.add_argument("--aa", action="store_true", help="run the parent against a second copy of itself")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair; pair k runs seed + k")
    parser.add_argument("--claim", metavar="METRIC", help="end-to-end metric whose claim block to write and check")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write or update")
    args = parser.parse_args(argv)
    if args.aa == (args.change is not None):
        parser.error("give a change, or --aa, but not both")
    metrics = end_to_end()
    if args.claim and args.claim not in metrics:
        parser.error(f"--claim must be one of {', '.join(metrics)}")
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    with tempfile.TemporaryDirectory(prefix="spapt-pairs-") as tmp:
        revs = {"parent": args.parent, "change": args.parent if args.aa else args.change}
        ids = {side: _extract(rev, Path(tmp) / side) for side, rev in revs.items()}
        per_pair = interleave(args.pairs, args.seed, lambda side, seed: run_bench(Path(tmp) / side, args.workload, seed))
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("machine", f"{os.cpu_count()}-core {platform.machine()}, Python {platform.python_version()}, numpy {version('numpy')}")
    doc["command"] = (
        "python3 bench/run.py --workload W --seed S --trace 0, at its default of 25 s a run, in git archives of both "
        "sides, one pair per seed, alternating which side runs first (tools/pairs.py)"
    )
    block = workload_block(per_pair, metrics)
    doc.setdefault("final", {})[args.workload] = {"parent": ids["parent"], "change": ids["change"], "aa": args.aa, **block}
    holds = True
    if args.claim:
        doc["claim"] = claim_block(args.workload, args.claim, metrics[args.claim], per_pair)
        holds = claim_holds(doc["claim"])
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    for name, entry in block["metrics"].items():
        print(f"{args.workload} {name}: parent {entry['parent']['median']:.6g}, change {entry['change']['median']:.6g}, "
              f"ratio {entry['median_ratio']}, change better in {entry['change_better_pairs']} of {len(per_pair)}")
    if args.claim:
        print(f"claim on {args.claim}: {'holds' if holds else 'does not hold'}")
    return 0 if holds else 1


if __name__ == "__main__":
    sys.exit(main())
