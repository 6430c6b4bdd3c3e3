"""The pair driver's statistics and claim rule, on the pairs ``BENCH_30.json``
recorded, with no benchmark run: its claim and final blocks come back, and
the quartile method is what decides the parent's IQR."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

BENCH_30 = json.loads((ROOT / "BENCH_30.json").read_text(encoding="utf-8"))
METRICS = pairs.end_to_end()


def test_the_claim_block_of_bench_30_is_recomputed_from_its_pairs():
    per_pair = BENCH_30["final"]["cli_reports"]["per_pair"]
    claim = pairs.claim_block("cli_reports", "throughput_per_s", METRICS["throughput_per_s"], per_pair)
    # BENCH_30 did not record the failure totals; every one of its runs failed no unit
    assert claim == {**BENCH_30["claim"], "parent_failed": 0, "change_failed": 0}
    assert pairs.claim_holds(claim)


def _numbers(block, path=()):
    """The numbers of a nested block by their key paths."""
    if isinstance(block, dict):
        return {k: v for key, value in block.items() for k, v in _numbers(value, path + (key,)).items()}
    return {path: block}


@pytest.mark.parametrize("workload", sorted(BENCH_30["final"]))
def test_each_final_block_of_bench_30_is_recomputed_from_its_pairs(workload):
    # the file's quartiles came from the unrounded runs, its pairs are rounded to 6 decimals
    block = BENCH_30["final"][workload]
    recomputed = pairs.workload_block(block["per_pair"], METRICS)
    assert recomputed["per_pair"] is block["per_pair"] and recomputed["seeds"] == block["seeds"] and recomputed["pairs"] == block["pairs"]
    got, want = _numbers(recomputed["metrics"]), _numbers(block["metrics"])
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=0, abs=1e-4 if key[-1] == "median_ratio" else 2e-6), key


def test_the_named_quartile_method_gives_the_recorded_parent_iqr():
    parent = [pair["parent"]["throughput_per_s"] for pair in BENCH_30["final"]["cli_reports"]["per_pair"]]
    assert pairs.QUARTILE_METHOD == "exclusive"
    q1, _, q3 = pairs.quartiles(parent)
    assert round(q3 - q1, 2) == 63.14
    # numpy's default percentile is the inclusive method: a narrower IQR, and another claim rule
    assert round(float(np.subtract(*np.percentile(parent, [75, 25]))), 2) == 45.74


@pytest.mark.parametrize(
    "wins, gain, failed, holds",
    [
        (9, 63.2, (0, 0), True), (10, 63.2, (3, 3), True), (10, 63.2, (3, 1), True),
        (8, 500.0, (0, 0), False), (9, 63.1438, (0, 0), False), (9, 10.0, (0, 0), False), (10, 500.0, (0, 1), False),
    ],
)
def test_the_claim_rule_wants_nine_tenths_of_the_pairs_and_a_gain_above_the_parent_iqr(wins, gain, failed, holds):
    claim = {"pairs": 10, "change_better_pairs": wins, "median_gain": gain, "parent_iqr": 63.1438}
    claim.update(parent_failed=failed[0], change_failed=failed[1])
    assert pairs.claim_holds(claim) is holds


def test_a_lower_is_better_gain_is_positive_and_ties_win_for_neither():
    per_pair = [
        {"seed": s, "first": "parent", "parent": {"latency_p50_ms": 1.0, "failed": 0}, "change": {"latency_p50_ms": c, "failed": 0}}
        for s, c in enumerate([0.5, 1.0, 0.6, 0.7, 0.5])
    ]
    claim = pairs.claim_block("w", "latency_p50_ms", "lower", per_pair)
    assert claim["median_gain"] == 0.4 and claim["change_better_pairs"] == 4 and claim["parent_iqr"] == 0.0
    assert not pairs.claim_holds(claim)


def test_pairs_interleave_with_the_side_that_runs_first_alternating():
    calls = []

    def run(side, seed):
        calls.append((side, seed))
        return {"throughput_per_s": float(seed)}

    per_pair = pairs.interleave(4, 7, run)
    assert calls == [("parent", 7), ("change", 7), ("change", 8), ("parent", 8), ("parent", 9), ("change", 9), ("change", 10), ("parent", 10)]
    assert [(p["seed"], p["first"]) for p in per_pair] == [(7, "parent"), (8, "change"), (9, "parent"), (10, "change")]
    assert all(p["parent"] == p["change"] == {"throughput_per_s": float(p["seed"])} for p in per_pair)


def _fake_checkout(root, correct):
    """A checkout whose ``bench/run.py`` prints one run's lines, ``correct`` as given."""
    (root / "bench").mkdir(parents=True)
    result = {"correct": correct, "attempted": 10, "failed": 2, "metrics": {"throughput_per_s": {"value": 1234.56789012, "unit": "1/s"}}}
    (root / "bench" / "run.py").write_text(f"print('detail ' + {json.dumps(json.dumps({'units_timed': 8}))})\nprint({json.dumps(json.dumps(result))})\n")
    return root


def test_a_run_is_read_rounded_and_one_that_is_not_correct_stops_the_driver(tmp_path):
    assert pairs.run_bench(_fake_checkout(tmp_path / "ok", True), "w", 1) == {"throughput_per_s": 1234.56789, "units_timed": 8, "failed": 2}
    with pytest.raises(RuntimeError, match="is not correct"):
        pairs.run_bench(_fake_checkout(tmp_path / "bad", False), "w", 1)


def test_fewer_than_two_pairs_are_refused_before_any_run(capsys):
    with pytest.raises(SystemExit):
        pairs.main(["HEAD", "--aa", "--workload", "certify", "--pairs", "1", "--seed", "1", "--out", "unused.json"])
    assert "--pairs must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("workload", sorted(json.loads((ROOT / "BENCH_31.json").read_text(encoding="utf-8"))["final"]))
def test_a_file_the_driver_wrote_recomputes_exactly_from_its_pairs(workload):
    block = json.loads((ROOT / "BENCH_31.json").read_text(encoding="utf-8"))["final"][workload]
    assert {"parent": block["parent"], "change": block["change"], "aa": block["aa"], **pairs.workload_block(block["per_pair"], METRICS)} == block
