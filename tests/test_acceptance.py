"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

Statistical criteria use the fixed seed set 0..9 at 1e5 shots per
setting; analytic criteria are pinned at their stated tolerances."""

import csv
import time

import numpy as np
import pytest

from spapt.linalg import herm_eig, partial_transpose
from spapt.states import (
    BELL_KINDS,
    DensityMatrix,
    bell,
    bell_vector,
    fidelity,
    random_density_matrix,
    werner,
)
from spapt.channels import (
    apply,
    choi,
    depolarize,
    is_cp,
    is_tp,
    partial_transpose_channel,
    replace_channel,
    spa_inversion,
    spa_pt,
    spa_transpose,
)
from spapt.tomography import (
    ShotConfig,
    ideal_probabilities,
    pauli_expectations,
    project_to_physical,
    qst_linear_inversion,
    sample_pauli_expectations,
    sample_table,
    trajectory_spa_pt,
)
from spapt.detection import SPA_THRESHOLD, detect, f_hat, lambda_min_d, witness_expectation
from spapt.cli import main as cli_main

SEEDS = tuple(range(10))
SHOTS = 100000
ONE_SIXTH = 1.0 / 6.0


def report(name, elapsed, detail=""):
    suffix = f" [{detail}]" if detail else ""
    print(f"[PASS] {name} ({elapsed:.2f} s){suffix}")


def lambda_exp_pipeline(rho, cfg):
    """Trajectory runs, sampled tomography of the output, projection,
    then the minimum eigenvalue (the experiment-style estimate)."""
    out = trajectory_spa_pt(rho, cfg)
    reconstructed = project_to_physical(qst_linear_inversion(sample_pauli_expectations(out, cfg)))
    return float(herm_eig(reconstructed.mat).values[0])


@pytest.fixture(scope="module")
def bell_seed_sweep():
    """lambda_exp and lambda_d for every Bell state over the fixed seeds."""
    start = time.perf_counter()
    sweep = {"exp": {}, "d": {}}
    for kind in BELL_KINDS:
        rho = bell(kind)
        sweep["exp"][kind] = np.array(
            [lambda_exp_pipeline(rho, ShotConfig(shots_per_setting=SHOTS, seed=seed)) for seed in SEEDS]
        )
        sweep["d"][kind] = np.array(
            [
                lambda_min_d(f_hat(sample_table(rho, ShotConfig(shots_per_setting=SHOTS, seed=seed))))
                for seed in SEEDS
            ]
        )
    sweep["elapsed"] = time.perf_counter() - start
    return sweep


def test_criterion_01_decomposition_identity():
    start = time.perf_counter()
    actual = spa_pt().superoperator()
    expected = partial_transpose_channel().mat / 9.0 + (8.0 / 9.0) * replace_channel(4).mat
    deviation = float(np.max(np.abs(actual - expected)))
    elapsed = time.perf_counter() - start
    assert deviation < 1e-10, f"decomposition identity deviates by {deviation:.3e}"
    assert elapsed < 1.0, f"identity check took {elapsed:.2f} s, budget 1 s"
    report("criterion 1: superoperator decomposition identity", elapsed, f"max dev {deviation:.1e}")


def test_criterion_02_channel_physicality():
    start = time.perf_counter()
    for name, channel in (
        ("spa_pt", spa_pt()),
        ("spa_transpose", spa_transpose()),
        ("spa_inversion", spa_inversion()),
        ("depolarize", depolarize()),
    ):
        lam = float(herm_eig(choi(channel).mat).values[0])
        assert lam >= -1e-9, f"{name} Choi min eigenvalue {lam:.3e}"
        assert is_cp(channel), f"{name} fails the CP certificate"
        assert is_tp(channel), f"{name} fails the TP certificate"
    raw_lam = float(herm_eig(choi(partial_transpose_channel()).mat).values[0])
    assert abs(raw_lam + 0.5) <= 1e-9, f"raw map Choi min eigenvalue {raw_lam} != -1/2"
    report("criterion 2: physicality certificates", time.perf_counter() - start, f"raw PT Choi min {raw_lam:.3f}")


def test_criterion_03_bell_table_reproduction(bell_seed_sweep):
    start = time.perf_counter()
    lams_th = {}
    for kind in BELL_KINDS:
        lam = detect(bell(kind), "spa_spectrum").lambda_min
        assert abs(lam - ONE_SIXTH) <= 1e-10, f"lambda_th({kind}) = {lam}"
        lams_th[kind] = lam
    # reference experimental values for this quantity from a hardware
    # realization sit within 0.004 of the ideal 1/6
    for value in (0.169, 0.170, 0.168, 0.168):
        assert abs(value - ONE_SIXTH) <= 0.004
    worst = 0.0
    for kind in BELL_KINDS:
        for seed_idx, seed in enumerate(SEEDS):
            le = bell_seed_sweep["exp"][kind][seed_idx]
            ld = bell_seed_sweep["d"][kind][seed_idx]
            assert abs(le - ONE_SIXTH) < 0.01, f"lambda_exp({kind}, seed {seed}) = {le}"
            assert abs(ld - ONE_SIXTH) < 0.01, f"lambda_d({kind}, seed {seed}) = {ld}"
            worst = max(worst, abs(le - ONE_SIXTH), abs(ld - ONE_SIXTH))
            for value in (lams_th[kind], le, ld):
                assert value < 2.0 / 9.0
    elapsed = (time.perf_counter() - start) + bell_seed_sweep["elapsed"]
    assert elapsed < 120.0, f"table reproduction took {elapsed:.1f} s, budget 120 s"
    report("criterion 3: Bell-state table at 1e5 shots x 10 seeds", elapsed, f"worst |lambda - 1/6| = {worst:.4f}")


def test_criterion_04_trajectory_fidelity_floor():
    start = time.perf_counter()
    channel = spa_pt()
    cfg = ShotConfig(shots_per_setting=10**6, seed=42)
    worst = 1.0
    for kind in BELL_KINDS:
        rho = bell(kind)
        fid = fidelity(trajectory_spa_pt(rho, cfg), apply(channel, rho))
        assert fid >= 0.999, f"trajectory fidelity {fid:.6f} for {kind}"
        worst = min(worst, fid)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"trajectory check took {elapsed:.1f} s, budget 300 s"
    report("criterion 4: 1e6-run trajectory fidelity >= 0.999", elapsed, f"worst {worst:.6f}")


def test_criterion_05_verdict_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    channel = spa_pt()
    for _ in range(1000):
        rho = random_density_matrix(rng)
        ppt = detect(rho, "ppt")
        spa = detect(rho, "spa_spectrum")
        assert ppt.verdict == spa.verdict
        spec_pt = herm_eig(partial_transpose(rho.mat)).values
        spec_spa = herm_eig(apply(channel, rho).mat).values
        assert np.max(np.abs(spec_spa - (spec_pt / 9.0 + 2.0 / 9.0))) < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"equivalence suite took {elapsed:.1f} s, budget 30 s"
    report("criterion 5: 1000-state verdict equivalence and affine law", elapsed)


def test_criterion_06_output_range_law():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    for _ in range(500):
        lam = detect(random_density_matrix(rng), "spa_spectrum").lambda_min
        assert ONE_SIXTH - 1e-10 <= lam <= 0.25 + 1e-12
    for kind in BELL_KINDS:
        assert abs(detect(bell(kind), "spa_spectrum").lambda_min - ONE_SIXTH) <= 1e-10
    for _ in range(50):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        product = DensityMatrix(np.outer(v, v.conj()))
        assert abs(detect(product, "spa_spectrum").lambda_min - SPA_THRESHOLD) <= 1e-10
    report("criterion 6: output spectrum range [1/6, 2/9] endpoints", time.perf_counter() - start)


def test_criterion_07_werner_closed_form():
    start = time.perf_counter()
    for p in np.linspace(0.0, 1.0, 21):
        verdict = detect(werner(p), "spa_spectrum")
        assert abs(verdict.lambda_min - (p + 2.0) / 12.0) <= 1e-10
        assert verdict.verdict == ("entangled" if p < 2.0 / 3.0 else "undetected")
    assert detect(werner(2.0 / 3.0), "spa_spectrum").verdict == "undetected"
    assert detect(werner(2.0 / 3.0 - 1e-9), "spa_spectrum").verdict == "entangled"
    report("criterion 7: Werner closed form and 2/3 flip", time.perf_counter() - start)


def test_criterion_08_basis_independence(bell_seed_sweep):
    start = time.perf_counter()
    lams_th = [detect(bell(k), "spa_spectrum").lambda_min for k in BELL_KINDS]
    lams_d_ideal = [lambda_min_d(f_hat(ideal_probabilities(bell(k)))) for k in BELL_KINDS]
    assert max(lams_th) - min(lams_th) <= 1e-10
    assert max(lams_d_ideal) - min(lams_d_ideal) <= 1e-10
    # sampled estimates: every Bell state's mean sits within two standard
    # errors of the common (inverse-variance pooled) value
    for method in ("exp", "d"):
        means = {k: float(np.mean(bell_seed_sweep[method][k])) for k in BELL_KINDS}
        stderr = {k: float(np.std(bell_seed_sweep[method][k], ddof=1) / np.sqrt(len(SEEDS))) for k in BELL_KINDS}
        weights = {k: 1.0 / stderr[k] ** 2 for k in BELL_KINDS}
        pooled = sum(weights[k] * means[k] for k in BELL_KINDS) / sum(weights.values())
        for kind in BELL_KINDS:
            gap = abs(means[kind] - pooled)
            assert gap <= 2.0 * stderr[kind], f"lambda_{method}({kind}): gap {gap:.2e} > 2 SE {2 * stderr[kind]:.2e}"
    # contrast: a fixed witness is basis dependent; it flags exactly one
    # Bell state (the singlet) while the channel routes flag all four
    q = bell_vector("phi+").projector()
    values = {k: witness_expectation(bell(k), q) for k in BELL_KINDS}
    detected = {k for k, v in values.items() if v < 0}
    assert detected == {"psi-"}, f"witness detections {detected}"
    assert min(values.values()) < 0 < max(values.values())
    report("criterion 8: basis independence vs witness contrast", time.perf_counter() - start)


def test_criterion_09_tomography_roundtrip():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    states = [bell(k) for k in BELL_KINDS] + [werner(0.3)] + [random_density_matrix(rng) for _ in range(10)]
    for rho in states:
        assert np.max(np.abs(qst_linear_inversion(pauli_expectations(rho)) - rho.mat)) < 1e-10
    cfg = ShotConfig(shots_per_setting=SHOTS, seed=5)
    worst = 1.0
    for kind in BELL_KINDS:
        rho = bell(kind)
        rec = project_to_physical(qst_linear_inversion(sample_pauli_expectations(rho, cfg)))
        fid = fidelity(rec, rho)
        assert fid > 0.99, f"sampled tomography fidelity {fid:.4f} for {kind}"
        worst = min(worst, fid)
    report("criterion 9: tomography round trip and sampled fidelity", time.perf_counter() - start, f"worst {worst:.4f}")


def test_criterion_10_benchmark_sweep_dataset(tmp_path):
    start = time.perf_counter()
    path = tmp_path / "fig3.csv"
    assert cli_main(["fig3", "--shots", str(SHOTS), "--seed", "42", "--format", "csv", "--out", str(path)]) == 0
    with open(path, "r", encoding="utf-8", newline="") as fp:
        rows = list(csv.DictReader(fp))
    nine = [row for row in rows if row["family"] == "rho_family"]
    assert len(nine) == 9
    for row in rows:
        has_tangle = float(row["tangle"]) > 1e-12
        assert (row["verdict"] == "entangled") == has_tangle, f"verdict mismatch at {row['family']} p={row['p']}"
        assert abs(float(row["lambda_d_sampled"]) - float(row["lambda_d_ideal"])) < 0.01
    report("criterion 10: benchmark sweep dataset", time.perf_counter() - start, f"{len(rows)} rows")
