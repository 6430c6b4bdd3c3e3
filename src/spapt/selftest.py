"""End-to-end invariant suites behind the ``selftest`` subcommand.

Each suite asserts one documented invariant of the library with fixed
seeds; the runner times them and prints one PASS/FAIL line per suite.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .linalg import herm_eig, partial_transpose
from .states import (
    BELL_KINDS,
    DensityMatrix,
    bell,
    bell_vector,
    fidelity,
    random_density_matrix,
    werner,
)
from .channels import (
    SPA_PT_INSTRUMENT,
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
from .tomography import (
    ShotConfig,
    ideal_probabilities,
    pauli_expectations,
    qst_linear_inversion,
    sample_table,
    trajectory_spa_pt,
)
from .detection import SPA_THRESHOLD, detect, f_hat, lambda_min_d, witness_expectation

__all__ = ["SUITES", "run_all"]


def _suite_superoperator_decomposition_identity(seed: int) -> None:
    actual = spa_pt().superoperator()
    expected = partial_transpose_channel().mat / 9.0 + (8.0 / 9.0) * replace_channel(4).mat
    dev = float(np.max(np.abs(actual - expected)))
    assert dev < EXACT_BOUND, f"decomposition identity deviates by {dev:.3e}"


def _suite_channel_physicality(seed: int) -> None:
    for name, ch in (
        ("spa_pt", spa_pt()),
        ("spa_transpose", spa_transpose()),
        ("spa_inversion", spa_inversion()),
        ("depolarize", depolarize()),
    ):
        assert is_cp(ch), f"{name} is not completely positive"
        assert is_tp(ch), f"{name} is not trace preserving"
    lam = herm_eig(choi(partial_transpose_channel()).mat).values[0]
    assert abs(lam + 0.5) <= CHOI_EIG_BOUND, f"raw partial transpose Choi min eigenvalue {lam} != -1/2"


def _suite_povm_completeness(seed: int) -> None:
    for branch in SPA_PT_INSTRUMENT:
        for name, side in zip("AB", branch.sides):
            if side.povm:
                dev = float(np.max(np.abs(sum(side.povm) - np.eye(2))))
                assert dev < EXACT_BOUND, f"{name}-side branch effects sum deviates from identity by {dev:.3e}"


def _suite_measure_prepare_closed_form(seed: int) -> None:
    rng = np.random.default_rng([seed, 10])
    transpose_approx = spa_transpose()
    inversion_approx = spa_inversion()
    eye = np.eye(2, dtype=complex)
    worst = 0.0
    for _ in range(1000):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        expect_t = rho.T / 3.0 + (2.0 / 3.0) * np.trace(rho) * eye / 2.0
        expect_inv = (2.0 / 3.0) * np.trace(rho) * eye - rho / 3.0
        worst = max(worst, float(np.max(np.abs(transpose_approx.apply_matrix(rho) - expect_t))))
        worst = max(worst, float(np.max(np.abs(inversion_approx.apply_matrix(rho) - expect_inv))))
    assert worst < EXACT_BOUND, f"measure-and-prepare closed form deviates by {worst:.3e}"


def _channel_spectra(states) -> np.ndarray:
    """Output spectra of the spa_pt superoperator applied to a stack of states:
    the certificate of the closed form that detect reads."""
    return herm_eig(spa_pt().apply_matrix(states.mat)).values


def _suite_verdict_equivalence(seed: int) -> None:
    states = random_density_matrix(np.random.default_rng([seed, 11]), count=1000)
    ppt = detect(states, "ppt")
    spa = detect(states, "spa_spectrum")
    assert all(a.verdict == b.verdict for a, b in zip(ppt, spa)), "ppt and spa_spectrum verdicts disagree"
    spec_pt = herm_eig(partial_transpose(states.mat)).values
    spec_spa = _channel_spectra(states)
    dev = float(np.max(np.abs(spec_spa - (spec_pt / 9.0 + 2.0 / 9.0))))
    assert dev < EXACT_BOUND, f"affine spectrum law deviates by {dev:.3e}"
    dev = float(np.max(np.abs(np.array([v.lambda_min for v in spa]) - spec_spa[:, 0])))
    assert dev < EXACT_BOUND, f"spa_spectrum deviates from the channel output by {dev:.3e}"


def _suite_spa_range_law(seed: int) -> None:
    rng = np.random.default_rng([seed, 12])
    mixed = random_density_matrix(rng, count=200)
    products = []
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
        products.append(np.outer(v, v.conj()))
    bells = [bell_vector(kind).projector() for kind in BELL_KINDS]
    # (states, range their output min eigenvalues must lie in, what fails otherwise)
    for states, low, high, failure in (
        (mixed, 1.0 / 6.0 - EXACT_BOUND, 0.25 + ROUND_BOUND, "mixed state outside [1/6, 1/4]"),
        (DensityMatrix(bells), 1.0 / 6.0 - EXACT_BOUND, 1.0 / 6.0 + EXACT_BOUND, "Bell state does not attain 1/6"),
        (DensityMatrix(products), SPA_THRESHOLD - EXACT_BOUND, SPA_THRESHOLD + EXACT_BOUND, "pure product input does not attain 2/9"),
    ):
        lam = np.array([v.lambda_min for v in detect(states, "spa_spectrum")])
        bad = np.flatnonzero((lam < low) | (lam > high))
        assert not bad.size, f"{failure}: output min eigenvalue {lam[bad[0]]}"
        dev = float(np.max(np.abs(lam - _channel_spectra(states)[:, 0])))
        assert dev < EXACT_BOUND, f"spa_spectrum deviates from the channel output by {dev:.3e}"


def _suite_bell_basis_independence(seed: int) -> None:
    lams_th = [detect(bell(k), "spa_spectrum").lambda_min for k in BELL_KINDS]
    lams_d = [lambda_min_d(f_hat(ideal_probabilities(bell(k)))) for k in BELL_KINDS]
    assert max(lams_th) - min(lams_th) <= EXACT_BOUND, "spa_spectrum differs across Bell states"
    assert max(lams_d) - min(lams_d) <= EXACT_BOUND, "f_hat differs across Bell states"
    q = bell_vector("phi+").projector()
    expectations = [witness_expectation(bell(k), q) for k in BELL_KINDS]
    assert min(expectations) < 0 < max(expectations), "fixed witness does not change sign across Bell states"


def _suite_tomography_roundtrip(seed: int) -> None:
    rng = np.random.default_rng([seed, 13])
    states = [bell(k) for k in BELL_KINDS] + [werner(0.3)] + [random_density_matrix(rng) for _ in range(5)]
    for rho in states:
        dev = float(np.max(np.abs(qst_linear_inversion(pauli_expectations(rho)) - rho.mat)))
        assert dev < EXACT_BOUND, f"linear inversion round trip deviates by {dev:.3e}"


def _suite_trajectory_convergence(seed: int) -> None:
    channel = spa_pt()
    cfg = ShotConfig(shots_per_setting=100000, seed=seed)
    for kind in BELL_KINDS:
        rho = bell(kind)
        fid = fidelity(trajectory_spa_pt(rho, cfg), apply(channel, rho))
        assert fid >= MIN_TRAJECTORY_FIDELITY, f"trajectory fidelity {fid:.6f} below {MIN_TRAJECTORY_FIDELITY} for {kind}"


def _suite_sampled_detection_stability(seed: int) -> None:
    for rho in (bell("phi+"), werner(0.5)):
        ideal = lambda_min_d(f_hat(ideal_probabilities(rho)))
        sampled = [
            lambda_min_d(f_hat(sample_table(rho, ShotConfig(shots_per_setting=100000, seed=(seed + k) % 2**64))))
            for k in range(50)
        ]
        dev = abs(float(np.mean(sampled)) - ideal)
        assert dev < SAMPLED_MEAN_BOUND, f"sampled detection mean deviates from ideal by {dev:.4f}"


# Assertion bounds of the suites.
#: deviation of a closed-form identity evaluated in a few hundred float operations
EXACT_BOUND = 1e-10
#: eigenvalue error of the 16x16 Choi matrix of the raw partial transpose
CHOI_EIG_BOUND = 1e-9
#: rounding slack at the upper end 1/4 of the output minimum-eigenvalue range
ROUND_BOUND = 1e-12
#: floor on the fidelity of a 1e5-run trajectory average to the exact output
MIN_TRAJECTORY_FIDELITY = 0.999
#: bound on |mean of 50 sampled lambda_d at 1e5 shots - ideal lambda_d|
SAMPLED_MEAN_BOUND = 0.01

SUITES: tuple[tuple[str, Callable[[int], None]], ...] = (
    ("superoperator_decomposition_identity", _suite_superoperator_decomposition_identity),
    ("channel_physicality", _suite_channel_physicality),
    ("povm_completeness", _suite_povm_completeness),
    ("measure_prepare_closed_form", _suite_measure_prepare_closed_form),
    ("verdict_equivalence_1000_states", _suite_verdict_equivalence),
    ("spa_spectrum_range_law", _suite_spa_range_law),
    ("bell_basis_independence", _suite_bell_basis_independence),
    ("tomography_roundtrip", _suite_tomography_roundtrip),
    ("trajectory_convergence", _suite_trajectory_convergence),
    ("sampled_detection_stability", _suite_sampled_detection_stability),
)


def run_all(seed: int = ShotConfig.seed) -> bool:
    """Run every suite; print one line each plus a summary, return overall pass."""
    failures = 0
    total_start = time.perf_counter()
    for name, fn in SUITES:
        start = time.perf_counter()
        try:
            fn(seed)
        except AssertionError as exc:
            failures += 1
            print(f"[FAIL] {name} ({time.perf_counter() - start:.2f} s): {exc}")
        else:
            print(f"[PASS] {name} ({time.perf_counter() - start:.2f} s)")
    print(f"{len(SUITES) - failures}/{len(SUITES)} suites passed in {time.perf_counter() - total_start:.2f} s")
    return failures == 0
