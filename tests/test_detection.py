"""Detection routes: the table-reconstructed operator, its minimum
eigenvalue by two methods, verdicts, and the witness baseline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spapt import detection, linalg
from spapt.linalg import ValidationError, herm_eig, partial_transpose
from spapt.states import BELL_KINDS, DensityMatrix, bell, bell_vector, mems, random_density_matrix, werner
from spapt.channels import apply, spa_pt
from spapt.tomography import ProbabilityTable, ShotConfig, ideal_probabilities, sample_table
from spapt.detection import (
    PPT_THRESHOLD,
    SPA_THRESHOLD,
    FHatOperator,
    detect,
    f_hat,
    lambda_min_d,
    lambda_min_det_scan,
    witness_expectation,
)
from test_states import haar_unitary

KET00 = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))


def test_f_hat_of_maximally_mixed_state_is_psd():
    op = f_hat(ideal_probabilities(DensityMatrix(np.eye(4, dtype=complex) / 4.0)))
    assert np.max(np.abs(op.mat - op.mat.conj().T)) < 1e-12
    assert herm_eig(op.mat).values[0] >= -1e-10


def test_f_hat_of_zero_table_is_zero():
    table = ProbabilityTable(np.zeros((4, 4)), np.zeros(4), np.zeros(4), 0)
    assert np.max(np.abs(f_hat(table).mat)) < 1e-15


def test_f_hat_is_linear_in_the_table():
    rng = np.random.default_rng(51)
    a = ideal_probabilities(random_density_matrix(rng))
    b = ideal_probabilities(random_density_matrix(rng))
    mix = ProbabilityTable(0.5 * (a.p + b.p), 0.5 * (a.q + b.q), 0.5 * (a.r + b.r), 0)
    combined = 0.5 * f_hat(a).mat + 0.5 * f_hat(b).mat
    assert np.max(np.abs(f_hat(mix).mat - combined)) < 1e-12


def test_f_hat_ideal_equals_channel_output():
    rng = np.random.default_rng(52)
    channel = spa_pt()
    states = [bell(k) for k in BELL_KINDS] + [werner(0.4)] + [random_density_matrix(rng) for _ in range(10)]
    for rho in states:
        reconstructed = f_hat(ideal_probabilities(rho)).mat
        assert np.max(np.abs(reconstructed - apply(channel, rho).mat)) < 1e-10


def test_f_hat_equal_for_all_bell_states():
    lams = [lambda_min_d(f_hat(ideal_probabilities(bell(k)))) for k in BELL_KINDS]
    assert max(lams) - min(lams) < 1e-10
    assert all(abs(lam - 1.0 / 6.0) < 1e-10 for lam in lams)


def test_f_hat_stays_psd_on_sampled_tables():
    for seed in range(5):
        table = sample_table(bell("psi+"), ShotConfig(shots_per_setting=10**5, seed=seed))
        assert herm_eig(f_hat(table).mat).values[0] >= -1e-10


def test_lambda_min_d_of_zero_operator():
    table = ProbabilityTable(np.zeros((4, 4)), np.zeros(4), np.zeros(4), 0)
    assert lambda_min_d(f_hat(table)) == 0.0


def test_separable_input_sits_above_bell_input():
    lam_sep = lambda_min_d(f_hat(ideal_probabilities(KET00)))
    lam_bell = lambda_min_d(f_hat(ideal_probabilities(bell("phi+"))))
    assert lam_sep >= lam_bell


def test_det_scan_agrees_with_eigensolver():
    rng = np.random.default_rng(53)
    for seed in range(10):
        rho = random_density_matrix(rng)
        table = sample_table(rho, ShotConfig(shots_per_setting=5000, seed=seed))
        op = f_hat(table)
        assert abs(lambda_min_det_scan(op) - lambda_min_d(op)) < 1e-8


def test_det_scan_matches_eigensolver_on_dense_states_at_every_shot_budget():
    rng = np.random.default_rng(71)
    for shots in (10**4, 10**5, 10**6, 10**7):
        for seed in range(3):
            op = f_hat(sample_table(random_density_matrix(rng), ShotConfig(shots_per_setting=shots, seed=seed)))
            assert abs(lambda_min_det_scan(op) - lambda_min_d(op)) < 1e-10


def _random_product_state(rng):
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
    return DensityMatrix(np.outer(v, v.conj()))


def test_det_scan_is_exact_at_the_triple_root_of_product_states():
    # f_hat of a pure product state has eigenvalue 2/9 three times: the separable boundary
    rng = np.random.default_rng(58)
    for _ in range(200):
        op = f_hat(ideal_probabilities(_random_product_state(rng)))
        assert abs(lambda_min_det_scan(op) - lambda_min_d(op)) < 1e-14


def test_det_scan_finds_the_4_fold_root_of_the_maximally_mixed_state():
    # f_hat of I/4 is I/4: det(F - kappa I) keeps its sign at the 4-fold root, the count of eigenvalues below kappa jumps by 4
    op = f_hat(ideal_probabilities(DensityMatrix(np.eye(4, dtype=complex) / 4.0)))
    assert abs(lambda_min_det_scan(op) - 0.25) < 1e-14


def test_det_scan_finds_the_double_root_below_a_simple_one():
    # f_hat = diag(0.6, 0.4, 0, 0)/9 + (2/9) I has the double root 2/9 below 0.2444 and 0.2889
    op = f_hat(ideal_probabilities(DensityMatrix(np.diag([0.6, 0.4, 0.0, 0.0]).astype(complex))))
    assert abs(lambda_min_det_scan(op) - 2.0 / 9.0) < 1e-14


def test_det_scan_agrees_with_eigensolver_at_a_doubled_minimum():
    # rho = PT(sigma) for sigma with spectrum (0.2, 0.2, 0.28, 0.32) in a Haar basis: PT(rho) = sigma,
    # and rho is a state since ||PT(sigma - I/4)|| <= ||sigma - I/4||_F = 0.104 < 1/4
    rng = np.random.default_rng(59)
    u = haar_unitary(rng, 4)
    sigma = (u * np.array([0.2, 0.2, 0.28, 0.32])) @ u.conj().T
    rho = DensityMatrix(partial_transpose((sigma + sigma.conj().T) / 2.0))
    op = f_hat(ideal_probabilities(rho))
    assert abs(lambda_min_d(op) - (0.2 + 2.0) / 9.0) < 1e-14
    assert abs(lambda_min_det_scan(op) - lambda_min_d(op)) < 1e-14


@st.composite
def spectra_with_a_repeated_minimum(draw):
    """Four eigenvalues whose minimum occurs 1 to 4 times, scaled so that max |lambda| lies in [1e-3, 1e3]."""
    times = draw(st.integers(1, 4))
    lowest = draw(st.floats(-1.0, 1.0))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=4 - times, max_size=4 - times))
    lam = np.array([lowest] * times + [lowest + gap for gap in gaps])
    top = float(np.max(np.abs(lam)))
    return lam / top * draw(st.floats(1e-3, 1e3)) if top > 0.0 else lam


@settings(derandomize=True, max_examples=200, deadline=None)
@given(spectra_with_a_repeated_minimum(), st.integers(0, 2**32 - 1))
def test_det_scan_agrees_with_eigensolver_at_every_multiplicity(lam, seed):
    u = haar_unitary(np.random.default_rng(seed), 4)
    m = (u * lam) @ u.conj().T
    op = FHatOperator((m + m.conj().T) / 2.0)
    assert abs(lambda_min_det_scan(op) - lambda_min_d(op)) <= 1e-13 * float(np.max(np.abs(lam)))


def test_det_scan_of_the_zero_operator_stops_within_60_steps(monkeypatch):
    # each step subtracts kappa from the first diagonal entry once, and the
    # Gershgorin bound once more; without the floor on the bracket width the
    # zero operator would be halved about 1,000 times into the subnormals
    subtractions = []

    class Counted(float):
        def __sub__(self, other):
            subtractions.append(other)
            return float(self) - other

    reduce = detection._tridiagonal

    def counted_reduce(m):
        diag, off_sq = reduce(m)
        return [Counted(diag[0])] + diag[1:], off_sq

    monkeypatch.setattr(detection, "_tridiagonal", counted_reduce)
    assert lambda_min_det_scan(FHatOperator(np.zeros((4, 4)))) == 0.0
    assert 1 < len(subtractions) <= 61


def _counting(module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    return counted


def test_det_scan_calls_no_determinant_or_eigensolver(monkeypatch):
    op = f_hat(sample_table(werner(0.5), ShotConfig(shots_per_setting=10**5, seed=3)))
    calls = []
    for name in ("det", "eigh", "eigvalsh", "eig"):
        monkeypatch.setattr(np.linalg, name, _counting(np.linalg, name, calls))
    monkeypatch.setattr(linalg, "_eigh", _counting(linalg, "_eigh", calls))
    lambda_min_det_scan(op)
    assert calls == []


def test_detect_singlet_with_spa_spectrum():
    verdict = detect(bell("psi-"), "spa_spectrum")
    assert abs(verdict.lambda_min - 1.0 / 6.0) < 1e-10
    assert verdict.threshold == SPA_THRESHOLD
    assert verdict.verdict == "entangled"
    assert verdict.margin == pytest.approx(SPA_THRESHOLD - 1.0 / 6.0, abs=1e-10)


def test_detect_product_state_is_undetected():
    verdict = detect(KET00, "spa_spectrum")
    assert abs(verdict.lambda_min - SPA_THRESHOLD) < 1e-10
    assert verdict.verdict == "undetected"
    ppt = detect(KET00, "ppt")
    assert abs(ppt.lambda_min - PPT_THRESHOLD) < 1e-10
    assert ppt.verdict == "undetected"


def test_separable_boundary_states_are_undetected_by_every_route():
    # lambda sits on the threshold exactly; rounding noise must not decide the verdict
    rng = np.random.default_rng(57)
    states = [werner(2.0 / 3.0), mems(0.0)] + [_random_product_state(rng) for _ in range(100)]
    for rho in states:
        for method in ("ppt", "spa_spectrum", "f_hat"):
            assert detect(rho, method).verdict == "undetected"


def test_detect_werner_flips_at_two_thirds():
    for p in np.linspace(0.0, 1.0, 21):
        expected = "entangled" if p < 2.0 / 3.0 else "undetected"
        ppt = detect(werner(p), "ppt")
        spa = detect(werner(p), "spa_spectrum")
        ideal = detect(werner(p), "f_hat")
        assert ppt.verdict == expected
        assert spa.verdict == expected
        assert ideal.verdict == expected
        assert abs(spa.lambda_min - (p + 2.0) / 12.0) < 1e-10
    assert detect(werner(2.0 / 3.0), "spa_spectrum").verdict == "undetected"
    assert detect(werner(2.0 / 3.0 - 1e-6), "spa_spectrum").verdict == "entangled"


def test_detect_accepts_sampled_tables():
    table = sample_table(bell("phi+"), ShotConfig(shots_per_setting=10**5, seed=8))
    verdict = detect(table, "f_hat")
    assert verdict.shots == 10**5
    assert verdict.verdict == "entangled"
    assert abs(verdict.lambda_min - 1.0 / 6.0) < 0.01


def test_f_hat_verdicts_of_tables_at_their_bounds_solve_without_a_second_gate():
    # entries at the table's bounds -1e-12 and 1 + 1e-9 still give exactly Hermitian
    # operators, each its own Hermitian part to the bit, so the verdict's solve, which
    # forms the Hermitian part of the unsymmetrized f_hat matrix once, is the operator's
    low, high = -1e-12, 1.0 + 1e-9
    p, q, r = np.zeros((3, 4, 4)), np.zeros((3, 4)), np.zeros((3, 4))
    p[0, :, :2] = high, low
    q[0, :2], r[0, 0] = (high, low), low
    p[1], q[1], r[1] = low, low, (0.5, 0.5, 0.0, low)
    ideal = ideal_probabilities(bell("phi+"))
    p[2], q[2], r[2] = ideal.p, ideal.q, ideal.r
    p[2, 3, 3], q[2, 3] = low, low
    sampled = sample_table(random_density_matrix(np.random.default_rng(24), count=40), ShotConfig(1000, 24))
    p, q, r = np.concatenate([p, sampled.p]), np.concatenate([q, sampled.q]), np.concatenate([r, sampled.r])
    verdicts = detect(ProbabilityTable(p, q, r, 1000), "f_hat")
    assert (verdicts.method, verdicts.threshold, verdicts.shots) == ("f_hat", SPA_THRESHOLD, 1000)
    for k in range(len(p)):
        one = ProbabilityTable(p[k], q[k], r[k], 1000)
        mat = f_hat(one).mat
        assert np.array_equal(mat, linalg.dag(mat))
        assert ((mat + linalg.dag(mat)) / 2.0).tobytes() == mat.tobytes()
        single = detect(one, "f_hat")
        assert verdicts.lambda_min[k] == lambda_min_d(f_hat(one)) == single.lambda_min
        assert (verdicts.verdict[k], verdicts.margin[k]) == (single.verdict, single.margin)


def test_detect_rejects_unknown_method():
    with pytest.raises(ValidationError):
        detect(bell("phi+"), "negativity")
    with pytest.raises(ValidationError):
        detect(ideal_probabilities(bell("phi+")), "ppt")


def test_verdict_equivalence_of_ppt_and_spa_routes():
    rng = np.random.default_rng(54)
    for _ in range(200):
        rho = random_density_matrix(rng)
        ppt = detect(rho, "ppt")
        spa = detect(rho, "spa_spectrum")
        assert ppt.verdict == spa.verdict
        assert abs(spa.lambda_min - (ppt.lambda_min / 9.0 + 2.0 / 9.0)) < 1e-10


def test_spa_lambda_range():
    rng = np.random.default_rng(55)
    for _ in range(100):
        lam = detect(random_density_matrix(rng), "spa_spectrum").lambda_min
        assert 1.0 / 6.0 - 1e-10 <= lam <= 0.25 + 1e-12


def test_sampled_f_hat_mean_matches_ideal():
    for rho in (bell("phi+"), werner(0.5)):
        ideal = lambda_min_d(f_hat(ideal_probabilities(rho)))
        sampled = [
            lambda_min_d(f_hat(sample_table(rho, ShotConfig(shots_per_setting=10**5, seed=seed))))
            for seed in range(50)
        ]
        assert abs(float(np.mean(sampled)) - ideal) < 0.01


def test_witness_expectations_on_bell_states():
    # oracle values: (1 x T)(|phi+><phi+|) is SWAP/2, whose expectation is
    # +1/2 on the symmetric Bell states and -1/2 on the singlet
    q = bell_vector("phi+").projector()
    values = {k: witness_expectation(bell(k), q) for k in BELL_KINDS}
    assert values["psi-"] == pytest.approx(-0.5, abs=1e-12)
    for kind in ("phi+", "phi-", "psi+"):
        assert values[kind] == pytest.approx(0.5, abs=1e-12)
    # the sign flips across Bell inputs: the witness is basis dependent,
    # unlike the channel spectrum routes
    assert min(values.values()) < 0 < max(values.values())


def test_witness_on_maximally_mixed_state():
    q = bell_vector("phi+").projector()
    expected = float(np.real(np.trace(partial_transpose(q)))) / 4.0
    value = witness_expectation(DensityMatrix(np.eye(4, dtype=complex) / 4.0), q)
    assert value == pytest.approx(expected, abs=1e-12)
    assert value >= 0.0


def test_witness_rejects_non_projectors():
    with pytest.raises(ValidationError):
        witness_expectation(bell("phi+"), np.eye(4, dtype=complex))
    with pytest.raises(ValidationError):
        witness_expectation(bell("phi+"), np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValidationError, match=r"^expected a 4x4 projector, got \(2, 2\)$"):
        witness_expectation(bell("phi+"), np.diag([1.0, 0.0]))


@pytest.mark.parametrize("eps, refused", [(1e-6, True), (1e-11, False)], ids=["defect-1e-6", "defect-1e-11"])
def test_witness_refuses_a_q_whose_idempotence_defect_exceeds_1e_9(eps, refused):
    # Hermitian with trace 1, and max |Q^2 - Q| is eps to first order
    q = bell_vector("phi+").projector() + eps * np.diag([0.0, 1.0, -1.0, 0.0])
    if refused:
        with pytest.raises(ValidationError, match="Q must be idempotent"):
            witness_expectation(bell("phi+"), q)
    else:
        assert witness_expectation(bell("phi+"), q) == pytest.approx(0.5, abs=1e-10)
