"""Measurement modeling: ideal tables, finite-shot sampling, trajectory
simulation of the channel realization, and linear-inversion tomography."""

import numpy as np
import pytest

from spapt import tomography
from spapt.linalg import PAULIS, ValidationError, herm_eig
from spapt.states import BELL_KINDS, DensityMatrix, bell, fidelity, random_density_matrix, werner
from spapt.channels import apply, spa_pt, tetrahedral_povm, tetrahedral_states
from spapt.tomography import (
    ProbabilityTable,
    ShotConfig,
    ideal_probabilities,
    pauli_expectations,
    project_to_physical,
    qst_linear_inversion,
    sample_pauli_expectations,
    sample_table,
    tomo_basis,
    trajectory_branch_counts,
    trajectory_spa_pt,
)

MAXIMALLY_MIXED = DensityMatrix(np.eye(4, dtype=complex) / 4.0)


def test_tomo_basis_projector_sum():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    acc = sum(t.projector() for t in tomo_basis())
    assert np.max(np.abs(acc - (2.0 * np.eye(2) + (sx + sy) / 2.0))) < 1e-12


def test_tomo_basis_gram_is_nonsingular():
    projectors = [t.projector() for t in tomo_basis()]
    gram = np.array([[np.real(np.trace(a @ b)) for b in projectors] for a in projectors])
    assert abs(np.linalg.det(gram)) > 1e-3


def test_tomo_basis_plus_zero_overlap():
    basis = tomo_basis()
    assert abs(abs(np.vdot(basis[2].amplitudes, basis[0].amplitudes)) ** 2 - 0.5) < 1e-12


def test_ideal_probabilities_of_maximally_mixed_state():
    table = ideal_probabilities(MAXIMALLY_MIXED)
    assert np.max(np.abs(table.p - 0.125)) < 1e-12
    assert np.max(np.abs(table.q - 0.125)) < 1e-12
    assert np.max(np.abs(table.r - 0.125)) < 1e-12
    assert table.shots_per_setting == 0


def test_ideal_probabilities_complete_on_bell_state():
    table = ideal_probabilities(bell("phi+"))
    assert abs(table.q.sum() + table.r.sum() - 1.0) < 1e-12


def test_ideal_tables_are_complete_for_random_states():
    rng = np.random.default_rng(40)
    for _ in range(10):
        table = ideal_probabilities(random_density_matrix(rng))
        assert abs(table.q.sum() + table.r.sum() - 1.0) < 1e-9
        assert np.all(table.p.sum(axis=1) <= 1.0 + 1e-9)


def test_ideal_probabilities_of_product_state():
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    table = ideal_probabilities(DensityMatrix(ket00))
    for k, v in enumerate(tetrahedral_states()):
        effect = np.outer(v.amplitudes.conj(), v.amplitudes) / 2.0
        assert abs(table.q[k] - np.real(effect[0, 0])) < 1e-12
        assert abs(table.r[k]) < 1e-12


def test_sample_table_converges_to_ideal():
    rho = bell("phi+")
    ideal = ideal_probabilities(rho)
    for seed in range(10):
        table = sample_table(rho, ShotConfig(shots_per_setting=10**6, seed=42 + seed))
        dev = max(
            float(np.max(np.abs(table.p - ideal.p))),
            float(np.max(np.abs(table.q - ideal.q))),
            float(np.max(np.abs(table.r - ideal.r))),
        )
        assert dev < 5e-3


def test_sample_table_is_deterministic():
    rho = werner(0.4)
    cfg = ShotConfig(shots_per_setting=10000, seed=1234)
    a = sample_table(rho, cfg)
    b = sample_table(rho, cfg)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.r, b.r)


def test_sampled_q_and_r_sum_to_one_exactly():
    rng = np.random.default_rng(41)
    for seed in range(5):
        rho = random_density_matrix(rng)
        table = sample_table(rho, ShotConfig(shots_per_setting=1000, seed=seed))
        assert abs(table.q.sum() + table.r.sum() - 1.0) < 1e-15


def test_zero_shots_are_rejected():
    with pytest.raises(ValidationError):
        ShotConfig(shots_per_setting=0, seed=1)


def test_oversized_shot_count_is_rejected():
    ShotConfig(shots_per_setting=2**63 - 1, seed=1)
    with pytest.raises(ValidationError, match="64-bit"):
        ShotConfig(shots_per_setting=2**63, seed=1)


@pytest.mark.parametrize("shots, seed", [(1.5, 3), (100, 3.7), (100.0, 3), (True, 3), (100, False), (np.bool_(True), 3)])
def test_non_integer_shots_and_seeds_are_rejected_not_truncated(shots, seed):
    with pytest.raises(ValidationError, match="integer"):
        ShotConfig(shots_per_setting=shots, seed=seed)


def test_probability_table_rejects_a_non_integer_shot_count():
    good = ideal_probabilities(bell("phi+"))
    for shots in (2.5, True, -1):
        with pytest.raises(ValidationError, match="shots_per_setting must be a nonnegative integer"):
            ProbabilityTable(good.p, good.q, good.r, shots)
    assert ProbabilityTable(good.p, good.q, good.r, np.int64(7)).shots_per_setting == 7
    assert ShotConfig(np.int64(5), np.uint64(2**64 - 1)) == ShotConfig(5, 2**64 - 1)


@pytest.mark.parametrize("leak", [0.0, 1e-7])
def test_trajectory_never_draws_zero_weight_outcomes(leak):
    # B is orthogonal (up to a Born weight of leak^2 / 2 <= 1e-14) to effect 0
    # on B; with 10^15 runs a category of that weight would be drawn if it
    # were sampled at all
    v0 = tetrahedral_states()[0].amplitudes.conj()
    b = np.array([-v0[1].conj(), v0[0].conj()]) + leak * v0
    b /= np.linalg.norm(b)
    rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), np.outer(b, b.conj())))
    cfg = ShotConfig(shots_per_setting=10**15, seed=5)
    n1, n2 = trajectory_branch_counts(rho, cfg)
    assert n1 + n2 == 10**15
    out = trajectory_spa_pt(rho, cfg)
    assert fidelity(out, apply(spa_pt(), rho)) >= 0.999


def test_trajectory_converges_to_exact_channel_output():
    channel = spa_pt()
    cfg = ShotConfig(shots_per_setting=10**6, seed=7)
    for kind in BELL_KINDS:
        rho = bell(kind)
        fid = fidelity(trajectory_spa_pt(rho, cfg), apply(channel, rho))
        assert fid >= 0.999


def test_trajectory_output_has_unit_trace():
    out = trajectory_spa_pt(bell("psi+"), ShotConfig(shots_per_setting=1000, seed=3))
    assert abs(np.trace(out.mat) - 1.0) < 1e-12


def test_trajectory_branch_frequencies():
    n = 10**5
    sigma = np.sqrt((1.0 / 3.0) * (2.0 / 3.0) / n)
    for seed in range(5):
        n1, n2 = trajectory_branch_counts(bell("phi+"), ShotConfig(shots_per_setting=n, seed=seed))
        assert n1 + n2 == n
        assert abs(n1 / n - 1.0 / 3.0) <= 3.0 * sigma


def test_trajectory_is_deterministic():
    cfg = ShotConfig(shots_per_setting=5000, seed=99)
    a = trajectory_spa_pt(bell("phi-"), cfg)
    b = trajectory_spa_pt(bell("phi-"), cfg)
    assert np.array_equal(a.mat, b.mat)


def test_pauli_expectations_of_bell_state():
    e = pauli_expectations(bell("phi+"))
    assert abs(e[0, 0] - 1.0) < 1e-12
    assert abs(e[1, 1] - 1.0) < 1e-12  # <XX>
    assert abs(e[2, 2] + 1.0) < 1e-12  # <YY>
    assert abs(e[3, 3] - 1.0) < 1e-12  # <ZZ>
    assert abs(e[1, 0]) < 1e-12


def test_linear_inversion_round_trips_exact_expectations():
    rng = np.random.default_rng(42)
    states = [bell("psi+"), werner(0.3)] + [random_density_matrix(rng) for _ in range(5)]
    for rho in states:
        assert np.max(np.abs(qst_linear_inversion(rho) - rho.mat)) < 1e-10
        assert np.max(np.abs(qst_linear_inversion(pauli_expectations(rho)) - rho.mat)) < 1e-10


def test_linear_inversion_rejects_incomplete_expectations():
    with pytest.raises(ValidationError):
        qst_linear_inversion(np.ones((3, 3)))


def test_linear_inversion_rejects_non_finite_expectations():
    e = pauli_expectations(werner(0.3))
    e[1, 2] = np.nan
    with pytest.raises(ValidationError, match="finite"):
        qst_linear_inversion(e)


def test_linear_inversion_rejects_expectations_without_unit_trace():
    with pytest.raises(ValidationError, match="trace"):
        qst_linear_inversion(np.zeros((4, 4)))
    e = pauli_expectations(werner(0.3))
    e[0, 0] = 1.0 + 1e-6
    with pytest.raises(ValidationError, match="trace"):
        qst_linear_inversion(e)


def _per_effect_born(rho, left, right):
    """Reference Born table, one np.kron product and trace per entry."""
    return np.array([[np.real(np.trace(rho.mat @ np.kron(a, b))) for b in right] for a in left])


def test_stacked_born_tables_equal_the_per_effect_products_bit_for_bit():
    rng = np.random.default_rng(2024)
    projectors = [t.projector() for t in tomo_basis()]
    effects = tetrahedral_povm()
    kets = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    for n in range(200):
        rho = random_density_matrix(rng, 1 + n % 4)
        table = ideal_probabilities(rho)
        qr = np.clip(_per_effect_born(rho, effects, kets), 0.0, 1.0)
        assert np.array_equal(table.p, np.clip(_per_effect_born(rho, projectors, effects), 0.0, 1.0))
        assert np.array_equal(table.q, qr[:, 0]) and np.array_equal(table.r, qr[:, 1])
        assert np.array_equal(pauli_expectations(rho), _per_effect_born(rho, PAULIS, PAULIS))


def test_both_tables_from_one_born_evaluation_equal_the_public_ones_bit_for_bit():
    states = random_density_matrix(np.random.default_rng(61), count=5)
    cfg = ShotConfig(shots_per_setting=1000, seed=9)
    ideal, sampled = tomography._ideal_and_sampled_tables(states, cfg)
    for got, want in ((ideal, ideal_probabilities(states)), (sampled, sample_table(states, cfg))):
        assert got.shots_per_setting == want.shots_per_setting
        assert all(np.array_equal(getattr(got, name), getattr(want, name)) for name in "pqr")


def test_sampled_tomography_reaches_high_fidelity():
    cfg = ShotConfig(shots_per_setting=10**5, seed=5)
    for kind in BELL_KINDS:
        rho = bell(kind)
        raw = qst_linear_inversion(sample_pauli_expectations(rho, cfg))
        rec = project_to_physical(raw)
        assert fidelity(rec, rho) > 0.99


def test_sampled_expectations_are_deterministic():
    cfg = ShotConfig(shots_per_setting=2000, seed=17)
    a = sample_pauli_expectations(bell("phi+"), cfg)
    b = sample_pauli_expectations(bell("phi+"), cfg)
    assert np.array_equal(a, b)


def test_project_to_physical_fixes_valid_states():
    rng = np.random.default_rng(43)
    for _ in range(5):
        rho = random_density_matrix(rng)
        assert np.max(np.abs(project_to_physical(rho.mat).mat - rho.mat)) < 1e-12


def test_project_to_physical_clips_and_redistributes():
    raw = np.diag([1.1, 0.2, -0.2, -0.1]).astype(complex)
    projected = project_to_physical(raw)
    # oracle: hand-executed clip-and-redistribute; the deficit -0.3 splits
    # uniformly over the two remaining positive eigenvalues
    assert np.max(np.abs(projected.mat - np.diag([0.95, 0.05, 0.0, 0.0]))) < 1e-12
    # independent oracle: Euclidean projection of the spectrum onto the
    # probability simplex (nearest unit-trace PSD spectrum in 2-norm)
    lam = np.array([1.1, 0.2, -0.2, -0.1])
    u = np.sort(lam)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, 5)
    rho_k = k[u - (css - 1.0) / k > 0].max()
    theta = (css[rho_k - 1] - 1.0) / rho_k
    simplex = np.maximum(lam - theta, 0.0)
    assert np.max(np.abs(np.diag(projected.mat).real - simplex)) < 1e-12


def test_project_to_physical_output_is_always_valid():
    rng = np.random.default_rng(44)
    for _ in range(20):
        rho = random_density_matrix(rng)
        noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        noise = (noise + noise.conj().T) / 2.0
        noise -= np.trace(noise) * np.eye(4) / 4.0  # keep the trace at 1
        raw = rho.mat + 5e-2 * noise / np.max(np.abs(noise)) * 1e-3
        projected = project_to_physical(raw)
        assert herm_eig(projected.mat).values[0] >= -1e-12
        assert abs(np.trace(projected.mat) - 1.0) < 1e-12


def test_project_to_physical_rejects_bad_input():
    with pytest.raises(ValidationError):
        project_to_physical(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValidationError):
        project_to_physical(np.eye(4, dtype=complex))  # trace 4
    with pytest.raises(ValidationError, match="one square matrix"):
        project_to_physical(np.array([np.eye(4, dtype=complex) / 4.0] * 3))


def test_probability_table_validation():
    good = ideal_probabilities(bell("phi+"))
    with pytest.raises(ValidationError):
        ProbabilityTable(good.p * 3.0, good.q, good.r, 0)
    with pytest.raises(ValidationError):
        ProbabilityTable(good.p, good.q, np.array([0.5, 0.5, 0.5, 0.5]), 0)
    with pytest.raises(ValidationError):
        ProbabilityTable(np.zeros((2, 2)), good.q, good.r, 0)
    # the all-zero table stays constructible (linearity fixture)
    ProbabilityTable(np.zeros((4, 4)), np.zeros(4), np.zeros(4), 0)


def test_probability_table_rejects_non_finite_entries():
    good = ideal_probabilities(bell("phi+"))
    with pytest.raises(ValidationError, match="finite"):
        ProbabilityTable(np.full((4, 4), np.nan), good.q, good.r, 0)
    with pytest.raises(ValidationError, match="finite"):
        ProbabilityTable(good.p, np.array([np.inf, 0.0, 0.0, 0.0]), good.r, 0)
