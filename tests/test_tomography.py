"""Measurement modeling: ideal tables, finite-shot sampling, trajectory
simulation of the channel realization, and linear-inversion tomography."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spapt import tomography
from spapt.cli import CHANNEL_FACTORIES
from spapt.linalg import PAULIS, ValidationError, herm_eig
from spapt.states import BELL_KINDS, DensityMatrix, bell, fidelity, mems, random_density_matrix, rho_family, werner
from spapt.channels import IDENTITY_SIDE, SPA_PT_INSTRUMENT, Branch, apply, instrument_channel, spa_pt, tetrahedral_povm, tetrahedral_states
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
    trajectory,
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


_TRANSPOSE_BRANCH, _INVERSION_BRANCH = SPA_PT_INSTRUMENT
_CFG = ShotConfig(shots_per_setting=1000, seed=1)


def test_trajectory_rejects_branch_weights_that_do_not_sum_to_one():
    thirds = (_TRANSPOSE_BRANCH, Branch(Fraction(1, 3), _INVERSION_BRANCH.sides))
    for run in (lambda: trajectory(werner(0.6), thirds, _CFG), lambda: instrument_channel(thirds)):
        with pytest.raises(ValidationError, match="branch weights must sum to 1"):
            run()


def test_trajectory_rejects_branches_on_other_subsystem_dimensions():
    mixed = (Branch(Fraction(1, 2), _TRANSPOSE_BRANCH.sides), Branch(Fraction(1, 2), (IDENTITY_SIDE,)))
    for run in (lambda: trajectory(werner(0.6), mixed, _CFG), lambda: instrument_channel(mixed)):
        with pytest.raises(ValidationError, match="all branches must act on subsystems of the same dimensions"):
            run()


def test_trajectory_rejects_an_entry_that_is_not_a_branch():
    foreign = (_TRANSPOSE_BRANCH, np.eye(4))
    for run in (lambda: trajectory(werner(0.6), foreign, _CFG), lambda: instrument_channel(foreign)):
        with pytest.raises(ValidationError, match="an instrument holds Branch entries only"):
            run()


def test_trajectory_keeps_its_own_instrument_messages():
    with pytest.raises(ValidationError, match="the channel has no local instrument to run"):
        trajectory(werner(0.6), (), _CFG)
    with pytest.raises(ValidationError, match="the instrument acts on dim 2, the state has dim 4"):
        trajectory(werner(0.6), (Branch(1, (IDENTITY_SIDE,)),), _CFG)


#: sha256 prefix of the 9-decimal-rounded trajectory average, as the seed
#: contract hashes spa_pt's, keyed "channel|state|seed|shots"
TRAJECTORY_DIGESTS = json.loads((Path(__file__).with_name("trajectory_digests.json")).read_text())
DIGEST_STATES = {"werner(0.65)": (werner, 0.65), "rho_family(0.25,0.71)": (rho_family, 0.25, 0.71), "mems(0.6)": (mems, 0.6)}


def test_trajectory_digests_cover_the_other_six_channels():
    names = {key.split("|")[0] for key in TRAJECTORY_DIGESTS}
    assert names == set(CHANNEL_FACTORIES) - {"spa_pt"}
    assert len(TRAJECTORY_DIGESTS) == 6 * 3 * 2 * 2


@pytest.mark.parametrize("key", sorted(TRAJECTORY_DIGESTS))
def test_trajectory_of_every_channel_matches_its_recorded_digest(key):
    name, label, seed, shots = key.split("|")
    build, *args = DIGEST_STATES[label]
    cfg = ShotConfig(shots_per_setting=int(shots), seed=int(seed))
    out = trajectory(build(*args), CHANNEL_FACTORIES[name]().instrument, cfg).mat
    out = np.round(np.stack([out.real, out.imag]), 9) + 0.0
    assert hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16] == TRAJECTORY_DIGESTS[key]


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_substreams_are_default_rng_of_seed_tag_and_indices(seed):
    for path in ((tomography._TAG_TABLE, 3), (tomography._TAG_QR,), (tomography._TAG_TRAJ,), (tomography._TAG_PAULI, 1, 3)):
        assert tomography._rng(seed, *path).bit_generator.state == np.random.default_rng([seed, *path]).bit_generator.state


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 3), st.lists(st.integers(0, 2**32 - 1), max_size=3))
def test_substreams_match_default_rng_for_any_seed_and_path(seed, tag, indices):
    assert tomography._rng(seed, tag, *indices).bit_generator.state == np.random.default_rng([seed, tag, *indices]).bit_generator.state


def test_pauli_expectations_are_the_per_setting_default_rng_draws():
    # reference: the per-setting loop, each setting normalized on its own and
    # drawn from default_rng([seed, 3, i, j]) as the README documents
    rho = random_density_matrix(np.random.default_rng(12))
    born = tomography._born_weights(rho.mat, tomography._PAULI_SETTINGS)
    signs = np.array([1.0, -1.0])
    for seed, shots in ((42, 1000), (2**64 - 1, 10**6)):
        counts = [[np.random.default_rng([seed, 3, i, j]).multinomial(shots, tomography._normalized_probs(born[i - 1, j - 1])) for j in (1, 2, 3)] for i in (1, 2, 3)]
        freq = np.array(counts).reshape(3, 3, 2, 2) / shots
        expected = np.ones((4, 4))
        expected[1:, 1:] = (freq @ signs) @ signs
        expected[1:, 0] = (freq.sum(axis=3) @ signs).mean(axis=1)
        expected[0, 1:] = (freq.sum(axis=2) @ signs).mean(axis=0)
        assert np.array_equal(sample_pauli_expectations(rho, ShotConfig(shots, seed)), expected)


def test_contractions_equal_tensordot_bit_for_bit():
    rng = np.random.default_rng(31)
    for _ in range(200):
        e = rng.normal(size=(4, 4))
        e[0, 0] = 1.0
        assert np.array_equal(qst_linear_inversion(e), np.tensordot(e, tomography._PAULI_PRODUCTS, axes=2) / 4.0)
    rho = random_density_matrix(rng)
    cfg = ShotConfig(shots_per_setting=10**4, seed=8)
    for factory in CHANNEL_FACTORIES.values():
        instrument = factory().instrument
        counts, outputs = tomography._trajectory_counts(rho, instrument, cfg)
        acc = np.tensordot(counts / float(cfg.shots_per_setting), outputs, axes=1)
        assert np.array_equal(trajectory(rho, instrument, cfg).mat, DensityMatrix((acc + acc.conj().T) / 2.0).mat)


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
        assert np.max(np.abs(qst_linear_inversion(pauli_expectations(rho)) - rho.mat)) < 1e-10


def test_linear_inversion_rejects_incomplete_expectations():
    # a state converts to an array of shape ()
    for bad in (np.ones((3, 3)), "abc", [[1, "a"]], werner(0.3)):
        with pytest.raises(ValidationError, match="4x4 array"):
            qst_linear_inversion(bad)


def test_linear_inversion_rejects_a_ragged_array():
    with pytest.raises(ValidationError, match="expected a numeric array of Pauli expectations"):
        qst_linear_inversion([[1, 2], [3]])


def test_linear_inversion_rejects_expectations_that_are_not_real_numbers():
    e = pauli_expectations(werner(0.3))
    for bad in (e + 0j, e.astype(str), e.astype(object), e > 0):
        with pytest.raises(ValidationError, match="real numbers"):
            qst_linear_inversion(bad)


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


@pytest.mark.parametrize("field", ["p", "q", "r"])
@pytest.mark.parametrize("bad", [[[1, 2], [3]], "a"])
def test_probability_table_rejects_input_numpy_cannot_convert(field, bad):
    good = ideal_probabilities(bell("phi+"))
    arrays = {"p": good.p, "q": good.q, "r": good.r, field: bad}
    with pytest.raises(ValidationError, match="expected a numeric probability table"):
        ProbabilityTable(arrays["p"], arrays["q"], arrays["r"], 0)


def test_probability_table_rejects_non_finite_entries():
    good = ideal_probabilities(bell("phi+"))
    with pytest.raises(ValidationError, match="finite"):
        ProbabilityTable(np.full((4, 4), np.nan), good.q, good.r, 0)
    with pytest.raises(ValidationError, match="finite"):
        ProbabilityTable(good.p, np.array([np.inf, 0.0, 0.0, 0.0]), good.r, 0)
