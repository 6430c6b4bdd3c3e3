"""Measurement modeling: ideal tables, finite-shot sampling, trajectory
simulation of the channel realization, and linear-inversion tomography."""

import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from test_states import haar_unitary

from spapt import tomography
from spapt.cli import CHANNEL_FACTORIES
from spapt.linalg import PAULIS, PSD_TOL, ROUND_TOL, TRACE_TOL, ValidationError, herm_eig
from spapt.states import BELL_KINDS, DensityMatrix, bell, fidelity, mems, random_density_matrix, rho_family, werner
from spapt.channels import (
    DEPOLARIZE_SIDE,
    IDENTITY_SIDE,
    SPA_PT_INSTRUMENT,
    Branch,
    Instrument,
    apply,
    depolarize,
    partial_transpose_channel,
    spa_inversion,
    spa_pt,
    spa_transpose,
    tetrahedral_povm,
    tetrahedral_states,
    unvec,
    vec,
)
from spapt.detection import _F_HAT_MAP, detect
from spapt.selftest import EXACT_BOUND
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


_TRANSPOSE_BRANCH, _INVERSION_BRANCH = SPA_PT_INSTRUMENT.branches
_CFG = ShotConfig(shots_per_setting=1000, seed=1)


@pytest.mark.parametrize(
    "branches, message",
    [
        ((_TRANSPOSE_BRANCH, Branch(Fraction(1, 3), _INVERSION_BRANCH.sides)), "branch weights must sum to 1"),
        ((Branch(Fraction(1, 2), _TRANSPOSE_BRANCH.sides), Branch(Fraction(1, 2), (IDENTITY_SIDE,))), "all branches must act on subsystems of the same dimensions"),
        ((_TRANSPOSE_BRANCH, np.eye(4)), "an instrument holds Branch entries only"),
    ],
    ids=["weights-not-summing-to-one", "branches-on-other-dimensions", "entry-not-a-branch"],
)
def test_a_malformed_instrument_is_refused_when_built_and_its_branches_never_run(branches, message):
    with pytest.raises(ValidationError, match=message):
        Instrument(branches)
    with pytest.raises(ValidationError, match="the channel has no local instrument to run"):
        trajectory(werner(0.6), branches, _CFG)


def test_trajectory_keeps_its_own_instrument_messages():
    for non_instrument in ((), None, SPA_PT_INSTRUMENT.branches, partial_transpose_channel().instrument):
        with pytest.raises(ValidationError, match="the channel has no local instrument to run"):
            trajectory(werner(0.6), non_instrument, _CFG)
    with pytest.raises(ValidationError, match="the instrument acts on dim 2, the state has dim 4"):
        trajectory(werner(0.6), Instrument((Branch(1, (IDENTITY_SIDE,)),)), _CFG)


def test_a_category_of_tiny_born_weight_keeps_its_probability():
    # outcome 0 of the transpose branch's POVM on B has Born weight eps / 2,
    # far above the 1e-14 below which a category is never drawn
    eps = 2e-10
    v = tetrahedral_states()[0].amplitudes.conj()
    w = np.array([-v[1].conjugate(), v[0].conjugate()])  # orthogonal to v
    rho_b = (1.0 - eps) * np.outer(w, w.conj()) + eps * np.outer(v, v.conj())
    rho = DensityMatrix(np.kron(np.diag([1.0, 0.0]), rho_b))
    weight = tomography._born_weights(rho.mat, _TRANSPOSE_BRANCH.effects)[0]
    assert weight == pytest.approx(eps / 2.0, rel=1e-3)
    probs, _ = tomography._trajectory_components(rho, SPA_PT_INSTRUMENT)
    assert probs[0] == pytest.approx(weight / 3.0, rel=1e-9)


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


#: every substream path the package draws from: the table's four joint
#: settings and its q/r setting, trajectories, and the nine Pauli settings
PATHS_IN_USE = (
    [(tomography._TAG_TABLE, i) for i in range(4)]
    + [(tomography._TAG_QR,), (tomography._TAG_TRAJ,)]
    + [(tomography._TAG_PAULI, i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
)


def _same_words(words, seed, paths):
    expected = [np.random.SeedSequence([seed, *path]).generate_state(4, np.uint64).tolist() for path in paths]
    return words.dtype == np.uint64 and words.tolist() == expected


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
def test_substreams_are_default_rng_of_seed_tag_and_indices(seed):
    assert _same_words(tomography._seed_words(seed, *PATHS_IN_USE), seed, PATHS_IN_USE)
    for path in PATHS_IN_USE:
        (words,) = tomography._seed_words(seed, path)
        rng = np.random.Generator(np.random.PCG64(tomography._seed_sequence()(words)))
        assert rng.bit_generator.state == np.random.default_rng([seed, *path]).bit_generator.state
        assert rng.random(3).tolist() == np.random.default_rng([seed, *path]).random(3).tolist()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**64 - 1))
def test_every_substream_in_use_is_default_rng_for_any_seed(seed):
    assert _same_words(tomography._seed_words(seed, *PATHS_IN_USE), seed, PATHS_IN_USE)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**64 - 1), st.lists(st.tuples(st.integers(0, 3), st.lists(st.integers(0, 2**32 - 1), max_size=3)), min_size=1, max_size=4))
def test_substreams_match_default_rng_for_any_seed_and_path(seed, tagged):
    paths = [(tag, *indices) for tag, indices in tagged]
    assert _same_words(tomography._seed_words(seed, *paths), seed, paths)


@pytest.mark.parametrize(
    "call, paths",
    [
        (lambda cfg: sample_table(werner(0.6), cfg), PATHS_IN_USE[:5]),
        (lambda cfg: sample_table(DensityMatrix(np.stack([werner(0.6).mat, bell("phi+").mat])), cfg), PATHS_IN_USE[:5]),
        (lambda cfg: trajectory_spa_pt(werner(0.6), cfg), PATHS_IN_USE[5:6]),
        (lambda cfg: trajectory_spa_pt(DensityMatrix(np.stack([werner(0.6).mat, bell("phi+").mat])), cfg), PATHS_IN_USE[5:6]),
        (lambda cfg: sample_pauli_expectations(werner(0.6), cfg), PATHS_IN_USE[6:]),
        (lambda cfg: sample_pauli_expectations(DensityMatrix(np.stack([werner(0.6).mat, bell("phi+").mat])), cfg), PATHS_IN_USE[6:]),
    ],
    ids=["sample_table", "sample_table_stack", "trajectory", "trajectory_stack", "sample_pauli_expectations", "sample_pauli_expectations_stack"],
)
def test_each_sampling_call_seeds_its_substreams_in_one_step(monkeypatch, call, paths):
    seed_words, requests = tomography._seed_words, []
    monkeypatch.setattr(tomography, "_seed_words", lambda seed, *p: requests.append((seed, p)) or seed_words(seed, *p))
    call(ShotConfig(shots_per_setting=100, seed=9))
    assert requests == [(9, tuple(paths))]


KET_00 = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))


def test_sampled_tables_of_a_stack_are_the_per_state_and_setting_default_rng_draws():
    # reference: one fresh default_rng([seed, tag, *i]) per state and setting, as
    # the README documents; |00> leaves every I - P_0 outcome of setting 0 at zero
    stack = DensityMatrix(np.stack([KET_00.mat, werner(0.6).mat, random_density_matrix(np.random.default_rng(13)).mat]))
    born = tomography._born_weights(stack.mat, tomography._TABLE_SETTINGS)
    assert np.all(born[0, 0, 4:] == 0.0)
    paths = [(0, i) for i in range(4)] + [(1,)]
    for seed, shots in ((42, 1000), (2**64 - 1, 10**6)):
        table = sample_table(stack, ShotConfig(shots, seed))
        for n in range(3):
            counts = np.array([np.random.default_rng([seed, *path]).multinomial(shots, tomography._normalized_probs(born[n, i])) for i, path in enumerate(paths)])
            assert np.array_equal(table.p[n], counts[:4, :4] / shots)
            assert np.array_equal(table.q[n], counts[4, :4] / shots)
            assert np.array_equal(table.r[n], counts[4, 4:] / shots)


def _blind_to_last_tetrahedral_outcome():
    """Both qubits in the null vector of the last tetrahedral effect: every
    channel that measures a side with the tetrahedral POVM gives its last
    category probability zero."""
    _, vecs = np.linalg.eigh(tetrahedral_povm()[3])
    v = np.kron(vecs[:, 0], vecs[:, 0])
    return DensityMatrix(np.outer(v, v.conj()))


@pytest.mark.parametrize("name", sorted(CHANNEL_FACTORIES))
def test_trajectory_counts_are_one_default_rng_draw_over_the_drawn_categories(name):
    # reference: default_rng([seed, 2]) draws only the categories of nonzero
    # probability, and a zero last category would consume a draw if it were drawn
    instrument = CHANNEL_FACTORIES[name]().instrument
    for rho in (_blind_to_last_tetrahedral_outcome(), werner(0.3)):
        probs, _ = tomography._trajectory_components(rho, instrument)
        drawn = probs > 0.0
        for seed, shots in ((42, 1000), (2**64 - 1, 10**6)):
            expected = np.zeros(len(probs), dtype=np.int64)
            expected[drawn] = np.random.default_rng([seed, 2]).multinomial(shots, probs[drawn])
            counts, _ = tomography._trajectory_counts(rho, instrument, ShotConfig(shots, seed))
            assert np.array_equal(counts, expected)
    probs, _ = tomography._trajectory_components(_blind_to_last_tetrahedral_outcome(), SPA_PT_INSTRUMENT)
    assert probs[-1] == 0.0


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


def test_slice_pauli_averages_equal_the_matmul_and_mean_forms_bit_for_bit(monkeypatch):
    # random count tables, some with empty outcomes, at every shot budget; the
    # reference is the (freq @ signs) @ signs and .mean(axis=...) forms
    rng = np.random.default_rng(41)
    signs = np.array([1.0, -1.0])
    rho = werner(0.3)
    for shots in (1, 7, 10**3, 10**4, 10**5, 10**6, 10**7):
        for n in range(40):
            probs = rng.dirichlet(np.ones(4), size=9)
            probs[:, n % 4] *= n % 3  # a third of the tables leave an outcome empty
            counts = rng.multinomial(shots, probs / probs.sum(axis=1, keepdims=True))
            monkeypatch.setattr(tomography, "_draw", lambda cfg, p, *paths: counts)
            freq = counts.reshape(3, 3, 2, 2) / shots
            expected = np.ones((4, 4))
            expected[1:, 1:] = (freq @ signs) @ signs
            expected[1:, 0] = (freq.sum(axis=3) @ signs).mean(axis=1)
            expected[0, 1:] = (freq.sum(axis=2) @ signs).mean(axis=0)
            assert _same_bytes(sample_pauli_expectations(rho, ShotConfig(shots, 1)), expected)


ALL_INSTRUMENTS = [factory().instrument for factory in (*CHANNEL_FACTORIES.values(), spa_transpose, spa_inversion, depolarize)]


def _per_branch_components(rho, instrument):
    """Reference trajectory components, one Born product, map product and
    ``weigh(w) / draws`` per branch, concatenated."""
    probs, outputs = [], []
    for branch in instrument.branches:
        w = tomography._born_weights(rho.mat, branch.effects)
        live = w > 1e-14
        probs.append(np.where(live, branch.weigh(w) / branch.draws, 0.0))
        outputs.append(unvec((branch.maps @ vec(rho.mat)) / np.where(live, w, 1.0)[:, None], rho.dim))
    return tomography._normalized_probs(np.concatenate(probs)), np.concatenate(outputs)


def test_the_category_table_equals_its_branches_bit_for_bit():
    assert SPA_PT_INSTRUMENT in ALL_INSTRUMENTS and len(ALL_INSTRUMENTS) == 10
    rng = np.random.default_rng(2121)
    for instrument in ALL_INSTRUMENTS:
        effects, maps, weighing = instrument.categories
        assert instrument.categories is instrument.categories
        assert not any(a.flags.writeable for a in (effects, maps, weighing))
        branches = instrument.branches
        assert _same_bytes(effects, np.concatenate([b.effects for b in branches], axis=1))
        assert _same_bytes(maps, np.concatenate([b.maps for b in branches]))
        assert weighing.shape == (3, len(maps))
        d = instrument.dim
        for _ in range(20):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mat = g @ g.conj().T / np.trace(g @ g.conj().T)
            # a two-qubit instrument is weighed on its Born products; a one-qubit
            # one, which no state of the package runs, on random weights
            w = tomography._born_weights(mat, effects) if d == 4 else rng.random(len(maps))
            per_branch = np.split(w, np.cumsum([len(b.maps) for b in branches])[:-1])
            if d == 4:
                assert _same_bytes(w, np.concatenate([tomography._born_weights(mat, b.effects) for b in branches]))
            numerator, denominator, draws = weighing
            assert _same_bytes(((w * numerator) / denominator) / draws, np.concatenate([b.weigh(x) / b.draws for b, x in zip(branches, per_branch)]))
            assert _same_bytes(maps @ vec(mat), np.concatenate([b.maps @ vec(mat) for b in branches]))
        for rho in (random_density_matrix(rng), _blind_to_last_tetrahedral_outcome(), bell("psi-")) if d == 4 else ():
            got, want = tomography._trajectory_components(rho, instrument), _per_branch_components(rho, instrument)
            assert _same_bytes(got[0], want[0]) and _same_bytes(got[1], want[1])


def test_trajectory_is_deterministic():
    cfg = ShotConfig(shots_per_setting=5000, seed=99)
    a = trajectory_spa_pt(bell("phi-"), cfg)
    b = trajectory_spa_pt(bell("phi-"), cfg)
    assert np.array_equal(a.mat, b.mat)


# A state keeps the probabilities its samplers draw from.  The memo must never
# change a draw: calls on a reused state, in any order and for any instrument,
# equal calls on a fresh equal state, whose memo is empty.
MEMO_CFGS = (ShotConfig(1000, 3), ShotConfig(10**6, 2**64 - 1), ShotConfig(1000, 3), ShotConfig(7, 0))
MEMO_STACK = np.stack([KET_00.mat, werner(0.6).mat, random_density_matrix(np.random.default_rng(17)).mat])
#: its first entry gives the last category of SPA-PT probability zero
TRAJECTORY_STACK = np.stack([_blind_to_last_tetrahedral_outcome().mat, *MEMO_STACK[1:]])


def _arrays(out):
    """The arrays of a sampler's output, a table, a state, an array or a pair of counts."""
    if isinstance(out, ProbabilityTable):
        return [out.p, out.q, out.r, np.array(out.shots_per_setting)]
    return [out.mat] if isinstance(out, DensityMatrix) else [np.asarray(out)]


def _same_outputs(got, want):
    return all(_same_bytes(a, b) for a, b in zip(_arrays(got), _arrays(want), strict=True))


SAMPLERS = {
    "sample_table": (sample_table, werner(0.6).mat),
    "sample_table_stack": (sample_table, MEMO_STACK),
    "trajectory_spa_pt": (trajectory_spa_pt, _blind_to_last_tetrahedral_outcome().mat),
    "trajectory_spa_pt_stack": (trajectory_spa_pt, TRAJECTORY_STACK),
    "trajectory_branch_counts": (trajectory_branch_counts, werner(0.3).mat),
}


@pytest.mark.parametrize("name", sorted(SAMPLERS))
def test_repeated_sampling_of_one_state_equals_sampling_a_fresh_equal_state(name):
    sampler, mat = SAMPLERS[name]
    rho = DensityMatrix(mat)
    for cfg in MEMO_CFGS:
        assert _same_outputs(sampler(rho, cfg), sampler(DensityMatrix(mat), cfg))


def test_trajectories_of_every_instrument_interleaved_on_one_state_equal_those_of_fresh_states():
    for rho in (random_density_matrix(np.random.default_rng(23)), _blind_to_last_tetrahedral_outcome()):
        for cfg in MEMO_CFGS:
            for name in sorted(CHANNEL_FACTORIES):
                instrument = CHANNEL_FACTORIES[name]().instrument
                for run in (instrument, SPA_PT_INSTRUMENT, instrument):
                    assert _same_bytes(trajectory(rho, run, cfg).mat, trajectory(DensityMatrix(rho.mat), run, cfg).mat)
                assert trajectory_branch_counts(rho, cfg) == trajectory_branch_counts(DensityMatrix(rho.mat), cfg)
        assert list(rho._memo) == ["trajectory"] and rho._memo["trajectory"][0] is SPA_PT_INSTRUMENT  # the last instrument run


def test_a_state_keeps_one_table_and_one_instrument_whatever_runs_on_it():
    rho = werner(0.6)
    sample_table(rho, _CFG)
    for _ in range(20):
        # a fresh instrument object each time, as a caller building one inline makes
        instrument = Instrument((Branch(1, (IDENTITY_SIDE, DEPOLARIZE_SIDE)),))
        trajectory(rho, instrument, _CFG)
        assert sorted(rho._memo) == ["table", "trajectory"] and rho._memo["trajectory"][0] is instrument


def test_the_kept_probabilities_and_states_are_read_only():
    rho, stack = werner(0.6), DensityMatrix(MEMO_STACK)
    for sampler in (sample_table, sample_pauli_expectations, trajectory_spa_pt):
        sampler(rho, _CFG)
    sample_table(stack, _CFG)
    kept = [value for state in (rho, stack) for _, arrays in state._memo.values() for value in arrays]
    assert len(rho._memo) == 2 and len(stack._memo) == 1 and len(kept) == 5
    for value in kept:
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value.flat[0] = 0


def test_a_stack_entry_keeps_its_own_probabilities():
    stack = DensityMatrix(MEMO_STACK)
    stacked = sample_table(stack, _CFG)
    entry = stack[1]
    assert entry._memo is None
    one = sample_table(entry, _CFG)
    assert _same_outputs(one, sample_table(DensityMatrix(MEMO_STACK[1]), _CFG))
    assert [v.shape for _, arrays in entry._memo.values() for v in arrays] == [(5, 8)]
    assert [v.shape for _, arrays in stack._memo.values() for v in arrays] == [(3, 5, 8)]
    assert all(_same_bytes(arr[1], getattr(one, name)) for name, arr in (("p", stacked.p), ("q", stacked.q), ("r", stacked.r)))
    # an entry sampled first leaves its stack's memo empty
    other = DensityMatrix(MEMO_STACK)
    sample_table(other[0], _CFG)
    assert other._memo is None


def test_an_instrument_of_another_dimension_is_refused_before_the_memo_is_touched():
    rho = werner(0.6)
    with pytest.raises(ValidationError, match="the instrument acts on dim 2, the state has dim 4"):
        trajectory(rho, Instrument((Branch(1, (IDENTITY_SIDE,)),)), _CFG)
    with pytest.raises(ValidationError, match="the channel has no local instrument to run"):
        trajectory(rho, SPA_PT_INSTRUMENT.branches, _CFG)
    assert rho._memo is None


def test_threads_sampling_one_fresh_state_draw_what_one_thread_draws():
    # more threads than cores, switching often, all filling one state's memo at once
    rho, reference = random_density_matrix(np.random.default_rng(29)), random_density_matrix(np.random.default_rng(29))
    cfgs = [ShotConfig(100, seed) for seed in range(8)]
    want = [(sample_table(reference, cfg), trajectory_spa_pt(reference, cfg)) for cfg in cfgs]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda cfg: (sample_table(rho, cfg), trajectory_spa_pt(rho, cfg)), cfg) for cfg in cfgs]
            got = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert all(_same_outputs(g, w) for gs, ws in zip(got, want) for g, w in zip(gs, ws, strict=True))


@pytest.fixture
def born_calls(monkeypatch):
    calls = []
    born = tomography._born_weights

    def counting_born(mats, wide):
        calls.append(wide.shape)
        return born(mats, wide)

    monkeypatch.setattr(tomography, "_born_weights", counting_born)
    return calls


@pytest.mark.parametrize("name", ["sample_table", "sample_table_stack", "trajectory_spa_pt", "trajectory_spa_pt_stack"])
def test_a_second_sampling_call_on_a_state_makes_no_born_product(born_calls, name):
    sampler, mat = SAMPLERS[name]
    rho = DensityMatrix(mat)
    sampler(rho, MEMO_CFGS[0])
    assert len(born_calls) == 1
    for cfg in MEMO_CFGS[1:]:
        sampler(rho, cfg)
    assert len(born_calls) == 1


def test_a_stack_keeps_one_trajectory_entry_and_a_second_call_reuses_it_bit_for_bit():
    stack = DensityMatrix(TRAJECTORY_STACK)
    first = trajectory_spa_pt(stack, _CFG)
    drawn, outputs, *rows = kept = stack._memo["trajectory"][1]
    assert list(stack._memo) == ["trajectory"] and drawn.shape == (3, 20) and outputs.shape == (3, 20, 4, 4)
    assert not drawn[0].all() and [len(row) for row in rows] == np.count_nonzero(drawn, axis=1).tolist()
    again = trajectory_spa_pt(stack, _CFG)
    assert all(a is b for a, b in zip(stack._memo["trajectory"][1], kept, strict=True))
    assert _same_bytes(first.mat, again.mat) and _same_bytes(first.spectrum.vectors, again.spectrum.vectors)
    for k in range(3):
        assert _same_bytes(again.mat[k], trajectory_spa_pt(DensityMatrix(TRAJECTORY_STACK[k]), _CFG).mat)


def _projected_spectrum(w):
    """Reference: the clip-and-spread loop on one spectrum, on the floats of the entries it selects."""
    x = w + (1.0 - w.sum()) / len(w)
    for _ in range(len(w) + 1):
        negative = x < 0.0
        if not negative.any():
            break
        deficit = float(x[negative].sum())
        x[negative] = 0.0
        positive = x > 0.0
        x[positive] += deficit / int(positive.sum())
    return np.clip(x, 0.0, None)


def _same_states(stack, singles):
    """Each entry of ``stack`` equals the single state of ``singles`` byte for byte, matrix and spectrum."""
    views = (lambda rho: rho.mat, lambda rho: rho.spectrum.values, lambda rho: rho.spectrum.vectors)
    return len(stack) == len(singles) and all(_same_bytes(view(stack)[k], view(one)) for k, one in enumerate(singles) for view in views)


#: states the experimental route runs on: |00> and a state blind to the last
#: tetrahedral outcome give categories of probability zero
ROUTE_POOL = [KET_00.mat, _blind_to_last_tetrahedral_outcome().mat, bell("psi-").mat, werner(0.6).mat, mems(0.8).mat, *random_density_matrix(np.random.default_rng(37), count=3).mat]


@pytest.mark.parametrize("name", sorted(CHANNEL_FACTORIES))
@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.integers(1, 10**5), st.integers(0, 2**64 - 1), st.lists(st.integers(0, len(ROUTE_POOL) - 1), min_size=1, max_size=5))
@example(1, 2**64 - 1, [1, 0, 1])
@example(10**5, 0, [0, 1, 2, 3, 4, 5, 6, 7])
def test_the_stacked_experimental_route_is_the_loop_of_single_calls_bit_for_bit(name, shots, seed, picks):
    instrument, cfg = CHANNEL_FACTORIES[name]().instrument, ShotConfig(shots, seed)
    outputs = trajectory(DensityMatrix([ROUTE_POOL[k] for k in picks]), instrument, cfg)
    expectations = sample_pauli_expectations(outputs, cfg)
    raw = qst_linear_inversion(expectations)
    projected = project_to_physical(raw)
    singles = [trajectory(DensityMatrix(ROUTE_POOL[k]), instrument, cfg) for k in picks]
    assert _same_states(outputs, singles)
    single_expectations = [sample_pauli_expectations(one, cfg) for one in singles]
    assert all(_same_bytes(expectations[k], e) for k, e in enumerate(single_expectations))
    single_raw = [qst_linear_inversion(e) for e in single_expectations]
    assert all(_same_bytes(raw[k], r) for k, r in enumerate(single_raw))
    assert _same_states(projected, [project_to_physical(r) for r in single_raw])


#: spectra whose projection clips none, one, two over two rounds, two at once and three eigenvalues
CLIPPED_SPECTRA = [(0.4, 0.3, 0.2, 0.1), (0.5, 0.45, 0.4, -0.35), (0.9, 0.3, 0.02, -0.22), (1.1, 0.2, -0.2, -0.1), (2.0, -0.3, -0.3, -0.4)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-0.6, 1.6)] * 4), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
@example(CLIPPED_SPECTRA, 46)
def test_a_stacked_projection_clips_each_entry_as_the_one_matrix_loop_does(spectra, seed):
    lam = np.array(spectra)
    lam -= (lam.sum(axis=1, keepdims=True) - 1.0) / 4.0  # unit trace, up to rounding
    u = [haar_unitary(np.random.default_rng([seed, k]), 4) for k in range(len(lam))]
    raw = np.array([(v * w) @ v.conj().T for v, w in zip(u, lam)])
    projected = project_to_physical(raw)
    singles = [project_to_physical(m) for m in raw]
    assert _same_states(projected, singles)
    for k, one in enumerate(singles):
        w, v = herm_eig(raw[k])
        mat = (v * _projected_spectrum(w)) @ v.conj().T
        assert _same_bytes(one.mat, (mat + mat.conj().T) / 2.0)
    if spectra == CLIPPED_SPECTRA:
        assert [int(np.count_nonzero(_projected_spectrum(np.sort(w)) == 0.0)) for w in lam] == [0, 1, 2, 2, 3]


def test_each_function_of_the_experimental_route_maps_an_empty_stack_to_an_empty_stack():
    # the functions of a state are checked on an empty stack in test_batch.py, with SPA-PT's instrument
    empty = np.zeros((0, 4, 4))
    for factory in CHANNEL_FACTORIES.values():
        assert trajectory(DensityMatrix(empty), factory().instrument, ShotConfig(100, 5)).mat.shape == (0, 4, 4)
    assert qst_linear_inversion(empty).shape == (0, 4, 4)
    assert project_to_physical(empty.astype(complex)).mat.shape == (0, 4, 4)


def test_a_bad_entry_of_a_stack_of_expectations_or_raw_matrices_is_named_by_its_index():
    e = pauli_expectations(DensityMatrix(np.stack([werner(0.3).mat] * 3)))
    e[1, 2, 3] = np.nan
    with pytest.raises(ValidationError, match=r"^stack entry 1: Pauli expectations must be finite"):
        qst_linear_inversion(e)
    e[1, 2, 3], e[2, 0, 0] = 0.0, 1.5
    with pytest.raises(ValidationError, match=r"^stack entry 2: <I \(x\) I> is the trace and must be 1, got 1.5$"):
        qst_linear_inversion(e)
    raw = np.stack([np.eye(4, dtype=complex) / 4.0] * 3)
    raw[2] *= 1.1
    with pytest.raises(ValidationError, match=r"^stack entry 2: trace too far from 1 to project"):
        project_to_physical(raw)


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
    # a state converts to an array of shape (); a stack of stacks is refused
    for bad in (np.ones((3, 3)), "abc", [[1, "a"]], werner(0.3), np.ones((2, 3, 4, 4))):
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


def _same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    # stacks of states, and every branch of SPA-PT and of the seven CLI channels,
    # each branch effect as np.kron of its sides' effects, byte for byte
    branches = [b for factory in CHANNEL_FACTORIES.values() for b in factory().instrument.branches]
    assert len(branches) == 8 and set(SPA_PT_INSTRUMENT.branches) <= set(branches) and all(len(b.sides) == 2 for b in branches)
    kron_effects = [[np.kron(a, b) for a in branch.sides[0].effects for b in branch.sides[1].effects] for branch in branches]
    for count in (0, 1, 51):
        states = random_density_matrix(rng, 1 + count % 4, count=count)
        table, expectations = ideal_probabilities(states), pauli_expectations(states)
        assert table.p.shape == (count, 4, 4) and expectations.shape == (count, 4, 4)
        for k in range(count):
            single = states[k]
            want_p = np.clip(_per_effect_born(single, projectors, effects), 0.0, 1.0)
            assert _same_bytes(table.p[k], want_p) and _same_bytes(ideal_probabilities(single).p, want_p)
            assert _same_bytes(expectations[k], _per_effect_born(single, PAULIS, PAULIS))
        for branch, branch_effects in zip(branches, kron_effects):
            want = np.array([[np.real(np.trace(m @ e)) for e in branch_effects] for m in states.mat]).reshape(count, len(branch_effects))
            assert _same_bytes(tomography._born_weights(states.mat, branch.effects), want)
            for k in range(count):
                assert _same_bytes(tomography._born_weights(states.mat[k], branch.effects), want[k])


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
    lam = np.array([1.1, 0.2, -0.2, -0.1])
    assert np.max(np.abs(np.diag(projected.mat).real - _simplex_projection(lam))) < 1e-12


def _simplex_projection(lam):
    """Independent oracle: the Euclidean projection of a spectrum onto the
    probability simplex (nearest unit-trace PSD spectrum in 2-norm)."""
    u = np.sort(lam)[::-1]
    css = np.cumsum(u)
    k = np.arange(1, len(lam) + 1)
    rho_k = k[u - (css - 1.0) / k > 0].max()
    theta = (css[rho_k - 1] - 1.0) / rho_k
    return np.maximum(lam - theta, 0.0)


def test_project_to_physical_restores_a_trace_off_by_up_to_the_raw_slack():
    # |tr - 1| = 1e-7 is inside RAW_TOL; the uniform shift spreads it over all
    # four eigenvalues, so the output spectrum is the simplex projection
    u = haar_unitary(np.random.default_rng(45), 4)
    for lam in (np.array([0.6, 0.3, 0.15, -0.05 + 1e-7]), np.array([0.5, 0.25, 0.25, 1e-7])):
        projected = project_to_physical(u @ np.diag(lam) @ u.conj().T)
        assert np.max(np.abs(np.sort(herm_eig(projected.mat).values) - np.sort(_simplex_projection(lam)))) < 1e-12


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
    # a stack of stacks is refused as a state is
    with pytest.raises(ValidationError, match=r"an \(N, 4, 4\) stack, got shape \(2, 3, 4, 4\)"):
        project_to_physical(np.broadcast_to(np.eye(4, dtype=complex) / 4.0, (2, 3, 4, 4)))


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
def test_a_table_entry_below_zero_by_more_than_rounding_is_refused(field):
    good = ideal_probabilities(werner(0.6))

    def table(low):
        arrays = {"p": good.p.copy(), "q": good.q.copy(), "r": good.r.copy()}
        arrays[field].flat[0] = low
        return ProbabilityTable(arrays["p"], arrays["q"], arrays["r"], 0)

    table(-1e-13)  # rounding noise below 0 is accepted
    with pytest.raises(ValidationError, match=f"{field} entries must lie in \\[0, 1\\]"):
        table(-1e-11)


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


@pytest.mark.parametrize("plus, minus", [(("p", (0, 0)), ("p", (0, 1))), (("q", 0), ("r", 0))], ids=["p_row", "q_and_r"])
def test_opposite_infinities_are_named_non_finite_before_any_sum(plus, minus):
    # under filterwarnings = error, inf - inf in a p row sum or in q + r would
    # raise a RuntimeWarning instead; the table names the field, or the stack entry
    good = ideal_probabilities(bell("phi+"))
    arrays = {"p": good.p.copy(), "q": good.q.copy(), "r": good.r.copy()}
    arrays[plus[0]][plus[1]] = np.inf
    arrays[minus[0]][minus[1]] = -np.inf
    with pytest.raises(ValidationError, match=f"^{plus[0]} entries must be finite"):
        ProbabilityTable(arrays["p"], arrays["q"], arrays["r"], 0)
    stack = {name: np.array([getattr(good, name)] * 4) for name in arrays}
    for name, arr in arrays.items():
        stack[name][2] = arr
    with pytest.raises(ValidationError, match=f"^stack entry 2: {plus[0]} entries must be finite"):
        ProbabilityTable(stack["p"], stack["q"], stack["r"], 0)


@pytest.mark.parametrize(
    "defects, message",
    [
        ({(3, "p", (0, 0)): 2.0, (1, "q", 0): np.nan}, "stack entry 3: p entries must lie in [0, 1]"),
        ({(3, "p", (0, 0)): 2.0, (1, "p", (2, 1)): np.inf}, "stack entry 1: p entries must be finite: the table holds NaN or inf"),
        ({(0, "r", 0): np.nan, (2, "q", 3): -1.0}, "stack entry 2: q entries must lie in [0, 1]"),
        ({(0, "r", 0): np.nan, (2, "r", 3): -1.0}, "stack entry 0: r entries must be finite: the table holds NaN or inf"),
    ],
    ids=["p_before_q", "finite_before_range", "q_before_r", "r_finite_first"],
)
def test_a_bad_table_is_named_by_field_p_q_r_with_the_finite_test_first(defects, message):
    good = ideal_probabilities(bell("phi+"))
    stack = {name: np.array([getattr(good, name)] * 4) for name in ("p", "q", "r")}
    for (entry, name, index), value in defects.items():
        stack[name][entry][index] = value
    with pytest.raises(ValidationError) as err:
        ProbabilityTable(stack["p"], stack["q"], stack["r"], 0)
    assert str(err.value) == message


def trace_edge_states():
    """Two valid states, entries 1165 and 1347 of a seeded random stack scaled to
    |tr - 1| = 9.99999861e-10, just inside ``TRACE_TOL``, whose Born sums q + r
    exceed 1 + TRACE_TOL by their rounding."""
    stack = random_density_matrix(np.random.default_rng(5), count=3000)
    return DensityMatrix(np.array(stack.mat[[1165, 1347]]) * (1.0 + 0.9999999e-9))


def test_the_ideal_table_of_a_valid_state_at_the_trace_edge_is_accepted():
    edge = trace_edge_states()
    assert np.all(np.abs(edge.mat.trace(axis1=-2, axis2=-1).real - 1.0) <= TRACE_TOL)
    stacked = ideal_probabilities(edge)
    # summed in order, as the table sums them: 1 + 1.0000003e-9 for both
    assert np.all(np.add.reduceat(np.concatenate([stacked.q, stacked.r], axis=-1), [0], axis=-1) > 1.0 + TRACE_TOL)
    for k in range(2):
        assert detect(edge[k], "f_hat").verdict == detect(edge[k], "ppt").verdict


@pytest.mark.parametrize("field", ["p", "qr"])
def test_a_table_sum_is_bounded_by_the_trace_and_rounding_slack(field):
    # the most a p row or q + r of a valid state's ideal table sums to, 1 + TRACE_TOL + 3 PSD_TOL, and Born rounding
    bound = 1.0 + TRACE_TOL + 3.0 * PSD_TOL + ROUND_TOL

    def table(total):
        p, q, r = np.zeros((4, 4)), np.zeros(4), np.zeros(4)
        first, second = (p[0], p[0]) if field == "p" else (q, r)
        first[0], second[1] = 0.5, total - 0.5
        return ProbabilityTable(p, q, r, 0)

    table(bound - 0.5 * ROUND_TOL)
    message = "each p row must sum to at most 1 (binary A outcome per setting)" if field == "p" else "q and r jointly exceed total probability 1"
    with pytest.raises(ValidationError) as err:
        table(bound + 2.0 * ROUND_TOL)
    assert str(err.value) == message


def _ideal_arrays(rho):
    """p, q and r of the ideal table of ``rho``, sliced from its clipped Born weights as the table lays them out."""
    born = np.clip(tomography._born_weights(rho.mat, tomography._TABLE_SETTINGS), 0.0, 1.0)
    return born[..., :4, :4], born[..., 4, :4], born[..., 4, 4:]


def _sampled_arrays(rho, cfg):
    """p, q and r of ``sample_table(rho, cfg)``, drawn from one fresh default_rng([seed, tag, *i]) per state and setting."""
    born = tomography._born_weights(rho.mat, tomography._TABLE_SETTINGS).reshape(-1, 5, 8)
    paths = [(0, i) for i in range(4)] + [(1,)]
    counts = np.array(
        [[np.random.default_rng([cfg.seed, *path]).multinomial(cfg.shots_per_setting, tomography._normalized_probs(b[i])) for i, path in enumerate(paths)] for b in born]
    ).reshape(rho.mat.shape[:-2] + (5, 8))
    freq = counts / cfg.shots_per_setting
    return freq[..., :4, :4], freq[..., 4, :4], freq[..., 4, 4:]


def assert_stored_as_the_gate_stores(table, p, q, r, shots):
    """``table`` holds, array by array, what ``ProbabilityTable(p, q, r, shots)`` stores, which accepts them."""
    gated = ProbabilityTable(p, q, r, shots)
    for name in ("p", "q", "r"):
        kept, want = getattr(table, name), getattr(gated, name)
        assert kept.tobytes() == want.tobytes() and kept.dtype == want.dtype == np.float64 and kept.shape == want.shape
        assert not kept.flags.writeable and not want.flags.writeable
        assert kept.flags.c_contiguous and want.flags.c_contiguous and kept.flags.owndata and want.flags.owndata
    assert type(table.shots_per_setting) is int and table.shots_per_setting == gated.shots_per_setting == shots


def _sampler_states():
    edge = trace_edge_states()
    return {
        "single": random_density_matrix(np.random.default_rng(21)),
        "stack": DensityMatrix(np.concatenate([werner(np.array([0.2, 0.6, 0.9])).mat, random_density_matrix(np.random.default_rng(22), count=3).mat])),
        "empty_stack": random_density_matrix(np.random.default_rng(23), count=0),
        "trace_edge_stack": edge,
        "trace_edge_1165": edge[0],
        "trace_edge_1347": edge[1],
    }


@pytest.mark.parametrize("shots", [1, 10**3, 10**7])
@pytest.mark.parametrize("name", sorted(_sampler_states()))
def test_the_samplers_store_their_tables_as_the_gate_stores_the_same_arrays(name, shots):
    rho = _sampler_states()[name]
    assert_stored_as_the_gate_stores(ideal_probabilities(rho), *_ideal_arrays(rho), 0)
    cfg = ShotConfig(shots, 7)
    assert_stored_as_the_gate_stores(sample_table(rho, cfg), *_sampled_arrays(rho, cfg), shots)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.one_of(st.none(), st.integers(0, 4)), st.sampled_from([1, 10**3, 10**7]), st.integers(0, 2**64 - 1))
def test_the_samplers_tables_of_random_states_are_stored_as_the_gate_stores_them(state_seed, components, count, shots, seed):
    rho = random_density_matrix(np.random.default_rng(state_seed), components, count)
    assert_stored_as_the_gate_stores(ideal_probabilities(rho), *_ideal_arrays(rho), 0)
    cfg = ShotConfig(shots, seed)
    assert_stored_as_the_gate_stores(sample_table(rho, cfg), *_sampled_arrays(rho, cfg), shots)


def clip_shift_norm(rho):
    """The operator norm of what the ideal table's clip at 0 adds to f-hat, which is linear in the table, for one
    state or each of a stack: by Weyl's inequality it bounds how far the clip moves f-hat's lambda_min, and it is 0
    for a state whose Born weights are all nonnegative."""
    shift = np.maximum(0.0, -tomography._born_weights(rho.mat, tomography._TABLE_SETTINGS))
    lead = shift.shape[:-2]
    rows = np.concatenate([shift[..., :4, :4].reshape(lead + (16,)), shift[..., 4, :4] + shift[..., 4, 4:]], axis=-1)
    return np.linalg.norm((rows @ _F_HAT_MAP).reshape(lead + (4, 4)), 2, axis=(-2, -1))


def assert_the_ideal_table_is_stored_and_detects_as_the_spectrum(rho):
    """The ideal table of ``rho`` holds what the gate stores of the same arrays, which it accepts, and f-hat's
    lambda_min is the SPA-PT spectrum's within EXACT_BOUND, plus the clip's shift where a Born weight is below 0, for
    one state or each of a stack."""
    table = ideal_probabilities(rho)
    assert_stored_as_the_gate_stores(table, *_ideal_arrays(rho), 0)
    gap = np.abs(detect(table, "f_hat").lambda_min - detect(rho, "spa_spectrum").lambda_min)
    shift = clip_shift_norm(rho)
    assert np.all((gap <= EXACT_BOUND) | (shift > 0.0))
    assert np.all(gap <= EXACT_BOUND + shift)
    return table


def test_the_ideal_table_of_a_state_with_an_eigenvalue_below_zero_passes_the_gate():
    # eigenvalues -eps inside the PSD slack lift the p row of P_0 = |0><0| to 1 + 2 eps, past 1 + TRACE_TOL + ROUND_TOL
    # but inside the table's sum bound, which holds the three eigenvalues a valid state may have below 0
    eps = 0.9e-9
    edge = DensityMatrix(np.diag([0.5 + eps, 0.5 + eps, -eps, -eps]).astype(complex))
    assert edge.spectrum.values[0] < 0.0
    for rho, k in ((edge, ...), (DensityMatrix(np.stack([MAXIMALLY_MIXED.mat, edge.mat])), 1)):
        table = assert_the_ideal_table_is_stored_and_detects_as_the_spectrum(rho)
        assert table.p[k][0].sum() > 1.0 + TRACE_TOL + ROUND_TOL
    # p rows that sum to 1, and one eigenvalue below 0 that puts Born weights below 0, which the table clips
    inside = DensityMatrix(np.diag([0.5, 0.5, eps, -eps]).astype(complex))
    assert inside.spectrum.values[0] < 0.0 and clip_shift_norm(inside) > 0.0
    assert_the_ideal_table_is_stored_and_detects_as_the_spectrum(inside)
    # three eigenvalues below 0 but no Born weight below 0: f-hat is held to EXACT_BOUND itself
    unclipped = psd_edge_state(0, "haar", 3, 1.0)
    assert unclipped.spectrum.values[2] < 0.0 and clip_shift_norm(unclipped) == 0.0
    assert_the_ideal_table_is_stored_and_detects_as_the_spectrum(unclipped)


def psd_edge_state(seed, vector, negatives, trace_sign):
    """A valid state at both edges of the state gate: ``negatives`` eigenvalues at -0.999 PSD_TOL, trace 1 +
    0.999 TRACE_TOL ``trace_sign``, and the rest of the weight on one vector, Haar-random, a product of Haar qubits,
    or a ``tomo_basis`` state on A with a Haar qubit on B."""
    rng = np.random.default_rng(seed)
    qubit = lambda: haar_unitary(rng)[:, 0]
    psi = {
        "haar": lambda: haar_unitary(rng, 4)[:, 0],
        "product": lambda: np.kron(qubit(), qubit()),
        "tomo_basis": lambda: np.kron(tomo_basis()[rng.integers(4)].amplitudes, qubit()),
    }[vector]()
    # orthonormal columns after psi, from Haar ones: the eigenvectors below 0
    others = np.linalg.qr(np.column_stack([psi, haar_unitary(rng, 4)[:, :3]]))[0][:, 1 : 1 + negatives]
    slack = 0.999 * PSD_TOL
    top = 1.0 + trace_sign * 0.999 * TRACE_TOL + negatives * slack
    return DensityMatrix(top * np.outer(psi, psi.conj()) - slack * others @ others.conj().T)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(["haar", "product", "tomo_basis"]), st.integers(1, 3), st.sampled_from([-1.0, 1.0]))
def test_the_ideal_table_of_a_state_at_the_psd_and_trace_edges_is_stored_and_accepted(seed, vector, negatives, trace_sign):
    rho = psd_edge_state(seed, vector, negatives, trace_sign)
    assert rho.spectrum.values[negatives - 1] < 0.0
    table = assert_the_ideal_table_is_stored_and_detects_as_the_spectrum(rho)
    assert max(table.p.max(), table.q.max(), table.r.max()) < 1.0
