"""Channel construction, closed forms, Choi certification and the exact
decomposition identity of the approximated partial transpose."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from spapt import channels, linalg
from spapt.cli import CHANNEL_FACTORIES
from spapt.linalg import PAULI_X, PAULI_Y, PSD_TOL, NumericError, ValidationError, herm_eig, partial_transpose
from spapt.states import BELL_KINDS, DensityMatrix, bell, random_density_matrix, werner
from spapt.channels import (
    IDENTITY_SIDE,
    SPA_PT_INSTRUMENT,
    TRANSPOSE_SIDE,
    Branch,
    Channel,
    ChoiMatrix,
    Instrument,
    Side,
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
    tetrahedral_povm,
    tetrahedral_states,
    unvec,
    vec,
)
from spapt.tomography import ShotConfig, _trajectory_components, trajectory

EYE2 = np.eye(2, dtype=complex)


def test_tetrahedral_states_are_normalized():
    for v in tetrahedral_states():
        assert abs(np.linalg.norm(v.amplitudes) - 1.0) < 1e-12


def test_tetrahedral_projector_sum():
    # oracle: direct sum of the four projectors
    acc = sum(v.projector() for v in tetrahedral_states())
    assert np.max(np.abs(acc - 2.0 * EYE2)) < 1e-10


def test_apply_refuses_a_map_whose_output_is_not_hermitian():
    # the output's (1, 2) entry is scaled by 1.001 and its (2, 1) entry is not: off Hermitian by 3.5e-4
    s = np.eye(16, dtype=complex)
    s[9, 9] = 1.001
    with pytest.raises(ValidationError, match="^state is not Hermitian"):
        apply(Channel(s), werner(0.3))
    with pytest.raises(ValidationError, match="^stack entry 1: state is not Hermitian"):
        apply(Channel(s), werner([1.0, 0.3]))


def test_tetrahedral_overlaps_are_symmetric():
    vs = tetrahedral_states()
    overlaps = [
        abs(np.vdot(vs[j].amplitudes, vs[k].amplitudes)) ** 2
        for j in range(4)
        for k in range(j + 1, 4)
    ]
    assert max(overlaps) - min(overlaps) < 1e-10
    assert all(abs(o - 1.0 / 3.0) < 1e-10 for o in overlaps)


def test_tetrahedral_povm_is_complete():
    measured = [side for branch in SPA_PT_INSTRUMENT.branches for side in branch.sides if side.povm]
    assert len(measured) == 2
    for side in measured:
        assert np.max(np.abs(sum(side.povm) - EYE2)) < 1e-10


def test_spa_transpose_closed_form():
    ch = spa_transpose()
    assert np.max(np.abs(ch.apply_matrix(EYE2 / 2.0) - EYE2 / 2.0)) < 1e-12
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    # closed form (1/3) rho^T + (2/3) I/2 cross-checked against the
    # measure-and-prepare outcome sum the channel actually performs
    assert np.max(np.abs(ch.apply_matrix(ket0) - np.diag([2.0 / 3.0, 1.0 / 3.0]))) < 1e-12
    rng = np.random.default_rng(31)
    for _ in range(100):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        expected = rho.T / 3.0 + np.trace(rho) * EYE2 / 3.0
        assert np.max(np.abs(ch.apply_matrix(rho) - expected)) < 1e-10


def test_spa_transpose_is_physical_but_raw_transpose_is_not():
    assert herm_eig(choi(spa_transpose()).mat).values[0] >= -1e-10
    raw_transpose = Channel(np.eye(4)[[0, 2, 1, 3]])  # vec(x.T) permutes vec(x)
    lam = herm_eig(choi(raw_transpose).mat).values[0]
    assert abs(lam + 0.5) < 1e-10


def test_spa_inversion_closed_form():
    ch = spa_inversion()
    assert np.max(np.abs(ch.apply_matrix(EYE2 / 2.0) - EYE2 / 2.0)) < 1e-12
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    assert np.max(np.abs(ch.apply_matrix(ket0) - np.diag([1.0 / 3.0, 2.0 / 3.0]))) < 1e-12


def test_spa_inversion_is_sigma_y_conjugate_of_spa_transpose():
    conjugation = np.kron(PAULI_Y.conj(), PAULI_Y)  # superoperator of x -> sy x sy
    expected = conjugation @ spa_transpose().superoperator()
    assert np.max(np.abs(spa_inversion().superoperator() - expected)) < 1e-10


def test_depolarize_erases_any_input():
    ch = depolarize()
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    assert np.max(np.abs(ch.apply_matrix(ket0) - EYE2 / 2.0)) < 1e-12
    bloch_x = EYE2 / 2.0 + PAULI_X / 2.0
    assert np.max(np.abs(ch.apply_matrix(bloch_x) - EYE2 / 2.0)) < 1e-12


def test_depolarize_superoperator_equals_replace_map():
    assert np.max(np.abs(depolarize().superoperator() - replace_channel(2).mat)) < 1e-12


def test_spa_pt_fixes_maximally_mixed_state():
    rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
    assert np.max(np.abs(apply(spa_pt(), rho).mat - np.eye(4) / 4.0)) < 1e-12


def test_spa_pt_spectrum_on_bell_input():
    out = apply(spa_pt(), bell("phi+"))
    # affine-shift oracle: (1/9) * {-1/2, 1/2, 1/2, 1/2} + 2/9
    expected = np.sort(np.array([-0.5, 0.5, 0.5, 0.5]) / 9.0 + 2.0 / 9.0)
    assert np.max(np.abs(herm_eig(out.mat).values - expected)) < 1e-12
    assert abs(herm_eig(out.mat).values[0] - 1.0 / 6.0) < 1e-12


def test_spa_pt_spectrum_on_product_input():
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0
    out = apply(spa_pt(), DensityMatrix(ket00))
    expected = np.sort(np.array([1.0, 0.0, 0.0, 0.0]) / 9.0 + 2.0 / 9.0)
    assert np.max(np.abs(herm_eig(out.mat).values - expected)) < 1e-12
    assert abs(herm_eig(out.mat).values[0] - 2.0 / 9.0) < 1e-12


def test_decomposition_identity_of_spa_pt():
    actual = spa_pt().superoperator()
    expected = partial_transpose_channel().mat / 9.0 + (8.0 / 9.0) * replace_channel(4).mat
    assert np.max(np.abs(actual - expected)) < 1e-10


def test_ideal_pt_examples():
    rng = np.random.default_rng(32)
    # separable mixtures stay PSD under the partial transpose
    for _ in range(10):
        mat = np.zeros((4, 4), dtype=complex)
        for _ in range(4):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = np.kron(a / np.linalg.norm(a), b / np.linalg.norm(b))
            mat += 0.25 * np.outer(v, v.conj())
        rho = DensityMatrix(mat / np.real(np.trace(mat)))
        assert herm_eig(partial_transpose(rho.mat)).values[0] >= -1e-9
    assert abs(herm_eig(partial_transpose(bell("psi-").mat)).values[0] + 0.5) < 1e-12
    for _ in range(10):
        rho = random_density_matrix(rng)
        assert abs(np.trace(partial_transpose(rho.mat)) - 1.0) < 1e-12


def test_apply_identity_channel():
    rng = np.random.default_rng(33)
    rho = random_density_matrix(rng)
    assert np.max(np.abs(apply(CHANNEL_FACTORIES["identity"](), rho).mat - rho.mat)) < 1e-12


def test_apply_spa_pt_to_werner_grid():
    channel = spa_pt()
    for p in np.linspace(0.0, 1.0, 11):
        lam = herm_eig(apply(channel, werner(p)).mat).values[0]
        assert abs(lam - (p + 2.0) / 12.0) < 1e-10


def test_spa_pt_spectrum_is_affine_in_pt_spectrum():
    rng = np.random.default_rng(34)
    channel = spa_pt()
    for _ in range(50):
        rho = random_density_matrix(rng)
        spec_pt = herm_eig(partial_transpose(rho.mat)).values
        spec_spa = herm_eig(apply(channel, rho).mat).values
        assert np.max(np.abs(spec_spa - (spec_pt / 9.0 + 2.0 / 9.0))) < 1e-10


def test_spa_pt_min_eigenvalue_equal_for_all_bell_inputs():
    channel = spa_pt()
    lams = [herm_eig(apply(channel, bell(k)).mat).values[0] for k in BELL_KINDS]
    assert max(lams) - min(lams) < 1e-10


def test_measure_prepare_outcome_sum_matches_superoperator():
    rng = np.random.default_rng(35)
    ch = spa_transpose()
    s = ch.superoperator()
    for _ in range(1000):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        via_superop = (s @ rho.reshape(-1, order="F")).reshape(2, 2, order="F")
        assert np.max(np.abs(ch.apply_matrix(rho) - via_superop)) < 1e-10
        assert np.max(np.abs(ch.apply_matrix(rho) - (rho.T / 3.0 + EYE2 / 3.0))) < 1e-10


def test_choi_certification():
    for ch in (spa_pt(), spa_transpose(), spa_inversion(), depolarize()):
        assert is_cp(ch)
        assert is_tp(ch)
    assert not is_cp(partial_transpose_channel())
    assert is_tp(partial_transpose_channel())


def test_choi_of_raw_partial_transpose_has_minus_half_eigenvalue():
    lam = herm_eig(choi(partial_transpose_channel()).mat).values[0]
    assert abs(lam + 0.5) < 1e-9


def test_choi_of_depolarize_is_maximally_mixed():
    assert np.max(np.abs(choi(depolarize()).mat - np.eye(4) / 4.0)) < 1e-12


def test_choi_trace_is_one_for_tp_maps():
    for ch in (spa_pt(), spa_transpose(), depolarize()):
        assert abs(np.trace(choi(ch).mat) - 1.0) < 1e-12


def test_superoperator_maps_identity_to_unit_trace_state():
    for ch in (spa_pt(), depolarize()):
        d = ch.dim
        vec_in = (np.eye(d, dtype=complex) / d).reshape(-1, order="F")
        out = (ch.superoperator() @ vec_in).reshape(d, d, order="F")
        assert abs(np.trace(out) - 1.0) < 1e-12


def test_instrument_validation():
    # weights off by 1e-9 (bound 1e-12) and a correction off unitarity by 1e-6
    # (bound 1e-9) are refused; weights off by 1e-13 are not
    for weight in (0.6, 0.5 + 1e-9):
        with pytest.raises(ValidationError, match="sum to 1"):
            Instrument((Branch(0.5, (IDENTITY_SIDE,)), Branch(weight, (IDENTITY_SIDE,))))
    assert Instrument((Branch(0.5, (IDENTITY_SIDE,)), Branch(0.5 + 1e-13, (IDENTITY_SIDE,)))).dim == 2
    with pytest.raises(ValidationError, match="same dimensions"):
        Instrument((Branch(0.5, (IDENTITY_SIDE,)), Branch(0.5, (IDENTITY_SIDE, IDENTITY_SIDE))))
    with pytest.raises(ValidationError, match="sum to identity"):
        Side(povm=tetrahedral_povm()[:3], prepared=tetrahedral_states()[:3])
    almost_unitary = np.diag([1.0, np.sqrt(1.0 + 1e-6)])
    assert np.max(np.abs(almost_unitary.T @ almost_unitary - EYE2)) == pytest.approx(1e-6)
    for correction in (EYE2 * 2.0, almost_unitary):
        with pytest.raises(ValidationError, match="not unitary"):
            Side(corrections=(correction,))
    with pytest.raises(ValidationError, match="not both or neither"):
        Side(povm=tetrahedral_povm(), prepared=tetrahedral_states(), corrections=(EYE2,))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: Channel("ab"), "superoperator"),
        (lambda: Channel([[1, 2], [3]]), "superoperator"),
        (lambda: Side(povm=([[1, 0], ["a", 0]],), prepared=tetrahedral_states()[:1]), "POVM effect"),
        (lambda: Side(corrections=([[1, 0], [0]],)), "correction"),
        (lambda: Side(povm=tetrahedral_povm(), prepared=("a", "b", "c", "d")), "prepared PureState"),
        (lambda: Branch("x", ()), "branch weight"),
        (lambda: Branch(None, ()), "branch weight"),
        (lambda: Branch(float("inf"), (IDENTITY_SIDE,)), "branch weight"),
        (lambda: Branch(float("nan"), (IDENTITY_SIDE,)), "branch weight"),
        (lambda: Branch(0.5, IDENTITY_SIDE), "tuple or list of sides"),
        (lambda: Side(povm=5), "povm must be a tuple or list"),
        (lambda: Side(corrections=None), "corrections must be a tuple or list"),
        (lambda: Side(povm=tetrahedral_povm(), prepared=5), "prepared must be a tuple or list"),
        (lambda: Instrument(5), "branches must be a tuple or list"),
    ],
    ids=[
        "channel-string", "channel-ragged", "side-povm", "side-corrections", "side-prepared", "branch-string", "branch-none", "branch-inf", "branch-nan", "branch-one-side",
        "side-povm-not-a-sequence", "side-corrections-none", "side-prepared-not-a-sequence", "instrument-branches-not-a-sequence",
    ],
)
def test_channel_layer_input_is_a_validation_error_naming_the_field(build, field):
    with pytest.raises(ValidationError, match=field):
        build()


def test_a_branch_weight_is_held_exactly():
    assert Branch(2.0 / 3.0, (IDENTITY_SIDE,)).weight == Fraction(2.0 / 3.0)
    assert Branch(Fraction(1, 3), (IDENTITY_SIDE,)).weight == Fraction(1, 3)


def test_a_channel_is_square_and_sized_by_its_superoperator():
    assert [f.name for f in dataclasses.fields(Channel)] == ["mat", "instrument"]
    assert Channel(np.eye(9)).dim == 3
    with pytest.raises(TypeError):
        Channel(np.eye(16), (4, 4))  # the instrument is not an argument of Channel
    for shape in [(4, 16), (16, 4), (8, 8), (0, 0), (4,)]:
        with pytest.raises(ValidationError, match=r"\(dim\^2, dim\^2\) matrix"):
            Channel(np.zeros(shape))


def test_an_instrument_is_checked_when_built_and_paired_with_its_channel():
    with pytest.raises(ValidationError, match="an instrument holds Branch entries only"):
        Instrument((5,))
    with pytest.raises(ValidationError, match="branch weights must sum to 1"):
        Instrument(SPA_PT_INSTRUMENT.branches[:1])
    with pytest.raises(ValidationError, match="an instrument needs at least one branch"):
        Instrument(())
    # only Instrument.channel pairs a superoperator with an instrument, so the two cannot disagree
    with pytest.raises(TypeError):
        Channel(np.eye(16), instrument=SPA_PT_INSTRUMENT)
    instrument = Instrument(list(SPA_PT_INSTRUMENT.branches))
    assert instrument.branches == SPA_PT_INSTRUMENT.branches and instrument.dim == 4
    channel = instrument.channel()
    assert channel.instrument is instrument and np.array_equal(channel.mat, spa_pt().mat)
    assert Instrument((Branch(1, (TRANSPOSE_SIDE,)),)).channel().dim == 2
    assert Channel(np.eye(16)).instrument is None


def test_cli_channels_and_their_trajectories_build_no_instrument(monkeypatch):
    check, built = Instrument.__post_init__, []
    monkeypatch.setattr(Instrument, "__post_init__", lambda self: built.append(self) or check(self))
    cfg = ShotConfig(shots_per_setting=100, seed=3)
    for factory in CHANNEL_FACTORIES.values():
        channel = factory()
        assert channel.instrument is factory().instrument
        trajectory(werner(0.6), channel.instrument, cfg)
    assert built == []
    Instrument(SPA_PT_INSTRUMENT.branches)
    assert len(built) == 1


@pytest.mark.parametrize("factory", [spa_transpose, spa_inversion, depolarize], ids=["spa_transpose", "spa_inversion", "depolarize"])
def test_one_qubit_channels_share_one_instrument(monkeypatch, factory):
    check, built = Instrument.__post_init__, []
    monkeypatch.setattr(Instrument, "__post_init__", lambda self: built.append(self) or check(self))
    first, second = factory(), factory()
    assert first is not second and first.instrument is second.instrument
    assert np.array_equal(first.mat, second.mat)
    assert built == []


def test_vec_stacks_columns_of_each_matrix_of_a_stack():
    stack = np.arange(2 * 9).reshape(2, 3, 3) + 1j
    columns = vec(stack)
    assert columns.shape == (2, 9)
    for k in range(2):
        assert np.array_equal(columns[k], stack[k].reshape(-1, order="F"))
        assert np.array_equal(vec(stack[k]), columns[k])
    assert np.array_equal(unvec(columns, 3), stack)
    assert np.array_equal(unvec(columns[0], 3), stack[0])


def test_replace_channel_takes_an_integer_dim_from_one_to_four():
    for dim in range(1, 5):
        assert np.array_equal(replace_channel(dim).apply_matrix(np.eye(dim)), np.eye(dim))
    for bad in (0, 5, -1, 2.0, True, "2"):
        with pytest.raises(ValidationError, match=r"integer dim in \[1, 4\]"):
            replace_channel(bad)


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(ValidationError, match=r"operator shape \(4, 4\) does not match channel input dim 2"):
        apply(spa_transpose(), bell("phi+"))


def _spa_transpose_oracle(x):
    return x.T / 3.0 + np.trace(x) * EYE2 / 3.0


def _spa_inversion_oracle(x):
    return (2.0 / 3.0) * np.trace(x) * EYE2 - x / 3.0


def _depolarize_oracle(x):
    return np.trace(x) * EYE2 / 2.0


def _identity_oracle(x):
    return x


def _product_oracle(on_a, on_b):
    """(on_a (x) on_b)(x): on_b maps each 2x2 block of x, on_a the 2x2
    arrays that collect one entry of every block."""

    def fn(x):
        t = x.reshape(2, 2, 2, 2).astype(complex)  # [row A, row B, col A, col B]
        for a in range(2):
            for c in range(2):
                t[a, :, c, :] = on_b(t[a, :, c, :])
        for b in range(2):
            for d in range(2):
                t[:, b, :, d] = on_a(t[:, b, :, d])
        return t.reshape(4, 4)

    return fn


def _spa_pt_oracle(x):
    pt = x.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return pt / 9.0 + (2.0 / 9.0) * np.trace(x) * np.eye(4)


CLOSED_FORMS = {
    "spa_pt": _spa_pt_oracle,
    "id_spa_transpose": _product_oracle(_identity_oracle, _spa_transpose_oracle),
    "spa_transpose_id": _product_oracle(_spa_transpose_oracle, _identity_oracle),
    "spa_inversion_depolarize": _product_oracle(_spa_inversion_oracle, _depolarize_oracle),
    "id_depolarize": _product_oracle(_identity_oracle, _depolarize_oracle),
    "depolarize_id": _product_oracle(_depolarize_oracle, _identity_oracle),
    "identity": _identity_oracle,
    "spa_transpose": _spa_transpose_oracle,
    "spa_inversion": _spa_inversion_oracle,
    "depolarize": _depolarize_oracle,
}
REPRESENTATION_CASES = {**CHANNEL_FACTORIES, "spa_transpose": spa_transpose, "spa_inversion": spa_inversion, "depolarize": depolarize}


@pytest.mark.parametrize("name", sorted(REPRESENTATION_CASES))
def test_superoperator_agrees_with_block_oracle_and_choi_partial_trace(name):
    ch = REPRESENTATION_CASES[name]()
    d = 2 if name in ("spa_transpose", "spa_inversion", "depolarize") else 4
    assert ch.dim == d
    assert is_cp(ch) and is_tp(ch)
    rng = np.random.default_rng(36)
    for _ in range(20):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.max(np.abs(ch.apply_matrix(x) - CLOSED_FORMS[name](x))) < 1e-12
    # oracle: the unnormalized Choi matrix traced over the output is I iff TP
    reduced = np.einsum("abad->bd", (d * choi(ch).mat).reshape(d, d, d, d))
    assert np.max(np.abs(reduced - np.eye(d))) <= 1e-9
    # the sampler's exact outcome sum sum_c pi_c rho_c is the channel output;
    # a state is two qubits, and the one-qubit channels' sides all appear in
    # the branches of the two-qubit ones
    if d == 4:
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T))
        probs, outputs = _trajectory_components(rho, ch.instrument)
        assert np.max(np.abs(np.tensordot(probs, outputs, axes=1) - ch.apply_matrix(rho.mat))) < 1e-12


def _channel_of_choi(j):
    """The channel whose Choi matrix is ``j``: the inverse of :func:`choi`'s reshuffle."""
    d = math.isqrt(len(j))
    return Channel((d * j).reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d))


def _random_kraus_channels(seed, count):
    """CP maps x -> sum_k K_k x K_k^dag of 1 to 5 random Kraus operators, on one qubit or two."""
    rng = np.random.default_rng(seed)
    built = []
    for k in range(count):
        d, n = (2, 4)[k % 2], 1 + k % 5
        ops = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
        built.append(Channel(sum(np.kron(op.conj(), op) for op in ops)))
    return built


def _random_non_cp_channels(seed, count):
    """Hermiticity-preserving maps whose Choi matrix is a random indefinite Hermitian."""
    rng = np.random.default_rng(seed)
    built = []
    for k in range(count):
        d = (2, 4)[k % 2]
        g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
        built.append(_channel_of_choi((g + g.conj().T) / 2.0))
    return built


def _choi_with_lambda_min(d, lam, seed):
    """A Choi matrix of dimension d^2 with eigenvalues lam, then values in [0.05, 1]."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    u, _ = np.linalg.qr(g)
    w = np.concatenate([[lam], rng.uniform(0.05, 1.0, d * d - 1)])
    return _channel_of_choi((u * w) @ u.conj().T)


BOUNDARY_OFFSETS = {"-1e-6": -1e-6, "-1e-12": -1e-12, "+1e-12": 1e-12, "+1e-6": 1e-6}


def _certificate_cases():
    cases = {f"factory-{name}": factory for name, factory in CHANNEL_FACTORIES.items()}
    cases.update(spa_transpose=spa_transpose, spa_inversion=spa_inversion, depolarize=depolarize, raw_partial_transpose=partial_transpose_channel)
    cases.update({f"replace-{d}": (lambda d=d: replace_channel(d)) for d in range(1, 5)})
    cases.update({f"kraus-{k}": (lambda ch=ch: ch) for k, ch in enumerate(_random_kraus_channels(61, 10))})
    cases.update({f"non-cp-{k}": (lambda ch=ch: ch) for k, ch in enumerate(_random_non_cp_channels(62, 10))})
    for d in (2, 4):
        for name, offset in BOUNDARY_OFFSETS.items():
            cases[f"boundary-dim{d}-{name}"] = lambda d=d, offset=offset: _choi_with_lambda_min(d, -PSD_TOL + offset, 63 + d)
    return cases


CERTIFICATE_CASES = _certificate_cases()


@pytest.mark.parametrize("name", sorted(CERTIFICATE_CASES))
def test_is_cp_is_the_eigh_verdict_on_the_choi_matrix(name):
    ch = CERTIFICATE_CASES[name]()
    lam = herm_eig(choi(ch).mat).values[0]
    assert is_cp(ch) is bool(lam >= -PSD_TOL)
    if name.startswith("boundary"):
        # every boundary sits 1e-12 or more from -PSD_TOL, far above the rounding of either solve
        assert abs(lam + PSD_TOL) > 0.9e-12
        assert is_cp(ch) is name.endswith(("+1e-12", "+1e-6"))
    elif name.startswith(("factory", "spa", "depolarize", "replace", "kraus")):
        assert is_cp(ch)
    else:
        assert not is_cp(ch)


def test_a_channel_forms_its_choi_matrix_once_and_each_build_its_own():
    ch = spa_pt()
    assert choi(ch) is choi(ch) is ch.choi
    for factory in [*CHANNEL_FACTORIES.values(), spa_transpose, spa_inversion, depolarize]:
        first, second = factory(), factory()
        assert choi(first) is not choi(second)
        assert np.array_equal(choi(first).mat, choi(second).mat)


def test_is_cp_after_choi_builds_no_second_choi_matrix(monkeypatch):
    built, check = [], ChoiMatrix.__post_init__
    monkeypatch.setattr(ChoiMatrix, "__post_init__", lambda self: built.append(self) or check(self))
    for factory in CHANNEL_FACTORIES.values():
        ch = factory()
        before = len(built)
        held = choi(ch)
        assert is_cp(ch) and is_tp(ch)
        assert choi(ch) is held
        assert len(built) - before == 1
    assert is_cp(spa_pt()) and len(built) == len(CHANNEL_FACTORIES) + 1


def test_is_cp_decides_with_one_values_only_solve(monkeypatch):
    calls = []

    def counting(name):
        solve = getattr(linalg, name)
        return lambda a, **kwargs: calls.append(name) or solve(a, **kwargs)

    for name in ("_eigh", "_eigvalsh"):
        monkeypatch.setattr(linalg, name, counting(name))
    ch = spa_pt()
    assert is_cp(ch) and is_cp(ch)
    assert calls == ["_eigvalsh", "_eigvalsh"]


def test_a_failed_values_only_solve_is_a_numeric_error(monkeypatch):
    # as for eigh: LAPACK given NaN sets the invalid flag, an error under
    # pytest, and with the flag ignored its NaN eigenvalues are caught
    eigvalsh = linalg._eigvalsh
    monkeypatch.setattr(linalg, "_eigvalsh", lambda a, **kwargs: eigvalsh(np.full_like(a, np.nan), **kwargs))
    with pytest.raises(NumericError, match="^eigh did not converge: invalid value"):
        is_cp(spa_pt())
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="^eigh did not converge: LAPACK returned NaN eigenvalues$"):
        is_cp(spa_pt())


def test_the_values_only_solve_guards_the_dimension_as_eigh_does():
    eye = np.eye(5)
    for bad in (Channel(np.eye(25)), Channel(np.outer(vec(eye / 5.0), vec(eye)))):
        assert choi(bad).mat.shape == (25, 25)
        for _ in range(2):
            with pytest.raises(ValidationError, match="^dimension 25 exceeds the supported maximum 16$"):
                is_cp(bad)


def test_a_choi_matrix_that_fails_the_gate_raises_on_every_call():
    s = np.eye(16, dtype=complex)
    s[9, 9] = 1.001  # the map scales one output entry and not its mirror
    ch = Channel(s)
    for check in (choi, is_cp, choi, is_cp):
        with pytest.raises(ValidationError, match="^Choi matrix is not Hermitian"):
            check(ch)
    assert "choi" not in vars(ch)


def test_is_tp_reads_one_read_only_identity_row_per_dimension():
    row = channels._identity_row(4)
    assert channels._identity_row(4) is row and np.array_equal(row, vec(np.eye(4)))
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 2.0
    assert is_tp(spa_pt()) and is_tp(spa_transpose())
    s = np.eye(16, dtype=complex)
    s[0, 0] = 1.0 + 2e-9  # |0><0| -> (1 + 2e-9) |0><0|: off trace preservation by twice the tolerance
    assert not is_tp(Channel(s))
    s[0, 0] = 1.0 + 0.5e-9
    assert is_tp(Channel(s))
