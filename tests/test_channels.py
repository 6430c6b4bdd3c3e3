"""Channel construction, closed forms, Choi certification and the exact
decomposition identity of the approximated partial transpose."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from spapt.cli import CHANNEL_FACTORIES
from spapt.linalg import PAULI_X, PAULI_Y, ValidationError, herm_eig, partial_transpose
from spapt.states import BELL_KINDS, DensityMatrix, bell, random_density_matrix, werner
from spapt.channels import (
    IDENTITY_SIDE,
    SPA_PT_INSTRUMENT,
    Branch,
    Channel,
    Side,
    apply,
    choi,
    depolarize,
    instrument_channel,
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
from spapt.tomography import _trajectory_components

EYE2 = np.eye(2, dtype=complex)


def test_tetrahedral_states_are_normalized():
    for v in tetrahedral_states():
        assert abs(np.linalg.norm(v.amplitudes) - 1.0) < 1e-12


def test_tetrahedral_projector_sum():
    # oracle: direct sum of the four projectors
    acc = sum(v.projector() for v in tetrahedral_states())
    assert np.max(np.abs(acc - 2.0 * EYE2)) < 1e-10


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
    measured = [side for branch in SPA_PT_INSTRUMENT for side in branch.sides if side.povm]
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
    with pytest.raises(ValidationError, match="sum to 1"):
        instrument_channel((Branch(0.5, (IDENTITY_SIDE,)), Branch(0.6, (IDENTITY_SIDE,))))
    with pytest.raises(ValidationError, match="same dimensions"):
        instrument_channel((Branch(0.5, (IDENTITY_SIDE,)), Branch(0.5, (IDENTITY_SIDE, IDENTITY_SIDE))))
    with pytest.raises(ValidationError, match="sum to identity"):
        Side(povm=tetrahedral_povm()[:3], prepared=tetrahedral_states()[:3])
    with pytest.raises(ValidationError, match="not unitary"):
        Side(corrections=(np.eye(2, dtype=complex) * 2.0,))
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
    ],
    ids=["channel-string", "channel-ragged", "side-povm", "side-corrections", "side-prepared", "branch-string", "branch-none", "branch-inf", "branch-nan", "branch-one-side"],
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
        Channel(np.eye(16), (4, 4))  # the instrument is keyword-only
    for shape in [(4, 16), (16, 4), (8, 8), (0, 0), (4,)]:
        with pytest.raises(ValidationError, match=r"\(dim\^2, dim\^2\) matrix"):
            Channel(np.zeros(shape))


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
