"""Channel construction, closed forms, Choi certification and the exact
decomposition identity of the approximated partial transpose."""

import numpy as np
import pytest

from spapt.cli import CHANNEL_FACTORIES
from spapt.linalg import PAULI_X, PAULI_Y, PAULI_Z, ValidationError, herm_eig
from spapt.states import BELL_KINDS, DensityMatrix, bell, random_density_matrix, werner
from spapt.channels import (
    SPA_PT_INSTRUMENT,
    KrausChannel,
    MixtureChannel,
    ProductChannel,
    apply,
    choi,
    depolarize,
    ideal_pt,
    identity_channel,
    is_cp,
    is_tp,
    partial_transpose_channel,
    replace_channel,
    spa_inversion,
    spa_pt,
    spa_transpose,
    superoperator_from_function,
    tetrahedral_states,
)

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
    for branch in SPA_PT_INSTRUMENT:
        acc = sum(branch.povm)
        assert np.max(np.abs(acc - EYE2)) < 1e-10


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
    raw_transpose = superoperator_from_function(lambda x: x.T, 2)
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
        assert herm_eig(ideal_pt(rho)).values[0] >= -1e-9
    assert abs(herm_eig(ideal_pt(bell("psi-"))).values[0] + 0.5) < 1e-12
    for _ in range(10):
        rho = random_density_matrix(rng)
        assert abs(np.trace(ideal_pt(rho)) - 1.0) < 1e-12


def test_apply_identity_channel():
    rng = np.random.default_rng(33)
    rho = random_density_matrix(rng)
    assert np.max(np.abs(apply(identity_channel(4), rho).mat - rho.mat)) < 1e-12


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
        spec_pt = herm_eig(ideal_pt(rho)).values
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
        d = ch.dim_in
        vec_in = (np.eye(d, dtype=complex) / d).reshape(-1, order="F")
        out = (ch.superoperator() @ vec_in).reshape(d, d, order="F")
        assert abs(np.trace(out) - 1.0) < 1e-12


def test_mixture_and_kraus_validation():
    with pytest.raises(ValidationError):
        MixtureChannel((0.5, 0.6), (identity_channel(2), identity_channel(2)))
    with pytest.raises(ValidationError):
        MixtureChannel((0.5, 0.5), (identity_channel(2), identity_channel(4)))
    with pytest.raises(ValidationError):
        KrausChannel((np.eye(2, dtype=complex) * 2.0,))


def test_apply_rejects_dimension_mismatch():
    qubit = DensityMatrix(np.eye(2, dtype=complex) / 2.0)
    with pytest.raises(ValidationError):
        apply(spa_pt(), qubit)


def test_product_channel_dimensions():
    ch = ProductChannel(spa_inversion(), depolarize())
    assert ch.dim_in == 4 and ch.dim_out == 4
    assert len(ch.kraus_ops()) == 16
    assert is_cp(ch) and is_tp(ch)


def test_pauli_kraus_of_depolarize():
    kraus = depolarize().kraus_ops()
    assert len(kraus) == 4
    acc = sum(k.conj().T @ k for k in kraus)
    assert np.max(np.abs(acc - EYE2)) < 1e-12
    assert np.max(np.abs(kraus[3] - PAULI_Z / 2.0)) < 1e-12


REPRESENTATION_CASES = {**CHANNEL_FACTORIES, "spa_transpose": spa_transpose, "spa_inversion": spa_inversion, "depolarize": depolarize}


@pytest.mark.parametrize("name", sorted(REPRESENTATION_CASES))
def test_superoperator_agrees_with_kraus_family_and_choi_partial_trace(name):
    ch = REPRESENTATION_CASES[name]()
    d, d_out = ch.dim_in, ch.dim_out
    rng = np.random.default_rng(36)
    for _ in range(20):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        kraus_sum = sum(k @ x @ k.conj().T for k in ch.kraus_ops())
        assert np.max(np.abs(ch.apply_matrix(x) - kraus_sum)) < 1e-12
    # oracle: the unnormalized Choi matrix traced over the output is I iff TP
    reduced = np.einsum("abad->bd", (d * choi(ch).mat).reshape(d_out, d, d_out, d))
    assert is_tp(ch) == bool(np.max(np.abs(reduced - np.eye(d))) <= 1e-9)
