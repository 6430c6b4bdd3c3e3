"""Kernel tests: tensor algebra, the validated LAPACK eigensolver, the
finite/Hermitian gate, PSD square root, partial transpose, and the
partial-trace oracle that other test modules import.

herm_eig wraps numpy.linalg.eigh, so comparing it with eigvalsh checks the
wrapper (gate, symmetrization, ordering), not LAPACK; analytic spectra and
reconstruction identities are the independent oracles."""

import numpy as np
import pytest

from spapt.linalg import (
    PAULI_X,
    PAULI_Z,
    ValidationError,
    dag,
    herm_eig,
    partial_transpose,
    psd_sqrt_from,
)
from spapt.states import DensityMatrix, werner
from spapt.channels import ChoiMatrix
from spapt.tomography import project_to_physical
from spapt.detection import FHatOperator, witness_expectation

PHI_PLUS = np.zeros((4, 4), dtype=complex)
PHI_PLUS[0, 0] = PHI_PLUS[0, 3] = PHI_PLUS[3, 0] = PHI_PLUS[3, 3] = 0.5


def psd_sqrt(m):
    return psd_sqrt_from(herm_eig(m))


def partial_trace(m, keep):
    """Oracle: the two-qubit operator ``m`` reduced to subsystem ``keep``, "A" or "B"."""
    return np.einsum("abcb->ac" if keep == "A" else "abac->bc", np.reshape(m, (2, 2, 2, 2)))


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n):
    g = random_complex(rng, n)
    return (g + g.conj().T) / 2.0


def random_density(rng, n):
    g = random_complex(rng, n)
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def waveplate(theta, quarter):
    """Jones matrix of a half- or quarter-wave retarder at angle theta."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    retard = np.diag([1.0, 1j if quarter else -1.0]).astype(complex)
    return rot @ retard @ rot.conj().T


def test_kron_of_sigma_x_pair_swaps_basis_states():
    xx = np.kron(PAULI_X, PAULI_X)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = expected[3, 0] = 1.0  # |00> <-> |11>
    expected[1, 2] = expected[2, 1] = 1.0  # |01> <-> |10>
    assert np.array_equal(xx, expected)


def test_adjoint_is_an_involution():
    rng = np.random.default_rng(5)
    m = random_complex(rng, 4)
    assert np.array_equal(dag(dag(m)), m)


def test_trace_of_kron_factorizes():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = random_complex(rng, 2)
        b = random_complex(rng, 2)
        # oracle: expand the kron diagonal entry by entry
        expanded = sum(a[i, i] * b[j, j] for i in range(2) for j in range(2))
        assert abs(np.trace(np.kron(a, b)) - expanded) < 1e-12
        assert abs(expanded - np.trace(a) * np.trace(b)) < 1e-12


def test_elementary_algebra_matches_loop_oracles():
    rng = np.random.default_rng(4)
    a = random_complex(rng, 2)
    b = random_complex(rng, 2)
    assert np.array_equal(a + b, np.array([[a[i, j] + b[i, j] for j in range(2)] for i in range(2)]))
    assert np.array_equal(2.5 * a, np.array([[2.5 * a[i, j] for j in range(2)] for i in range(2)]))
    product = np.array([[sum(a[i, k] * b[k, j] for k in range(2)) for j in range(2)] for i in range(2)])
    assert np.max(np.abs(a @ b - product)) < 1e-12
    assert abs(np.trace(a) - (a[0, 0] + a[1, 1])) == 0.0


def test_incompatible_dimensions_are_rejected():
    with pytest.raises(ValueError):
        np.zeros((2, 2)) + np.zeros((4, 4))
    with pytest.raises(ValueError):
        np.zeros((2, 2)) @ np.zeros((4, 4))


def test_herm_eig_pauli_z():
    w, v = herm_eig(PAULI_Z)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)
    assert np.allclose((v * w) @ v.conj().T, PAULI_Z, atol=1e-12)


def test_herm_eig_scalar_matrix():
    w, _ = herm_eig(np.eye(4, dtype=complex) / 4.0)
    assert np.allclose(w, [0.25] * 4, atol=1e-14)


def test_herm_eig_of_partially_transposed_bell_projector():
    # analytic oracle: PT couples |01>,|10> through an off-diagonal 1/2
    # block with eigenvalues +-1/2, and leaves two diagonal 1/2 entries
    block = np.array([[0.0, 0.5], [0.5, 0.0]])
    analytic = sorted([0.5, 0.5] + list(np.linalg.eigvalsh(block)))
    w, _ = herm_eig(partial_transpose(PHI_PLUS))
    assert np.allclose(w, analytic, atol=1e-12)
    assert abs(w[0] + 0.5) < 1e-12


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_herm_eig_rejects_oversized_input():
    with pytest.raises(ValidationError):
        herm_eig(np.eye(17, dtype=complex))


@pytest.mark.parametrize(
    "call",
    [
        herm_eig,
        psd_sqrt,
        project_to_physical,
        FHatOperator,
        ChoiMatrix,
        lambda m: witness_expectation(werner(0.5), m),
    ],
    ids=["herm_eig", "psd_sqrt", "project_to_physical", "FHatOperator", "ChoiMatrix", "witness_expectation"],
)
def test_non_finite_input_is_a_validation_error(call):
    with pytest.raises(ValidationError, match="finite"):
        call(np.full((4, 4), np.nan, dtype=complex))


@pytest.mark.parametrize(
    "call",
    [
        lambda: DensityMatrix([np.eye(4) / 4.0, np.eye(2) / 2.0]),
        lambda: DensityMatrix(np.full((4, 4), "x")),
        lambda: herm_eig([[1, 2], [3]]),
        lambda: partial_transpose([[1, 2], [3]]),
    ],
    ids=["ragged_state_stack", "string_matrix", "ragged_herm_eig", "ragged_partial_transpose"],
)
def test_non_numeric_input_is_a_validation_error(call):
    with pytest.raises(ValidationError, match="numeric"):
        call()


def test_herm_eig_reconstructs_random_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = random_hermitian(rng, 4)
        w, v = herm_eig(m)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-9
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-10


def test_herm_eig_agrees_with_lapack_oracle():
    rng = np.random.default_rng(8)
    for n in (2, 4, 16):
        for _ in range(10):
            m = random_hermitian(rng, n)
            w, _ = herm_eig(m)
            assert np.max(np.abs(w - np.linalg.eigvalsh(m))) < 1e-10


def test_eigenvalues_invariant_under_waveplate_unitaries():
    rng = np.random.default_rng(9)
    for _ in range(10):
        m = random_hermitian(rng, 4)
        u1 = waveplate(rng.uniform(0, np.pi), True) @ waveplate(rng.uniform(0, np.pi), False)
        u2 = waveplate(rng.uniform(0, np.pi), False) @ waveplate(rng.uniform(0, np.pi), True)
        u = np.kron(u1, u2)
        w_before = herm_eig(m).values
        w_after = herm_eig(u @ m @ u.conj().T).values
        assert np.max(np.abs(w_before - w_after)) < 1e-9


def test_psd_sqrt_identity():
    assert np.allclose(psd_sqrt(np.eye(2, dtype=complex)), np.eye(2), atol=1e-12)


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex)), np.diag([2.0, 1.0, 0.0, 0.0]), atol=1e-12)


def test_psd_sqrt_rank_one_projector_is_fixed():
    assert np.max(np.abs(psd_sqrt(PHI_PLUS) - PHI_PLUS)) < 1e-10


def test_psd_sqrt_squares_back_to_clamped_input():
    rng = np.random.default_rng(10)
    for _ in range(20):
        rho = 4.0 * random_density(rng, 4)
        root = psd_sqrt(rho)
        assert np.max(np.abs(root @ root - rho)) < 1e-8
    # slightly negative eigenvalues are clamped, not propagated
    w = np.diag([1.0, 0.5, 0.0, -0.5e-9]).astype(complex)
    root = psd_sqrt(w)
    assert np.max(np.abs(root @ root - np.diag([1.0, 0.5, 0.0, 0.0]))) < 1e-8


def test_psd_sqrt_rejects_indefinite_input():
    with pytest.raises(ValidationError):
        psd_sqrt(np.diag([1.0, -0.1]).astype(complex))


def test_partial_transpose_of_product_transposes_second_factor():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        assert np.max(np.abs(partial_transpose(np.kron(a, b)) - np.kron(a, b.T))) < 1e-12


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(12)
    m = random_complex(rng, 4)
    assert np.array_equal(partial_transpose(partial_transpose(m)), m)


def test_partial_transpose_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        m = random_hermitian(rng, 4)
        pt = partial_transpose(m)
        assert abs(np.trace(pt) - np.trace(m)) < 1e-12
        assert np.max(np.abs(pt - pt.conj().T)) < 1e-12


def test_partial_transpose_rejects_wrong_dimension():
    with pytest.raises(ValidationError):
        partial_transpose(np.eye(2, dtype=complex))


def test_partial_trace_product_rule():
    rng = np.random.default_rng(14)
    a = random_density(rng, 2)
    b = 0.7 * random_density(rng, 2)
    assert np.max(np.abs(partial_trace(np.kron(a, b), "A") - a * np.trace(b))) < 1e-12
    assert np.max(np.abs(partial_trace(np.kron(a, b), "B") - b * np.trace(a))) < 1e-12


def test_partial_trace_of_bell_projector_is_maximally_mixed():
    assert np.max(np.abs(partial_trace(PHI_PLUS, "A") - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(15)
    m = random_complex(rng, 4)
    assert abs(np.trace(partial_trace(m, "A")) - np.trace(m)) < 1e-12
