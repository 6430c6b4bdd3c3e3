"""Kernel tests: tensor algebra, the validated LAPACK eigensolver, the
finite/Hermitian gate, PSD square root, partial transpose, and the
partial-trace oracle that other test modules import.

herm_eig wraps numpy's eigh gufunc, so comparing it with eigvalsh checks the
wrapper (gate, Hermitian part, ordering), not LAPACK; analytic spectra and
reconstruction identities are the independent oracles."""

import numpy as np
import pytest

from spapt.linalg import (
    HERMITIAN_TOL,
    PAULI_X,
    PAULI_Z,
    PSD_TOL,
    RAW_TOL,
    TRACE_TOL,
    ValidationError,
    dag,
    gated_eig,
    herm_eig,
    require_hermitian,
    partial_transpose,
    psd_sqrt_from,
)
from spapt.states import DensityMatrix, bell, werner
from spapt.channels import ChoiMatrix, apply, choi, spa_pt
from spapt.cli import CHANNEL_FACTORIES
from spapt.tomography import ShotConfig, project_to_physical, qst_linear_inversion, sample_pauli_expectations, sample_table, trajectory_spa_pt
from spapt.detection import FHatOperator, f_hat, witness_expectation

PHI_PLUS = np.zeros((4, 4), dtype=complex)
PHI_PLUS[0, 0] = PHI_PLUS[0, 3] = PHI_PLUS[3, 0] = PHI_PLUS[3, 3] = 0.5
PSI_MINUS = bell("psi-").mat


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


def _werner_plus(entries):
    """werner(0.3) with {(row, column): value} added to its entries."""
    m = np.array(werner(0.3).mat)
    for index, value in entries.items():
        m[index] += value
    return m


NON_FINITE = {
    "inf_upper": _werner_plus({(0, 1): np.inf}),
    "inf_lower": _werner_plus({(1, 0): np.inf}),
    "inf_pair": _werner_plus({(0, 1): np.inf, (1, 0): np.inf}),
    "minus_inf": _werner_plus({(2, 3): -np.inf}),
    "nan": _werner_plus({(1, 2): np.nan}),
    "inf_imag_diagonal": _werner_plus({(2, 2): complex(0.0, np.inf)}),
}
GATED_CALLS = {
    "require_hermitian": require_hermitian,
    "herm_eig": herm_eig,
    "DensityMatrix": DensityMatrix,
    "FHatOperator": FHatOperator,
    "project_to_physical": project_to_physical,
}


@pytest.mark.parametrize("entry", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("call", GATED_CALLS.values(), ids=GATED_CALLS.keys())
def test_a_non_finite_entry_is_named_before_any_arithmetic_on_it(call, entry):
    # under filterwarnings = error, inf - inf in the Hermitian defect would raise a
    # RuntimeWarning instead; the gate names the matrix, or the entry of a stack
    with pytest.raises(ValidationError, match="^[a-z ]*entries must be finite"):
        call(entry)
    stack = np.array([werner(0.3).mat] * 4)
    stack[2] = entry
    with pytest.raises(ValidationError, match="^stack entry 2: [a-z ]*entries must be finite"):
        call(stack)


#: a check, its tolerance, a matrix that breaks it by eps, and how the check names the break
TOLERANCES = {
    "gate_hermitian": (herm_eig, HERMITIAN_TOL, lambda eps: _werner_plus({(0, 1): eps}), "matrix is not Hermitian"),
    "state_hermitian": (DensityMatrix, HERMITIAN_TOL, lambda eps: _werner_plus({(0, 1): eps}), "state is not Hermitian"),
    "state_trace": (DensityMatrix, TRACE_TOL, lambda eps: _werner_plus({(0, 0): eps}), "trace is not 1"),
    "state_psd": (DensityMatrix, PSD_TOL, lambda eps: np.diag([0.5 + eps, 0.5, 0.0, -eps]).astype(complex), "not positive semidefinite"),
    "projection_trace": (project_to_physical, RAW_TOL, lambda eps: _werner_plus({(0, 0): eps}), "trace too far from 1"),
}


@pytest.mark.parametrize("call, tol, broken, message", TOLERANCES.values(), ids=TOLERANCES.keys())
def test_a_check_passes_half_its_tolerance_and_refuses_twice_it(call, tol, broken, message):
    for stacked in (False, True):
        wrap = (lambda m: np.array([werner(0.3).mat, m])) if stacked else (lambda m: m)
        call(wrap(broken(0.5 * tol)))
        with pytest.raises(ValidationError, match=("^stack entry 1: " if stacked else "^") + message):
            call(wrap(broken(2.0 * tol)))


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


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(50)],
        lambda rng: [rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4)) for n in (1, 2, 7, 51)],
        lambda rng: [np.zeros((0, 4, 4), dtype=complex)],
        lambda rng: [choi(factory()).mat for factory in CHANNEL_FACTORIES.values()] + [random_hermitian(rng, 16) for _ in range(10)],
    ],
    ids=["4x4", "stacks", "empty_stack", "choi_16x16"],
)
def test_gated_eig_is_numpy_eigh_bit_for_bit(build):
    for m in build(np.random.default_rng(16)):
        a = require_hermitian((m + dag(m)) / 2.0)
        w, v = gated_eig(a)
        want_w, want_v = np.linalg.eigh(a)
        assert (w.dtype, v.dtype, w.shape, v.shape) == (want_w.dtype, want_v.dtype, want_w.shape, want_v.shape)
        assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()


def _signed_zero_state():
    """A state whose conjugate pairs carry -0.0 real and imaginary parts."""
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    m[0, 1], m[1, 0] = complex(0.1, -0.0), complex(0.1, 0.0)
    m[2, 3], m[3, 2] = complex(-0.0, 0.05), complex(-0.0, -0.05)
    m[0, 3], m[3, 0] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    m[1, 2], m[2, 1] = complex(-0.0, 0.0), complex(-0.0, -0.0)
    return m


SIGNED_ZEROS = {"werner": werner(0.3).mat, "psi_minus": PSI_MINUS, "hand_made": _signed_zero_state()}


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("m", SIGNED_ZEROS.values(), ids=SIGNED_ZEROS.keys())
def test_the_hermitian_part_keeps_signed_zeros_bit_for_bit(m, stacked):
    # halving a complex array by * 0.5 moves the signed zeros of (a + a^dag) / 2.0,
    # and eigh returns other bytes for them; random normals never hold a zero
    if stacked:
        m = np.array([m, werner(0.7).mat, m])
    w, v = gated_eig(require_hermitian(m))
    want_w, want_v = np.linalg.eigh((m + dag(m)) / 2.0)
    assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()
    spectrum, solved = DensityMatrix(m).spectrum, herm_eig(m)
    assert spectrum.values.tobytes() == solved.values.tobytes() and spectrum.vectors.tobytes() == solved.vectors.tobytes()
    assert spectrum.values.tobytes() == w.tobytes() and spectrum.vectors.tobytes() == v.tobytes()


def test_a_state_documents_its_spectrum_as_herm_eig_of_its_input_not_of_its_mat():
    # (h + h^dag) / 2.0 is no bitwise fixed point of a signed-zero h, since numpy divides
    # a complex by 2.0 as a complex division: the spectrum is herm_eig(m), not herm_eig(mat)
    assert "equals ``herm_eig`` of the matrix it was built from" in " ".join(DensityMatrix.__doc__.split())
    m = _signed_zero_state()
    rho = DensityMatrix(m)
    assert rho.spectrum.vectors.tobytes() == herm_eig(m).vectors.tobytes() != herm_eig(rho.mat).vectors.tobytes()


VALIDATED = ["require_hermitian", "DensityMatrix", "FHatOperator", "apply", "trajectory", "project_to_physical"]


@pytest.fixture(scope="module")
def validated_values():
    """Every kind of validated Hermitian value, each built from an input Hermitian only up to rounding."""
    rng = np.random.default_rng(27)
    raw = random_hermitian(rng, 4)
    raw[0, 1] += 1e-12
    states = DensityMatrix([random_density(rng, 4) for _ in range(5)])
    cfg = ShotConfig(shots_per_setting=500, seed=27)
    values = {
        "require_hermitian": require_hermitian(raw),
        "DensityMatrix": states.mat,
        "FHatOperator": f_hat(sample_table(states, cfg)).mat,
        "apply": apply(spa_pt(), states).mat,
        "trajectory": trajectory_spa_pt(states, cfg).mat,
        "project_to_physical": project_to_physical(qst_linear_inversion(sample_pauli_expectations(states, cfg))).mat,
    }
    return values | {f"choi_{name}": choi(factory()).mat for name, factory in CHANNEL_FACTORIES.items()}


@pytest.mark.parametrize("name", VALIDATED + [f"choi_{name}" for name in CHANNEL_FACTORIES])
def test_every_validated_hermitian_value_holds_an_exactly_hermitian_matrix(validated_values, name):
    x = validated_values[name]
    assert np.array_equal(x, dag(x))
    assert not x.flags.writeable


HALF_TOL_OFF = {
    "require_hermitian": (require_hermitian, lambda x: x),
    "DensityMatrix": (DensityMatrix, lambda x: x.mat),
    "FHatOperator": (FHatOperator, lambda x: x.mat),
    "ChoiMatrix": (ChoiMatrix, lambda x: x.mat),
}


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize("build, stored", HALF_TOL_OFF.values(), ids=HALF_TOL_OFF.keys())
def test_an_input_off_hermitian_within_the_tolerance_is_stored_as_its_hermitian_part(build, stored, stacked):
    m = _werner_plus({(0, 1): 0.5 * HERMITIAN_TOL, (2, 3): complex(0.0, 0.25 * HERMITIAN_TOL)})
    if stacked:
        m = np.array([werner(0.7).mat, m])
    x = stored(build(m))
    assert x.tobytes() == ((m + dag(m)) / 2.0).tobytes()
    assert np.array_equal(x, dag(x)) and not np.array_equal(m, dag(m))


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
