"""State constructors, validation and scalar functionals.

The Wootters spin-flip construction evaluated with numpy's general
eigensolver acts as the independent oracle for the tangle."""

import numpy as np
import pytest

from spapt.linalg import ValidationError, herm_eig, partial_transpose
from spapt.states import (
    BELL_KINDS,
    NINE_STATE_PARAMS,
    DensityMatrix,
    PureState,
    bell,
    bell_vector,
    fidelity,
    linear_entropy,
    mems,
    min_eigenvalue,
    random_density_matrix,
    rho_family,
    tangle,
    werner,
)
from test_linalg import partial_trace


def wootters_tangle_oracle(mat):
    """Concurrence squared via the eigenvalues of rho * spin_flip(rho)."""
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    yy = np.kron(sy, sy)
    flipped = yy @ mat.conj() @ yy
    lams = np.sqrt(np.abs(np.sort(np.real(np.linalg.eigvals(mat @ flipped)))[::-1]))
    c = max(0.0, lams[0] - lams[1] - lams[2] - lams[3])
    return c * c


def haar_unitary(rng, n=2):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_bell_coherence_entry():
    for kind in ("phi+", "phi-"):
        rho = bell(kind)
        assert abs(abs(rho.mat[0, 3]) - 0.5) < 1e-12


def test_bell_states_are_maximally_entangled():
    for kind in BELL_KINDS:
        rho = bell(kind)
        assert abs(tangle(rho) - 1.0) < 1e-10
        assert abs(wootters_tangle_oracle(rho.mat) - 1.0) < 1e-10
        assert np.max(np.abs(partial_trace(rho.mat, "A") - np.eye(2) / 2.0)) < 1e-12


def test_bell_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        bell("sigma+")


def test_werner_limits():
    assert np.max(np.abs(werner(1.0).mat - np.eye(4) / 4.0)) < 1e-12
    assert np.max(np.abs(werner(0.0).mat - bell("psi-").mat)) < 1e-12


def test_werner_partial_transpose_minimum():
    for p in np.linspace(0.0, 1.0, 11):
        lam = herm_eig(partial_transpose(werner(p).mat)).values[0]
        assert abs(lam - (3.0 * p - 2.0) / 4.0) < 1e-10


def test_werner_rejects_out_of_range():
    with pytest.raises(ValidationError):
        werner(-0.01)
    with pytest.raises(ValidationError):
        werner(1.5)


def test_mems_limits_and_normalization():
    assert np.max(np.abs(mems(1.0).mat - bell("phi+").mat)) < 1e-12
    for p in np.linspace(0.0, 1.0, 11):
        assert abs(np.trace(mems(p).mat) - 1.0) < 1e-12


def test_mems_tangle_is_p_squared():
    for p in np.linspace(0.0, 1.0, 11):
        rho = mems(p)
        assert abs(tangle(rho) - p * p) < 1e-9
        assert abs(wootters_tangle_oracle(rho.mat) - p * p) < 1e-9


def test_tangle_matches_closed_forms_to_rounding():
    # rank-deficient states: near-zero eigenvalues must not pass through sqrt as noise
    for p in np.linspace(0.0, 1.0, 101):
        assert abs(tangle(mems(p)) - p * p) < 1e-12
    for p in np.linspace(0.0, 1.0, 11):
        for alpha in np.linspace(0.0, 1.0, 11):
            beta = np.sqrt(1.0 - alpha * alpha)
            assert abs(tangle(rho_family(p, alpha)) - (2.0 * alpha * beta * abs(1.0 - 2.0 * p)) ** 2) < 1e-12
    for kind in BELL_KINDS:
        assert abs(tangle(bell(kind)) - 1.0) < 1e-12


def test_rho_family_recovers_singlet():
    rho = rho_family(0.0, 1.0 / np.sqrt(2.0))
    assert np.max(np.abs(rho.mat - bell("psi-").mat)) < 1e-12


def test_rho_family_equal_mixture_has_no_tangle():
    for alpha in (0.3, 0.71, 0.92):
        assert tangle(rho_family(0.5, alpha)) < 1e-12


def test_rho_family_alpha_zero_is_classical():
    # alpha multiplies |01>, so alpha = 0 leaves |psi> = -|10> and the
    # mixture is diagonal in {|01>, |10>}: separable with zero tangle
    for p in (0.0, 0.3, 0.8):
        rho = rho_family(p, 0.0)
        expected = np.diag([0.0, p, 1.0 - p, 0.0]).astype(complex)
        assert np.max(np.abs(rho.mat - expected)) < 1e-12
        assert tangle(rho) < 1e-12


def test_rho_family_rejects_out_of_range():
    with pytest.raises(ValidationError):
        rho_family(1.01, 0.5)
    with pytest.raises(ValidationError):
        rho_family(0.5, -0.2)


def test_fidelity_self_is_one():
    rng = np.random.default_rng(21)
    for _ in range(5):
        rho = random_density_matrix(rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10


def test_fidelity_of_a_pure_state_with_itself_never_exceeds_one():
    # unclamped, rounding puts about a quarter of these pairs above 1
    rng = np.random.default_rng(27)
    values = [fidelity(rho, rho) for rho in (random_density_matrix(rng, n_components=1) for _ in range(200))]
    assert max(values) <= 1.0
    assert min(values) > 1.0 - 1e-9


def test_fidelity_orthogonal_bell_states():
    assert fidelity(bell("phi+"), bell("phi-")) < 1e-10


def test_fidelity_pure_state_overlap():
    rng = np.random.default_rng(22)
    for _ in range(5):
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        fid = fidelity(DensityMatrix(PureState(a).projector()), DensityMatrix(PureState(b).projector()))
        # sqrt of clipped near-zero eigenvalues limits accuracy to ~sqrt(eps)
        assert abs(fid - abs(np.vdot(a, b)) ** 2) < 1e-7


def test_fidelity_of_singlet_with_werner():
    singlet = bell("psi-")
    for p in np.linspace(0.0, 1.0, 11):
        rho = werner(p)
        # oracle: for a rank-1 projector the fidelity is the overlap <psi|rho|psi>
        psi = bell_vector("psi-").amplitudes
        overlap = float(np.real(psi.conj() @ rho.mat @ psi))
        assert abs(fidelity(singlet, rho) - overlap) < 1e-9
        assert abs(overlap - (1.0 - 0.75 * p)) < 1e-12


def test_fidelity_is_symmetric():
    rng = np.random.default_rng(23)
    for _ in range(10):
        a = random_density_matrix(rng)
        b = random_density_matrix(rng)
        assert abs(fidelity(a, b) - fidelity(b, a)) < 1e-8


def test_fidelity_below_one_for_distinct_states():
    rng = np.random.default_rng(24)
    for _ in range(10):
        a = random_density_matrix(rng)
        b = random_density_matrix(rng)
        if np.max(np.abs(a.mat - b.mat)) > 1e-2:
            assert fidelity(a, b) < 1.0 - 1e-8


def test_tangle_of_maximally_mixed_state():
    assert tangle(DensityMatrix(np.eye(4, dtype=complex) / 4.0)) == 0.0


def test_tangle_of_werner_closed_form():
    for p in np.linspace(0.0, 1.0, 11):
        expected = max(0.0, 1.0 - 1.5 * p) ** 2
        assert abs(tangle(werner(p)) - expected) < 1e-9
        assert abs(wootters_tangle_oracle(werner(p).mat) - expected) < 1e-9


def test_tangle_invariant_under_local_unitaries():
    rng = np.random.default_rng(25)
    for _ in range(10):
        rho = random_density_matrix(rng)
        u = np.kron(haar_unitary(rng), haar_unitary(rng))
        rotated = DensityMatrix(u @ rho.mat @ u.conj().T)
        assert abs(tangle(rotated) - tangle(rho)) < 1e-8


def test_linear_entropy_limits():
    for kind in BELL_KINDS:
        assert abs(linear_entropy(bell(kind))) < 1e-10
    assert abs(linear_entropy(DensityMatrix(np.eye(4, dtype=complex) / 4.0)) - 1.0) < 1e-12


def test_linear_entropy_of_complex_states_matches_their_eigenvalues():
    # oracle: (4/3)(1 - sum of squared eigenvalues), on states with complex entries
    rng = np.random.default_rng(41)
    states = random_density_matrix(rng, count=20)
    assert np.abs(states.mat.imag).max() > 0.1
    expected = (4.0 / 3.0) * (1.0 - (np.linalg.eigvalsh(states.mat) ** 2).sum(axis=-1))
    assert np.max(np.abs(linear_entropy(states) - expected)) < 1e-12
    for rho, value in zip(states, expected):
        assert abs(linear_entropy(rho) - value) < 1e-12


def test_linear_entropy_of_werner_half():
    rho = werner(0.5)
    # oracle: direct tr rho^2 evaluation
    purity = float(np.real(np.trace(rho.mat @ rho.mat)))
    assert abs(purity - 7.0 / 16.0) < 1e-12
    assert abs(linear_entropy(rho) - (4.0 / 3.0) * (1.0 - purity)) < 1e-12
    assert abs(linear_entropy(rho) - 0.75) < 1e-12


def test_nine_benchmark_states_have_finite_functionals():
    for p, alpha in NINE_STATE_PARAMS:
        rho = rho_family(p, alpha)
        t = tangle(rho)
        s = linear_entropy(rho)
        assert 0.0 <= t <= 1.0
        assert 0.0 <= s <= 1.0


def test_min_eigenvalue():
    assert abs(min_eigenvalue(bell("phi+"))) < 1e-12
    assert abs(min_eigenvalue(DensityMatrix(np.eye(4, dtype=complex) / 4.0)) - 0.25) < 1e-12


def test_density_matrix_validation_names_the_violated_invariant():
    with pytest.raises(ValidationError, match="Hermitian"):
        DensityMatrix(np.eye(4, dtype=complex) / 4.0 + np.triu(np.full((4, 4), 0.1), 1))
    with pytest.raises(ValidationError, match="trace"):
        DensityMatrix(np.eye(4, dtype=complex))
    with pytest.raises(ValidationError, match="positive"):
        DensityMatrix(np.diag([0.6, 0.3, 0.3, -0.2]).astype(complex))
    for dim in (2, 3):
        with pytest.raises(ValidationError, match=f"two-qubit state of dimension 4, got dimension {dim}"):
            DensityMatrix(np.eye(dim, dtype=complex) / dim)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_density_matrix_rejects_non_finite_entries(bad):
    mat = np.eye(4, dtype=complex) / 4.0
    mat[1, 2] = mat[2, 1] = bad
    with pytest.raises(ValidationError, match="finite"):
        DensityMatrix(mat)


def test_pure_state_requires_unit_norm():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0], dtype=complex))
    # the bound is rounding noise, 1e-12: a norm off by 1e-10 is refused
    with pytest.raises(ValidationError, match="not normalized: \\|norm - 1\\| = 1.000e-10"):
        PureState(np.array([1.0 + 1e-10, 0.0], dtype=complex))
    assert PureState(np.array([1.0 + 1e-13, 0.0], dtype=complex)).dim == 2


@pytest.mark.parametrize("bad", [[np.nan, 0.0], [1.0, np.nan], [np.nan, 0.0, 0.0, 0.0]])
def test_pure_state_rejects_nan_amplitudes(bad):
    with pytest.raises(ValidationError, match="not normalized"):
        PureState(bad)


@pytest.mark.parametrize("bad", ["ab", [1.0, "a"], [[1.0, 0.0], [0.0]]])
def test_pure_state_rejects_input_numpy_cannot_convert(bad):
    with pytest.raises(ValidationError, match="expected a numeric state vector"):
        PureState(bad)


def test_constructors_emit_validated_states():
    rng = np.random.default_rng(26)
    for _ in range(20):
        rho = random_density_matrix(rng)
        assert abs(np.trace(rho.mat) - 1.0) < 1e-12
        assert herm_eig(rho.mat).values[0] >= -1e-12
