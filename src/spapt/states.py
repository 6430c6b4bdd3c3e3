"""Validated quantum states, benchmark state families and scalar functionals.

States are immutable value objects: construction validates the physical
invariants (Hermiticity, unit trace, positivity within tolerance) and the
wrapped arrays are frozen, so instances can be shared freely across
workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    PAULI_Y,
    PSD_TOL,
    ROUND_TOL,
    TRACE_TOL,
    Spectrum,
    ValidationError,
    gated_eig,
    herm_eig,
    psd_sqrt_from,
    require_hermitian,
    sqrt_spectrum,
)

__all__ = [
    "PureState",
    "DensityMatrix",
    "BELL_KINDS",
    "NINE_STATE_PARAMS",
    "bell_vector",
    "bell",
    "werner",
    "mems",
    "rho_family",
    "fidelity",
    "tangle",
    "linear_entropy",
    "min_eigenvalue",
    "random_density_matrix",
]

@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector of a qubit or a qubit pair."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = np.array(self.amplitudes, dtype=complex)
        if amp.ndim != 1 or amp.shape[0] not in (2, 4):
            raise ValidationError(f"expected a vector of length 2 or 4, got shape {amp.shape}")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > ROUND_TOL:
            raise ValidationError(f"state vector is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        """Rank-1 projector |psi><psi| as a raw matrix."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.projector())


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix of dimension 2 or 4.

    Construction rejects anything that has a NaN or inf entry, is not
    Hermitian within 1e-9, unit-trace within 1e-9 or has an eigenvalue
    below -1e-9, naming the violated invariant in the error message.
    The eigendecomposition that checks positivity is kept, read-only, as
    ``spectrum``: it equals ``herm_eig(mat)`` bit for bit.
    """

    mat: np.ndarray
    spectrum: Spectrum = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        m = require_hermitian(self.mat, "state")
        if m.shape[0] not in (2, 4):
            raise ValidationError(f"supported dimensions are 2 and 4, got {m.shape[0]}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValidationError(f"trace is not 1: |tr - 1| = {abs(tr - 1.0):.3e}")
        spectrum = gated_eig(m)
        lam_min = float(spectrum.values[0])
        if lam_min < -PSD_TOL:
            raise ValidationError(f"not positive semidefinite: min eigenvalue = {lam_min:.3e}")
        for a in spectrum:
            a.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")

#: (p, alpha) pairs of the nine benchmark mixtures used in the detection sweep.
NINE_STATE_PARAMS = (
    (0.0, 0.71),
    (0.12, 0.71),
    (0.25, 0.71),
    (0.3, 0.71),
    (0.51, 0.71),
    (0.0, 0.92),
    (0.0, 0.97),
    (0.37, 0.86),
    (0.42, 0.92),
)

_SQRT2 = np.sqrt(2.0)


def bell_vector(kind: str) -> PureState:
    """One of the four maximally entangled two-qubit vectors."""
    if kind == "phi+":
        amp = [1, 0, 0, 1]
    elif kind == "phi-":
        amp = [1, 0, 0, -1]
    elif kind == "psi+":
        amp = [0, 1, 1, 0]
    elif kind == "psi-":
        amp = [0, 1, -1, 0]
    else:
        raise ValidationError(f"unknown Bell kind {kind!r}; expected one of {BELL_KINDS}")
    return PureState(np.array(amp, dtype=complex) / _SQRT2)


def bell(kind: str) -> DensityMatrix:
    """Rank-1 projector onto the named Bell vector."""
    return bell_vector(kind).density_matrix()


def _check_unit_interval(name: str, value: float) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValidationError(f"{name} must lie in [0, 1], got {value}")
    return value


def werner(p: float) -> DensityMatrix:
    """Singlet mixed with white noise: p*I/4 + (1-p)|psi-><psi-|."""
    p = _check_unit_interval("p", p)
    mat = p * np.eye(4, dtype=complex) / 4.0 + (1.0 - p) * bell_vector("psi-").projector()
    return DensityMatrix(mat)


def mems(p: float) -> DensityMatrix:
    """Maximally entangled mixed state at off-diagonal coherence p.

    X-shaped family with f(p) = p/2 for p >= 2/3 and f(p) = 1/3 below;
    its concurrence equals p, so the tangle is p^2.
    """
    p = _check_unit_interval("p", p)
    f = p / 2.0 if p >= 2.0 / 3.0 else 1.0 / 3.0
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = f
    mat[3, 3] = f
    mat[0, 3] = p / 2.0
    mat[3, 0] = p / 2.0
    mat[1, 1] = 1.0 - 2.0 * f
    return DensityMatrix(mat)


def rho_family(p: float, alpha: float) -> DensityMatrix:
    """Two-term mixture (1-p)|psi><psi| + p|psi_perp><psi_perp|.

    |psi> = alpha|01> - sqrt(1-alpha^2)|10> and |psi_perp> is its unique
    (up to phase) orthogonal companion in span{|01>, |10>}; alpha is real.
    """
    p = _check_unit_interval("p", p)
    alpha = _check_unit_interval("alpha", alpha)
    beta = np.sqrt(1.0 - alpha * alpha)
    psi = np.array([0.0, alpha, -beta, 0.0], dtype=complex)
    perp = np.array([0.0, beta, alpha, 0.0], dtype=complex)
    mat = (1.0 - p) * np.outer(psi, psi.conj()) + p * np.outer(perp, perp.conj())
    return DensityMatrix(mat)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2 in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValidationError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    s = psd_sqrt_from(rho.spectrum)
    w = herm_eig(s @ sigma.mat @ s).values
    val = float(np.sum(sqrt_spectrum(w)) ** 2)
    return min(max(val, 0.0), 1.0)


_YY = np.kron(PAULI_Y, PAULI_Y)
_YY.setflags(write=False)


def _spin_flip(mat: np.ndarray) -> np.ndarray:
    return _YY @ mat.conj() @ _YY


def tangle(rho: DensityMatrix) -> float:
    """Squared concurrence of a two-qubit state.

    Computed as C = max(0, l1 - l2 - l3 - l4) with l_k the descending
    square roots of the eigenvalues of rho * spin_flip(rho); those equal
    the eigenvalues of the Hermitian sqrt(rho) spin_flip(rho) sqrt(rho).
    """
    if rho.dim != 4:
        raise ValidationError("tangle is defined for two-qubit states")
    s = psd_sqrt_from(rho.spectrum)
    lam = sqrt_spectrum(herm_eig(s @ _spin_flip(rho.mat) @ s).values)[::-1]
    c = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return min(c * c, 1.0)


def linear_entropy(rho: DensityMatrix) -> float:
    """Normalized mixedness (4/3)(1 - tr rho^2), 0 for pure and 1 for I/4."""
    if rho.dim != 4:
        raise ValidationError("linear entropy is defined for two-qubit states")
    purity = float(np.real(np.trace(rho.mat @ rho.mat)))
    return (4.0 / 3.0) * (1.0 - purity)


def min_eigenvalue(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of the state."""
    return float(rho.spectrum.values[0])


def random_density_matrix(rng: np.random.Generator, n_components: int = 4) -> DensityMatrix:
    """Random full-rank two-qubit state.

    Mixture of ``n_components`` Haar-random pure states with uniform
    simplex (Dirichlet) weights; cheap and spans full-rank states.
    """
    weights = rng.dirichlet(np.ones(n_components))
    mat = np.zeros((4, 4), dtype=complex)
    for w in weights:
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        mat += w * np.outer(v, v.conj())
    mat = (mat + mat.conj().T) / 2.0
    return DensityMatrix(mat / np.real(np.trace(mat)))
