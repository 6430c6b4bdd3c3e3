"""Validated quantum states, benchmark state families and scalar functionals.

States are immutable: construction validates the physical invariants
(Hermiticity, unit trace, positivity within tolerance) and the wrapped
arrays are frozen, so instances can be shared freely across workers.  They
compare and hash by identity, since the arrays they wrap have no single
truth value.

A :class:`DensityMatrix` holds one two-qubit state or an ``(N, 4, 4)``
stack of them, validated by the same code: one gate, one trace check and
one eigensolve.  The state families :func:`werner`, :func:`mems` and
:func:`rho_family` give one state for numbers and a stack for arrays of
parameters.  :func:`tangle`, :func:`linear_entropy` and :func:`min_eigenvalue`
return one value per entry of a stack; :func:`fidelity`, which compares two
states, raises ``ValidationError`` for a stack.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    PAULI_Y,
    PSD_TOL,
    ROUND_TOL,
    TRACE_TOL,
    Spectrum,
    ValidationError,
    as_numeric,
    gated_eig,
    hermitian_part,
    psd_sqrt_from,
    require_each,
    require_hermitian,
    require_integer,
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


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm state vector of a qubit or a qubit pair."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amp = as_numeric(self.amplitudes, complex, "state vector")
        if amp.ndim != 1 or amp.shape[0] not in (2, 4):
            raise ValidationError(f"expected a vector of length 2 or 4, got shape {amp.shape}")
        norm = float(np.linalg.norm(amp))
        if not abs(norm - 1.0) <= ROUND_TOL:  # NaN amplitudes fail too
            raise ValidationError(f"state vector is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        """Rank-1 projector |psi><psi| as a raw matrix."""
        return np.outer(self.amplitudes, self.amplitudes.conj())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Validated two-qubit density matrix, or an ``(N, 4, 4)`` stack of them.

    Construction rejects anything that has a NaN or inf entry, is not
    Hermitian within 1e-9, is not of dimension 4, unit-trace within 1e-9 or
    has an eigenvalue below -1e-9, naming the violated invariant in the
    error message, after "stack entry k: " for entry k of a stack.  A
    stack passes one gate, one trace check and one eigensolve.  ``mat`` is
    the gate's read-only, exactly Hermitian part of the input.  The
    eigendecomposition that checks positivity is kept, read-only, as
    ``spectrum``: it equals ``herm_eig`` of the matrix it was built from,
    bit for bit.  ``len(states)`` and ``states[k]`` give the size of a stack
    and its entry k, a single state that holds its slice of the stack and of
    the spectrum and is not validated again; :meth:`concatenate` joins
    validated states and stacks with their spectra.

    The samplers of :mod:`spapt.tomography` keep, read-only in a private
    memo made on first use, what they draw from: the detection settings'
    Born table, and the probabilities and emitted states of the last
    instrument a trajectory ran on the state; nothing seeded.  The memo goes
    with the state, holds at most these two entries, and ``states[k]``
    starts its own.
    """

    mat: np.ndarray
    spectrum: Spectrum = field(init=False, repr=False)
    _memo: dict | None = field(init=False, repr=False, default=None)  # made on first use

    def __post_init__(self) -> None:
        m = require_hermitian(self.mat, "state")
        if m.ndim > 3:
            raise ValidationError(f"expected a square matrix or an (N, 4, 4) stack, got shape {m.shape}")
        if m.shape[-1] != 4:
            raise ValidationError(f"a state is a two-qubit state of dimension 4, got dimension {m.shape[-1]}")
        # a single state's check is one comparison; a failing one, or a stack, goes to require_each to be named
        off = abs(m.trace(axis1=-2, axis2=-1) - 1.0)
        ok = off <= TRACE_TOL
        if m.ndim == 3 or not ok:
            require_each(ok, lambda i: f"trace is not 1: |tr - 1| = {off[i]:.3e}")
        spectrum = gated_eig(m)
        lam_min = spectrum.values[..., 0]
        ok = lam_min >= -PSD_TOL
        if m.ndim == 3 or not ok:
            require_each(ok, lambda i: f"not positive semidefinite: min eigenvalue = {lam_min[i]:.3e}")
        spectrum.values.setflags(write=False)
        spectrum.vectors.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def __len__(self) -> int:
        if self.mat.ndim == 2:
            raise TypeError("a single state has no length")
        return len(self.mat)

    def __getitem__(self, k: int) -> DensityMatrix:
        if self.mat.ndim == 2:
            raise TypeError("a single state has no entries")
        k = operator.index(k)
        return DensityMatrix._from_validated(self.mat[k], Spectrum(self.spectrum.values[k], self.spectrum.vectors[k]))

    @classmethod
    def concatenate(cls, states: Iterable[DensityMatrix]) -> DensityMatrix:
        """One stack of the entries of ``states``, single states or stacks, in
        order.  Each keeps its stored spectrum, so nothing is validated or
        solved again; the spectra are those one eigensolve of the joined stack
        gives, bit for bit, since a stacked solve solves each entry alone."""
        states = list(states)
        if not states or not all(isinstance(rho, DensityMatrix) for rho in states):
            raise ValidationError("expected one or more DensityMatrix states or stacks to concatenate")
        mats = np.concatenate([rho.mat.reshape(-1, 4, 4) for rho in states])
        values = np.concatenate([rho.spectrum.values.reshape(-1, 4) for rho in states])
        vectors = np.concatenate([rho.spectrum.vectors.reshape(-1, 4, 4) for rho in states])
        for part in (mats, values, vectors):
            part.setflags(write=False)
        return cls._from_validated(mats, Spectrum(values, vectors))

    @classmethod
    def _from_validated(cls, mat: np.ndarray, spectrum: Spectrum) -> DensityMatrix:
        """A state of ``mat`` and its ``spectrum``, read-only parts of validated states, not validated again."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "mat", mat)
        object.__setattr__(rho, "spectrum", spectrum)
        return rho


def require_single(what: str, *states: DensityMatrix) -> None:
    """Raise ``ValidationError`` when one of ``states`` is a stack: ``what``
    has no meaning entry by entry."""
    for rho in states:
        if rho.mat.ndim != 2:
            raise ValidationError(f"{what} takes a single state, not a stack of {len(rho)}")


def _per_entry(values: np.ndarray) -> float | np.ndarray:
    """A float for a single state, the array of values for a stack."""
    return float(values) if np.ndim(values) == 0 else values


_BELL_AMPLITUDES = {"phi+": [1, 0, 0, 1], "phi-": [1, 0, 0, -1], "psi+": [0, 1, 1, 0], "psi-": [0, 1, -1, 0]}
BELL_KINDS = tuple(_BELL_AMPLITUDES)

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
    """One of the four maximally entangled two-qubit vectors, named by a str."""
    if not isinstance(kind, str) or kind not in _BELL_AMPLITUDES:
        raise ValidationError(f"unknown Bell kind {kind!r}; expected one of {BELL_KINDS}")
    return PureState(np.array(_BELL_AMPLITUDES[kind], dtype=complex) / _SQRT2)


def bell(kind: str | list[str] | tuple[str, ...]) -> DensityMatrix:
    """Rank-1 projector onto the named Bell vector, or the stack of them for
    a list or tuple of names."""
    if isinstance(kind, (list, tuple)):
        return DensityMatrix(np.array([bell_vector(k).projector() for k in kind]).reshape(-1, 4, 4))
    return DensityMatrix(bell_vector(kind).projector())


def _unit_interval(name: str, value: float | np.ndarray) -> np.ndarray:
    """``value``, a number or an array, as floats in [0, 1]; one check, naming the stack entry that fails.
    None, a bool, a str or bytes is refused, which numpy would read as nan, 0 or 1, or a parsed number."""
    raw = as_numeric(value, None, name, copy=False)
    # a list is read entry by entry, since numpy reads a bool among numbers as 0.0 or 1.0;
    # an entry may be a 0-d array, which numpy reads by its value
    entries = np.array(value, dtype=object) if isinstance(value, (list, tuple)) else raw
    if entries.dtype.kind in "bSUO":
        numeric = np.array(
            [not (v is None or isinstance(v, (bool, np.bool_, str, bytes)) or (isinstance(v, np.ndarray) and v.dtype.kind in "bSU")) for v in entries.flat], dtype=bool
        )
        require_each(numeric.reshape(entries.shape), lambda i: f"expected a numeric {name}, got {entries.item(i)!r}")
    value = as_numeric(raw, float, name, copy=False)  # the families build new arrays from it
    require_each((0.0 <= value) & (value <= 1.0), lambda i: f"{name} must lie in [0, 1], got {value[i]}")  # NaN fails too
    return value


_PSI_MINUS = bell_vector("psi-").projector()
_PSI_MINUS.setflags(write=False)


def werner(p: float | np.ndarray) -> DensityMatrix:
    """Singlet mixed with white noise: p*I/4 + (1-p)|psi-><psi-|, one state
    for a number p and a stack for an array of them."""
    p = _unit_interval("p", p)[..., None, None]
    return DensityMatrix(p * np.eye(4, dtype=complex) / 4.0 + (1.0 - p) * _PSI_MINUS)


def mems(p: float | np.ndarray) -> DensityMatrix:
    """Maximally entangled mixed state at off-diagonal coherence p, one state
    for a number p and a stack for an array of them.

    X-shaped family with f(p) = p/2 for p >= 2/3 and f(p) = 1/3 below;
    its concurrence equals p, so the tangle is p^2.
    """
    p = _unit_interval("p", p)
    f = np.where(p >= 2.0 / 3.0, p / 2.0, 1.0 / 3.0)
    mat = np.zeros(p.shape + (4, 4), dtype=complex)
    mat[..., 0, 0] = mat[..., 3, 3] = f
    mat[..., 0, 3] = mat[..., 3, 0] = p / 2.0
    mat[..., 1, 1] = 1.0 - 2.0 * f
    return DensityMatrix(mat)


def rho_family(p: float | np.ndarray, alpha: float | np.ndarray) -> DensityMatrix:
    """Two-term mixture (1-p)|psi><psi| + p|psi_perp><psi_perp|, one state for
    numbers p and alpha and a stack for arrays, which broadcast.

    |psi> = alpha|01> - sqrt(1-alpha^2)|10> and |psi_perp> is its unique
    (up to phase) orthogonal companion in span{|01>, |10>}; alpha is real.
    """
    p = _unit_interval("p", p)[..., None, None]
    alpha = _unit_interval("alpha", alpha)
    beta = np.sqrt(1.0 - alpha * alpha)
    kets = np.zeros(alpha.shape + (2, 4), dtype=complex)  # |psi> and |psi_perp> of each entry
    kets[..., 0, 1], kets[..., 0, 2], kets[..., 1, 1], kets[..., 1, 2] = alpha, -beta, beta, alpha
    # each |v><v| element by element, as np.outer computes it, for the same bits
    proj = kets[..., :, None] * kets.conj()[..., None, :]
    return DensityMatrix((1.0 - p) * proj[..., 0, :, :] + p * proj[..., 1, :, :])


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2 in [0, 1] of
    two single states; a stack is refused."""
    require_single("fidelity", rho, sigma)
    s = psd_sqrt_from(rho.spectrum)
    w = gated_eig(hermitian_part(s @ sigma.mat @ s)).values
    val = float(np.sum(sqrt_spectrum(w)) ** 2)
    return min(max(val, 0.0), 1.0)


_YY = np.kron(PAULI_Y, PAULI_Y)
_YY.setflags(write=False)


def tangle(rho: DensityMatrix) -> float | np.ndarray:
    """Squared concurrence of a two-qubit state, or of each state of a stack.

    Computed as C = max(0, l1 - l2 - l3 - l4) with l_k the descending
    square roots of the eigenvalues of rho * spin_flip(rho); those equal
    the eigenvalues of the Hermitian sqrt(rho) spin_flip(rho) sqrt(rho).
    The stored eigendecomposition gives the state root, so it is one eigensolve.
    """
    s = psd_sqrt_from(rho.spectrum)
    lam = sqrt_spectrum(gated_eig(hermitian_part(s @ (_YY @ rho.mat.conj() @ _YY) @ s)).values)[..., ::-1]
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return _per_entry(np.minimum(c * c, 1.0))


def linear_entropy(rho: DensityMatrix) -> float | np.ndarray:
    """Normalized mixedness (4/3)(1 - tr rho^2), 0 for pure and 1 for I/4,
    of a two-qubit state or of each state of a stack."""
    return _per_entry((4.0 / 3.0) * (1.0 - (rho.mat @ rho.mat).trace(axis1=-2, axis2=-1).real))


def min_eigenvalue(rho: DensityMatrix) -> float | np.ndarray:
    """Smallest eigenvalue of the state, read from its stored spectrum, or
    of each state of a stack."""
    return _per_entry(rho.spectrum.values[..., 0])


def random_density_matrix(rng: np.random.Generator, n_components: int = 4, count: int | None = None) -> DensityMatrix:
    """Random full-rank two-qubit state, or a stack of ``count`` of them
    drawn one after the other from ``rng``.

    Mixture of ``n_components`` Haar-random pure states with uniform
    simplex (Dirichlet) weights; cheap and spans full-rank states.  Only
    the draws run state by state; the arithmetic runs once on the stack.
    """
    n_components = require_integer(n_components, 1, float("inf"), f"n_components must be a positive integer, got {n_components!r}")
    if count is not None:
        count = require_integer(count, 0, float("inf"), f"count must be a nonnegative integer or None, got {count!r}")
    n = 1 if count is None else count
    weights, normals = np.empty((n, n_components)), np.empty((n, n_components, 2, 4))
    for k in range(n):
        weights[k] = rng.dirichlet(np.ones(n_components))
        normals[k] = rng.standard_normal((n_components, 2, 4))
    v = normals[..., 0, :] + 1j * normals[..., 1, :]
    # the norm as np.linalg.norm computes it for one vector, dot products of the
    # strided real and imaginary parts, for the same bits
    v /= np.sqrt(np.vecdot(v.real, v.real) + np.vecdot(v.imag, v.imag))[..., None]
    mat = np.zeros((n, 4, 4), dtype=complex)
    for k in range(n_components):
        mat += weights[:, k, None, None] * (v[:, k, :, None] * v[:, k, None, :].conj())
    mat = mat / mat.trace(axis1=-2, axis2=-1).real[:, None, None]  # Hermitian up to rounding: the gate takes its Hermitian part
    return DensityMatrix(mat[0] if count is None else mat)
