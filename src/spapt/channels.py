"""Quantum channels held as superoperators, and the SPA-PT instrument.

Constructor functions build a :class:`Channel` from a Kraus family, a
measure-and-prepare pair list, a tensor product or a convex mixture.
:data:`SPA_PT_INSTRUMENT` declares the local instrument realizing the
physical approximation of the two-qubit partial transpose; the exact
channel, the trajectory sampler and f_hat are all read from it.  The ideal
(non-physical) partial transpose is kept as an oracle, and Choi matrices
certify complete positivity and trace preservation.

Superoperators act on column-vectorized matrices: ``vec`` stacks columns,
so the map ``x -> a x b`` has superoperator ``kron(b.T, a)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .linalg import (
    PAULI_I,
    PAULI_Y,
    PAULIS,
    POVM_TOL,
    PSD_TOL,
    ROUND_TOL,
    TRACE_TOL,
    ValidationError,
    herm_eig,
    partial_transpose,
    require_hermitian,
)
from .states import DensityMatrix, PureState

__all__ = [
    "Channel",
    "KrausChannel",
    "MeasurePrepareChannel",
    "ProductChannel",
    "MixtureChannel",
    "ChoiMatrix",
    "Branch",
    "SPA_PT_INSTRUMENT",
    "vec",
    "unvec",
    "identity_channel",
    "superoperator_from_function",
    "tetrahedral_states",
    "tetrahedral_povm",
    "spa_transpose",
    "spa_inversion",
    "depolarize",
    "spa_pt",
    "ideal_pt",
    "partial_transpose_channel",
    "replace_channel",
    "apply",
    "choi",
    "is_cp",
    "is_tp",
]

def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


@dataclass(frozen=True, eq=False)
class Channel:
    """A linear map on operators: its superoperator ``mat`` of shape
    (dim_out^2, dim_in^2), plus the (n, dim_out, dim_in) Kraus stack when
    built from one.  No CP/TP condition is enforced, so the raw partial
    transpose is a channel too.  Channels are immutable and application is
    pure, so instances may be shared across concurrent workers.
    """

    mat: np.ndarray
    dims: tuple[int, int]  # (dim_in, dim_out)
    kraus: np.ndarray | None = None

    def __post_init__(self) -> None:
        m = np.array(self.mat, dtype=complex)
        din, dout = self.dims
        if m.shape != (dout * dout, din * din):
            raise ValidationError(f"superoperator shape {m.shape} does not match dims {self.dims}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        if self.kraus is not None:
            k = np.array(self.kraus, dtype=complex)
            if k.ndim != 3 or k.shape[1:] != (dout, din):
                raise ValidationError(f"Kraus stack shape {k.shape} does not match dims {self.dims}")
            k.setflags(write=False)
            object.__setattr__(self, "kraus", k)

    @property
    def dim_in(self) -> int:
        return self.dims[0]

    @property
    def dim_out(self) -> int:
        return self.dims[1]

    def superoperator(self) -> np.ndarray:
        """Matrix of size (dim_out^2, dim_in^2) acting on vectorized operators."""
        return self.mat

    def kraus_ops(self) -> np.ndarray:
        if self.kraus is None:
            raise ValidationError("channel has no Kraus representation")
        return self.kraus

    def apply_matrix(self, operator: np.ndarray) -> np.ndarray:
        """Apply the map to a raw matrix (no physicality validation)."""
        a = np.asarray(operator, dtype=complex)
        if a.shape != (self.dim_in, self.dim_in):
            raise ValidationError(f"operator shape {a.shape} does not match channel input dim {self.dim_in}")
        return unvec(self.mat @ vec(a), self.dim_out)


def _from_kraus(kraus: np.ndarray) -> Channel:
    """Channel of an (n, dim_out, dim_in) Kraus stack: S = sum_k conj(K_k) (x) K_k."""
    _, dout, din = kraus.shape
    mat = np.einsum("kpr,kqs->pqrs", kraus.conj(), kraus).reshape(dout * dout, din * din)
    return Channel(mat, (din, dout), kraus)


def KrausChannel(kraus: Sequence[np.ndarray]) -> Channel:
    """Channel given by a Kraus family {K_k}; trace preservation is checked."""
    ops = tuple(np.asarray(k, dtype=complex) for k in kraus)
    if not ops:
        raise ValidationError("at least one Kraus operator is required")
    shape = ops[0].shape
    if len(shape) != 2 or any(k.shape != shape for k in ops):
        raise ValidationError("all Kraus operators must share one 2-d shape")
    stack = np.array(ops)
    dev = float(np.max(np.abs(np.einsum("kji,kjl->il", stack.conj(), stack) - np.eye(shape[1]))))
    if dev > TRACE_TOL:
        raise ValidationError(f"Kraus family is not trace preserving: max |sum K^dag K - I| = {dev:.3e}")
    return _from_kraus(stack)


def MeasurePrepareChannel(povm: Sequence[np.ndarray], prepared: Sequence[PureState]) -> Channel:
    """Measure a POVM, then prepare a fixed pure state per outcome.

    Such channels are entanglement breaking and therefore always physical.
    Effects must be PSD and sum to the identity within 1e-10.
    """
    effects = tuple(np.asarray(m, dtype=complex) for m in povm)
    prepared = tuple(prepared)
    if len(effects) != len(prepared) or not effects:
        raise ValidationError("povm and prepared lists must have equal nonzero length")
    d = effects[0].shape[0]
    kraus = []
    for effect, out_state in zip(effects, prepared):
        if effect.shape != (d, d):
            raise ValidationError("all effects must be square matrices of one dimension")
        w, u = herm_eig(effect)
        if w[0] < -POVM_TOL:
            raise ValidationError(f"effect is not PSD: min eigenvalue = {w[0]:.3e}")
        # M_k = sum_r w_r |u_r><u_r| gives Kraus sqrt(w_r) |prepared_k><u_r|.
        kraus += [np.outer(out_state.amplitudes, np.sqrt(w[r]) * u[:, r].conj()) for r in range(d) if w[r] > ROUND_TOL]
    dev = float(np.max(np.abs(sum(effects) - np.eye(d))))
    if dev > POVM_TOL:
        raise ValidationError(f"effects do not sum to identity: max deviation = {dev:.3e}")
    if len({state.dim for state in prepared}) != 1:
        raise ValidationError("prepared states must share one dimension")
    return _from_kraus(np.array(kraus))


def ProductChannel(first: Channel, second: Channel) -> Channel:
    """Tensor product acting as ``first`` on subsystem A and ``second`` on B."""
    a, b = first.kraus_ops(), second.kraus_ops()
    kraus = np.einsum("iac,jbd->ijabcd", a, b)
    return _from_kraus(kraus.reshape(len(a) * len(b), a.shape[1] * b.shape[1], a.shape[2] * b.shape[2]))


def MixtureChannel(weights: Sequence[float], channels: Sequence[Channel]) -> Channel:
    """Convex mixture sum_i w_i Lambda_i of channels with equal dimensions."""
    w = tuple(float(x) for x in weights)
    channels = tuple(channels)
    if len(w) != len(channels) or not w:
        raise ValidationError("weights and channels must have equal nonzero length")
    if any(x < 0 for x in w) or abs(sum(w) - 1.0) > ROUND_TOL:
        raise ValidationError("weights must be nonnegative and sum to 1")
    if len({c.dims for c in channels}) != 1:
        raise ValidationError("mixed channels must share dimensions")
    mat = sum(x * c.mat for x, c in zip(w, channels))
    has_kraus = all(c.kraus is not None for c in channels)
    kraus = np.concatenate([np.sqrt(x) * c.kraus for x, c in zip(w, channels)]) if has_kraus else None
    return Channel(mat, channels[0].dims, kraus)


def identity_channel(dim: int) -> Channel:
    return KrausChannel((np.eye(dim, dtype=complex),))


def superoperator_from_function(fn: Callable[[np.ndarray], np.ndarray], dim_in: int, dim_out: int | None = None) -> Channel:
    """Build a superoperator column by column from a matrix-valued map."""
    dim_out = dim_in if dim_out is None else dim_out
    columns = [vec(fn(unvec(e, dim_in))) for e in np.eye(dim_in * dim_in, dtype=complex)]
    return Channel(np.stack(columns, axis=1), (dim_in, dim_out))


def tetrahedral_states() -> tuple[PureState, PureState, PureState, PureState]:
    """Four preparation states forming a regular tetrahedron on the Bloch sphere.

    Their conjugated rank-1 effects at weight 1/2 form a complete POVM
    (the projector sum is 2*I) and all pairwise overlaps |<v_j|v_k>|^2
    equal 1/3.  Global phases are fixed by a real positive amplitude on
    the first basis vector.
    """
    num = 1j * np.exp(1j * np.pi * 2.0 / 3.0)
    den_plus = 1j + np.exp(-1j * np.pi * 2.0 / 3.0)
    den_minus = 1j - np.exp(-1j * np.pi * 2.0 / 3.0)
    ratios = (num / den_plus, -num / den_minus, num / den_minus, -num / den_plus)
    amps = [np.array([1.0, w], dtype=complex) for w in ratios]
    return tuple(PureState(a / np.linalg.norm(a)) for a in amps)


def tetrahedral_povm() -> tuple[np.ndarray, ...]:
    """The four effects |v_k*><v_k*| / 2 of the conjugated tetrahedral states,
    a complete POVM on one qubit."""
    effects = tuple(np.outer(v.amplitudes.conj(), v.amplitudes) / 2.0 for v in tetrahedral_states())
    for effect in effects:
        effect.setflags(write=False)
    return effects


@dataclass(frozen=True, eq=False)
class Branch:
    """One branch of a local measure-and-prepare instrument on two qubits.

    With probability ``weight`` the qubit named by ``side`` ("A" or "B")
    is measured with ``povm``; outcome k re-prepares it in ``prepared[k]``
    and applies one of the unitaries ``corrections``, drawn uniformly at
    random, to the other qubit.
    """

    weight: Fraction
    side: str
    povm: tuple[np.ndarray, ...]
    prepared: tuple[PureState, ...]
    corrections: tuple[np.ndarray, ...]

    def weigh(self, value):
        """``weight * value`` as ``value * numerator / denominator``: the seed
        contract was sampled dividing by 3, not multiplying by ``float(1/3)``."""
        return value * self.weight.numerator / self.weight.denominator

    @cached_property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Projectors onto the prepared states."""
        return tuple(v.projector() for v in self.prepared)


#: SPA-PT as a local instrument: transpose branch on B, A untouched; inversion
#: branch on A, sigma_y-rotated states, a random Pauli on B.  The inversion
#: weight is the double nearest 2/3, which the mixture has always used.
SPA_PT_INSTRUMENT = (
    Branch(Fraction(1, 3), "B", tetrahedral_povm(), tetrahedral_states(), (PAULI_I,)),
    Branch(Fraction(2.0 / 3.0), "A", tetrahedral_povm(), tuple(PureState(PAULI_Y @ v.amplitudes) for v in tetrahedral_states()), PAULIS),
)


def spa_transpose() -> Channel:
    """Physical approximation to the single-qubit transpose.

    Measures the tetrahedral POVM and prepares the matching tetrahedral
    state; the resulting action is (1/3) rho^T + (2/3) tr(rho) I/2.
    """
    branch = SPA_PT_INSTRUMENT[0]
    return MeasurePrepareChannel(branch.povm, branch.prepared)


def spa_inversion() -> Channel:
    """Physical approximation to the inversion, sigma_y-conjugate of
    :func:`spa_transpose`; acts as (2/3) tr(rho) I - (1/3) rho."""
    branch = SPA_PT_INSTRUMENT[1]
    return MeasurePrepareChannel(branch.povm, branch.prepared)


def depolarize() -> Channel:
    """Fully depolarizing qubit channel as uniform random Pauli application."""
    return KrausChannel(tuple(p / 2.0 for p in PAULIS))


def spa_pt() -> Channel:
    """Physical approximation of the two-qubit partial transpose.

    Convex mixture, with weights 1/3 and 2/3, of the transpose
    approximation on B and of (inversion approximation on A) tensor
    (depolarizer on B), read from :data:`SPA_PT_INSTRUMENT`.  As a
    superoperator it equals ``rho -> (1/9) PT(rho) + (2/9) tr(rho) I_4``,
    so output spectra are the partial-transpose spectra compressed into
    [1/6, 1/3].
    """
    branches = []
    for b in SPA_PT_INSTRUMENT:
        measured = MeasurePrepareChannel(b.povm, b.prepared)
        corrected = KrausChannel(tuple(u / np.sqrt(len(b.corrections)) for u in b.corrections))
        branches.append(ProductChannel(corrected, measured) if b.side == "B" else ProductChannel(measured, corrected))
    return MixtureChannel(tuple(b.weight for b in SPA_PT_INSTRUMENT), branches)


def ideal_pt(rho: DensityMatrix) -> np.ndarray:
    """Exact partial transpose of a two-qubit state, returned as a raw
    matrix because the result is generally not positive semidefinite."""
    if rho.dim != 4:
        raise ValidationError("the partial transpose oracle needs a two-qubit state")
    return partial_transpose(rho.mat)


def partial_transpose_channel() -> Channel:
    """The non-physical map ``identity (x) transpose`` on two qubits."""
    return superoperator_from_function(partial_transpose, 4)


def replace_channel(dim: int) -> Channel:
    """The map ``rho -> tr(rho) I/dim``."""
    return superoperator_from_function(lambda x: np.trace(x) * np.eye(dim) / dim, dim)


def apply(channel: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a physical channel to a state; the output is validated."""
    if channel.dim_in != rho.dim:
        raise ValidationError(f"channel input dim {channel.dim_in} does not match state dim {rho.dim}")
    out = channel.apply_matrix(rho.mat)
    return DensityMatrix((out + out.conj().T) / 2.0)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """State obtained by acting with the channel on half of a normalized
    maximally entangled pair; PSD iff the channel is completely positive.
    Trace equals 1 for trace-preserving maps."""

    mat: np.ndarray
    dims: tuple[int, int]  # (dim_in, dim_out)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mat", require_hermitian(self.mat, "Choi matrix"))


def choi(channel: Channel) -> ChoiMatrix:
    """Choi matrix (Lambda (x) id)[|Omega><Omega|] with |Omega> normalized.

    Entry [(i, k), (j, l)] is Lambda(|k><l|)[i, j] / dim_in, a reshuffle
    of the superoperator.
    """
    din, dout = channel.dims
    shuffled = channel.mat.reshape(dout, dout, din, din).transpose(1, 3, 0, 2)
    return ChoiMatrix(shuffled.reshape(dout * din, dout * din) / din, channel.dims)


def is_cp(channel: Channel) -> bool:
    """Complete positivity: the Choi matrix has no eigenvalue below -1e-9."""
    w = herm_eig(choi(channel).mat).values
    return bool(w[0] >= -PSD_TOL)


def is_tp(channel: Channel) -> bool:
    """Trace preservation: vec(I)^T S equals vec(I)^T within 1e-9, i.e. the
    unnormalized Choi matrix traced over the output is the identity."""
    din, dout = channel.dims
    row = vec(np.eye(dout)) @ channel.mat
    return bool(float(np.max(np.abs(row - vec(np.eye(din))))) <= TRACE_TOL)
