"""Quantum channels held as superoperators, each physical one declared as a
local instrument.

Every physical channel of the package is a weighted choice between
branches of local steps.  In a :class:`Branch` each subsystem takes the
step of its :class:`Side`: it is measured and re-prepared in a fixed state
per outcome, or only corrected by a unitary drawn uniformly from a set.
:func:`instrument_channel` derives the exact superoperator from such a
declaration, and the trajectory sampler in :mod:`spapt.tomography` derives
the single-copy runs from the same one.  :data:`SPA_PT_INSTRUMENT`
realizes the physical approximation of the two-qubit partial transpose;
the exact channel, the trajectory sampler and f_hat all read it.  The
non-physical partial transpose is a channel too, and Choi matrices certify
complete positivity and trace preservation.

Superoperators act on column-vectorized matrices: ``vec`` stacks columns,
so the map ``x -> a x b`` has superoperator ``kron(b.T, a)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from typing import Sequence

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
    as_numeric,
    dag,
    gated_eig,
    herm_eig,
    partial_transpose,
    require_hermitian,
    require_integer,
)
from .states import DensityMatrix, PureState

__all__ = [
    "Channel",
    "ChoiMatrix",
    "Side",
    "Branch",
    "IDENTITY_SIDE",
    "DEPOLARIZE_SIDE",
    "TRANSPOSE_SIDE",
    "INVERSION_SIDE",
    "SPA_PT_INSTRUMENT",
    "vec",
    "unvec",
    "instrument_channel",
    "local_channel",
    "tetrahedral_states",
    "tetrahedral_povm",
    "spa_transpose",
    "spa_inversion",
    "depolarize",
    "spa_pt",
    "partial_transpose_channel",
    "replace_channel",
    "apply",
    "choi",
    "is_cp",
    "is_tp",
]

def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization of a matrix, or of each matrix of a stack."""
    a = np.asarray(m, dtype=complex)
    return a.swapaxes(-1, -2).reshape(a.shape[:-2] + (-1,))


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vec`, for one vector or a stack of them."""
    a = np.asarray(v, dtype=complex)
    return a.reshape(a.shape[:-1] + (dim, dim)).swapaxes(-1, -2)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Channel:
    """A linear map on the operators of one system, held as its (dim^2,
    dim^2) superoperator ``mat``, plus the local instrument it was derived
    from, if any.  No CP/TP condition is enforced, so the raw partial
    transpose is a channel too.  Channels are immutable and application is
    pure, so instances may be shared across concurrent workers."""

    mat: np.ndarray
    instrument: tuple[Branch, ...] = field(default=(), kw_only=True)

    def __post_init__(self) -> None:
        m = as_numeric(self.mat, complex, "superoperator")
        dim = math.isqrt(len(m)) if m.ndim == 2 else 0
        if not dim or m.shape != (dim * dim, dim * dim):
            raise ValidationError(f"a superoperator is a (dim^2, dim^2) matrix, got shape {m.shape}")
        object.__setattr__(self, "mat", _read_only(m))
        object.__setattr__(self, "instrument", tuple(self.instrument))

    @property
    def dim(self) -> int:
        return math.isqrt(len(self.mat))

    def superoperator(self) -> np.ndarray:
        """Matrix of size (dim^2, dim^2) acting on vectorized operators."""
        return self.mat

    def apply_matrix(self, operator: np.ndarray) -> np.ndarray:
        """Apply the map to a raw matrix, or to each matrix of a stack (no
        physicality validation).  Each matrix is one matrix-vector product
        with the superoperator."""
        a = np.asarray(operator, dtype=complex)
        dim = self.dim
        if a.shape[-2:] != (dim, dim):
            raise ValidationError(f"operator shape {a.shape} does not match channel input dim {dim}")
        return unvec((self.mat @ vec(a)[..., None])[..., 0], dim)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a[i], b[j])`` for stacks of matrices, in order i * len(b) + j."""
    joint = np.einsum("iab,jcd->ijacbd", a, b)
    return joint.reshape(len(a) * len(b), a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])


def _tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperators of ``a[i] (x) b[j]`` on the joint system, in order
    i * len(b) + j, for stacks of superoperators on each subsystem."""
    da, db = math.isqrt(a.shape[-1]), math.isqrt(b.shape[-1])
    # a vectorized operator reshapes to (column, row); a joint one to
    # (column A, column B, row A, row B)
    joint = np.einsum("iCAca,jDBdb->ijCDABcdab", a.reshape(-1, da, da, da, da), b.reshape(-1, db, db, db, db))
    n = (da * db) ** 2
    return joint.reshape(len(a) * len(b), n, n)


@dataclass(frozen=True, eq=False)
class Side:
    """One subsystem's step within a :class:`Branch`.

    A measured side (``povm`` and ``prepared``) re-prepares ``prepared[k]``
    on outcome k of ``povm``.  A corrected side applies one of the unitaries
    ``corrections``, drawn uniformly at random; ``(I,)`` leaves the
    subsystem alone.  Exactly one of the two is given.  Effects must be PSD
    and sum to the identity within 1e-10, corrections must be unitary
    within 1e-9.
    """

    povm: tuple[np.ndarray, ...] = ()
    prepared: tuple[PureState, ...] = ()
    corrections: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        povm = tuple(_read_only(as_numeric(m, complex, "POVM effect")) for m in self.povm)
        prepared = tuple(self.prepared)
        corrections = tuple(_read_only(as_numeric(u, complex, "correction")) for u in self.corrections)
        if bool(povm or prepared) == bool(corrections):
            raise ValidationError("a side is either measured (povm and prepared states) or corrected (unitaries), not both or neither")
        ops = povm or corrections
        shape = ops[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(op.shape != shape for op in ops):
            raise ValidationError("the effects or corrections of a side must be square matrices of one dimension")
        eye = np.eye(shape[0])
        if povm:
            if len(prepared) != len(povm) or any(not isinstance(v, PureState) or v.dim != shape[0] for v in prepared):
                raise ValidationError("a measured side needs one prepared PureState per effect, of the effects' dimension")
            low = min(herm_eig(effect).values[0] for effect in povm)
            if low < -POVM_TOL:
                raise ValidationError(f"effect is not PSD: min eigenvalue = {low:.3e}")
            dev = float(np.max(np.abs(sum(povm) - eye)))
            if dev > POVM_TOL:
                raise ValidationError(f"effects do not sum to identity: max deviation = {dev:.3e}")
        else:
            dev = max(float(np.max(np.abs(u.conj().T @ u - eye))) for u in corrections)
            if dev > TRACE_TOL:
                raise ValidationError(f"correction is not unitary: max |U^dag U - I| = {dev:.3e}")
        object.__setattr__(self, "povm", povm)
        object.__setattr__(self, "prepared", prepared)
        object.__setattr__(self, "corrections", corrections)

    @property
    def dim(self) -> int:
        return (self.povm or self.corrections)[0].shape[0]

    @property
    def draws(self) -> int:
        """How many corrections a run draws from uniformly; 1 when measured."""
        return len(self.corrections) or 1

    @cached_property
    def effects(self) -> np.ndarray:
        """Born effect per outcome, or the identity per correction."""
        return _read_only(np.array(self.povm or [np.eye(self.dim, dtype=complex)] * self.draws))

    @cached_property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Projectors onto the prepared states."""
        return tuple(v.projector() for v in self.prepared)

    @cached_property
    def maps(self) -> np.ndarray:
        """Superoperator per outcome, x -> tr(M_k x) |v_k><v_k|, or per
        correction, x -> U x U^dag."""
        if self.povm:
            return _read_only(np.array([np.outer(vec(p), vec(m.T)) for p, m in zip(self.projectors, self.povm)]))
        return _read_only(np.array([np.kron(u.conj(), u) for u in self.corrections]))


@dataclass(frozen=True, eq=False)
class Branch:
    """One branch of a local instrument: with probability ``weight``, held
    as a Fraction, each subsystem takes the step of its side in ``sides``,
    subsystem A first.

    A run of the branch ends in one category: an outcome or a correction
    per side, with side A's index running slowest.
    """

    weight: Fraction
    sides: tuple[Side, ...]

    def __post_init__(self) -> None:
        try:
            weight = Fraction(self.weight)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"branch weight must be a finite number, got {self.weight!r}") from exc
        sides = tuple(self.sides) if isinstance(self.sides, (tuple, list)) else ()
        if not 0 <= weight <= 1:
            raise ValidationError(f"branch weight must lie in [0, 1], got {float(weight)}")
        if not sides or not all(isinstance(s, Side) for s in sides):
            raise ValidationError("a branch needs a tuple or list of sides, one Side per subsystem")
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "sides", sides)

    def weigh(self, value):
        """``weight * value`` as ``value * numerator / denominator``: the seed
        contract was sampled dividing by 3, not multiplying by ``float(1/3)``."""
        return value * self.weight.numerator / self.weight.denominator

    @property
    def dim(self) -> int:
        return math.prod(s.dim for s in self.sides)

    @property
    def draws(self) -> int:
        """How many equally likely corrections follow each joint outcome."""
        return math.prod(s.draws for s in self.sides)

    @cached_property
    def effects(self) -> np.ndarray:
        """Born effect per category: a run ends in category c with
        probability ``weigh(tr(rho effects[c])) / draws``."""
        return _read_only(reduce(_kron, (s.effects for s in self.sides)))

    @cached_property
    def maps(self) -> np.ndarray:
        """Superoperator per category: a run ending in category c emits
        ``maps[c] @ vec(rho)`` divided by ``tr(rho effects[c])``."""
        return _read_only(reduce(_tensor, (s.maps for s in self.sides)))

    @cached_property
    def superoperator(self) -> np.ndarray:
        """``weight`` times the product of the sides' averaged superoperators."""
        local = (s.maps.sum(axis=0, keepdims=True) / s.draws for s in self.sides)
        return _read_only(self.weigh(reduce(_tensor, local)[0]))


def require_instrument(instrument: Sequence[Branch]) -> tuple[Branch, ...]:
    """``instrument`` as a tuple of branches that act on subsystems of equal
    dimensions and whose weights sum to 1; ``ValidationError`` otherwise."""
    branches = tuple(instrument)
    if not branches:
        raise ValidationError("the channel has no local instrument to run: an instrument needs at least one branch")
    if not all(isinstance(b, Branch) for b in branches):
        raise ValidationError("an instrument holds Branch entries only")
    if len({tuple(s.dim for s in b.sides) for b in branches}) != 1:
        raise ValidationError("all branches must act on subsystems of the same dimensions")
    if abs(sum(float(b.weight) for b in branches) - 1.0) > ROUND_TOL:
        raise ValidationError("branch weights must sum to 1")
    return branches


def instrument_channel(instrument: Sequence[Branch]) -> Channel:
    """The exact channel of a local instrument, the sum of its branches'
    superoperators; the instrument must pass :func:`require_instrument`."""
    branches = require_instrument(instrument)
    return Channel(sum(b.superoperator for b in branches), instrument=branches)


def local_channel(*sides: Side) -> Channel:
    """The channel of one branch in which each subsystem takes its side, A first."""
    return instrument_channel((Branch(1, sides),))


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
    return tuple(_read_only(np.outer(v.amplitudes.conj(), v.amplitudes) / 2.0) for v in tetrahedral_states())


#: The four local steps the channels of the package are built from: leave
#: the qubit alone, apply a uniformly random Pauli, measure the tetrahedral
#: POVM and re-prepare the matching state, or re-prepare its
#: sigma_y-rotated state.
IDENTITY_SIDE = Side(corrections=(PAULI_I,))
DEPOLARIZE_SIDE = Side(corrections=PAULIS)
TRANSPOSE_SIDE = Side(povm=tetrahedral_povm(), prepared=tetrahedral_states())
INVERSION_SIDE = Side(povm=tetrahedral_povm(), prepared=tuple(PureState(PAULI_Y @ v.amplitudes) for v in tetrahedral_states()))

#: SPA-PT as a local instrument: transpose branch on B, A untouched; inversion
#: branch on A, sigma_y-rotated states, a random Pauli on B.  The inversion
#: weight is the double nearest 2/3, which the mixture has always used.
SPA_PT_INSTRUMENT = (
    Branch(Fraction(1, 3), (IDENTITY_SIDE, TRANSPOSE_SIDE)),
    Branch(Fraction(2.0 / 3.0), (INVERSION_SIDE, DEPOLARIZE_SIDE)),
)


def spa_transpose() -> Channel:
    """Physical approximation to the single-qubit transpose.

    Measures the tetrahedral POVM and prepares the matching tetrahedral
    state; the resulting action is (1/3) rho^T + (2/3) tr(rho) I/2.
    """
    return local_channel(TRANSPOSE_SIDE)


def spa_inversion() -> Channel:
    """Physical approximation to the inversion, sigma_y-conjugate of
    :func:`spa_transpose`; acts as (2/3) tr(rho) I - (1/3) rho."""
    return local_channel(INVERSION_SIDE)


def depolarize() -> Channel:
    """Fully depolarizing qubit channel as uniform random Pauli application."""
    return local_channel(DEPOLARIZE_SIDE)


def spa_pt() -> Channel:
    """Physical approximation of the two-qubit partial transpose.

    Convex mixture, with weights 1/3 and 2/3, of the transpose
    approximation on B and of (inversion approximation on A) tensor
    (depolarizer on B), read from :data:`SPA_PT_INSTRUMENT`.  As a
    superoperator it equals ``rho -> (1/9) PT(rho) + (2/9) tr(rho) I_4``,
    so output spectra are the partial-transpose spectra compressed into
    [1/6, 1/3].
    """
    return instrument_channel(SPA_PT_INSTRUMENT)


def partial_transpose_channel() -> Channel:
    """The non-physical map ``identity (x) transpose`` on two qubits, a
    fixed permutation of the vectorized entries: the partial transpose of
    the matrix of vec positions says where each output entry comes from."""
    source = vec(partial_transpose(unvec(np.arange(16), 4))).real.astype(int)
    return Channel(np.eye(16)[source])


def replace_channel(dim: int) -> Channel:
    """The map ``rho -> tr(rho) I/dim``, of rank one: vec(I/dim) vec(I)^T,
    for an integer ``dim`` in [1, 4], the dims whose Choi matrix is_cp solves."""
    dim = require_integer(dim, 1, 5, f"replace_channel takes an integer dim in [1, 4], got {dim!r}")
    eye = np.eye(dim)
    return Channel(np.outer(vec(eye / dim), vec(eye)))


def apply(channel: Channel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a physical channel to a state, or to each state of a stack;
    the output is validated."""
    out = channel.apply_matrix(rho.mat)
    return DensityMatrix((out + dag(out)) / 2.0)


@dataclass(frozen=True, eq=False)
class ChoiMatrix:
    """State obtained by acting with the channel on half of a normalized
    maximally entangled pair; PSD iff the channel is completely positive.
    Trace equals 1 for trace-preserving maps."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mat", require_hermitian(self.mat, "Choi matrix"))


def choi(channel: Channel) -> ChoiMatrix:
    """Choi matrix (Lambda (x) id)[|Omega><Omega|] with |Omega> normalized.

    Entry [(i, k), (j, l)] is Lambda(|k><l|)[i, j] / dim, a reshuffle of
    the superoperator.
    """
    d = channel.dim
    shuffled = channel.mat.reshape(d, d, d, d).transpose(1, 3, 0, 2)
    return ChoiMatrix(shuffled.reshape(d * d, d * d) / d)


def is_cp(channel: Channel) -> bool:
    """Complete positivity: the Choi matrix has no eigenvalue below -1e-9.
    The Choi matrix passed the gate when it was built."""
    w = gated_eig(choi(channel).mat).values
    return bool(w[0] >= -PSD_TOL)


def is_tp(channel: Channel) -> bool:
    """Trace preservation: vec(I)^T S equals vec(I)^T within 1e-9, i.e. the
    unnormalized Choi matrix traced over the output is the identity."""
    identity = vec(np.eye(channel.dim))
    return bool(float(np.max(np.abs(identity @ channel.mat - identity))) <= TRACE_TOL)
