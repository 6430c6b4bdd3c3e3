"""Measurement modeling: Born probabilities, finite-shot sampling,
single-copy trajectory simulation of any local instrument, the locally
realized partial-transpose approximation among them, and linear-inversion
state tomography.

Each measurement route holds its product operators as one read-only stack
built once with ``np.kron``: 40 detection-setting effects, 36 Pauli-setting
projectors and 16 Pauli products at import, and the joint effects of each
instrument branch, cached on the branch.  A Born table is one stacked
product ``tr(rho @ stack)``, equal bit for bit to the per-effect
``tr(rho @ np.kron(a, b))``.  Born tables, sampled tables and their
validation take one state or a stack of them, through the same code.

Randomness is fully reproducible: every measurement setting draws from its
own substream, ``np.random.default_rng([seed, tag, *indices])``, so settings
are order-independent and results merge deterministically.  The tags are 0
for the four joint settings of a table (index i = 0..3), 1 for its q/r
setting (no index), 2 for trajectories (no index) and 3 for the nine Pauli
settings (indices i, j = 1..3).  The generator is built from the uint32
words that ``default_rng`` derives from those integers, so the streams are
the same and numpy's per-integer conversion is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    PAULIS,
    RAW_TOL,
    ROUND_TOL,
    TRACE_TOL,
    ZERO_WEIGHT_TOL,
    NumericError,
    ValidationError,
    as_numeric,
    gated_eig,
    require_each,
    require_hermitian,
    require_integer,
)
from .states import DensityMatrix, PureState, require_single
from .channels import SPA_PT_INSTRUMENT, Branch, require_instrument, unvec, vec

__all__ = [
    "ShotConfig",
    "ProbabilityTable",
    "tomo_basis",
    "ideal_probabilities",
    "sample_table",
    "trajectory",
    "trajectory_spa_pt",
    "trajectory_branch_counts",
    "pauli_expectations",
    "sample_pauli_expectations",
    "qst_linear_inversion",
    "project_to_physical",
]

# Substream tags: 0 joint-setting tables, 1 the q/r setting, 2 trajectories,
# 3 Pauli tomography settings.
_TAG_TABLE = 0
_TAG_QR = 1
_TAG_TRAJ = 2
_TAG_PAULI = 3


def _rng(seed: int, *path: int) -> np.random.Generator:
    """``np.random.default_rng([seed, *path])``, seeded from the same uint32
    words: the seed's, lowest first, then one per path index."""
    words = [seed & 0xFFFFFFFF, *((seed >> 32,) if seed >> 32 else ()), *path]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


@dataclass(frozen=True)
class ShotConfig:
    """Finite-shot sampling configuration; identical (state, config) pairs
    reproduce identical outcomes."""

    shots_per_setting: int = 100000
    seed: int = 42

    def __post_init__(self) -> None:
        shots = require_integer(self.shots_per_setting, 1, 2**63, "shots_per_setting must be a positive integer that fits a signed 64-bit integer")
        seed = require_integer(self.seed, 0, 2**64, "seed must be an integer that fits an unsigned 64-bit integer")
        object.__setattr__(self, "shots_per_setting", shots)
        object.__setattr__(self, "seed", seed)


def _name_table_defect(p: np.ndarray, q: np.ndarray, r: np.ndarray, p_sums: np.ndarray, qr_sums: np.ndarray, lead: tuple[int, ...]) -> None:
    """Raise ``ValidationError`` for the first invariant a table breaks, in
    the order finite and in [0, 1] for p, q, r, then the row and q + r sums."""
    for name, arr in (("p", p), ("q", q), ("r", r)):
        entries = tuple(range(len(lead), arr.ndim))
        require_each(np.isfinite(arr).all(axis=entries), lambda i: f"{name} entries must be finite: the table holds NaN or inf")
        inside = (arr.min(axis=entries) >= -ROUND_TOL) & (arr.max(axis=entries) <= 1.0 + TRACE_TOL)
        require_each(inside, lambda i: f"{name} entries must lie in [0, 1]")
    require_each(np.all(p_sums <= 1.0 + TRACE_TOL, axis=-1), lambda i: "each p row must sum to at most 1 (binary A outcome per setting)")
    require_each(qr_sums <= 1.0 + TRACE_TOL, lambda i: "q and r jointly exceed total probability 1")


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Measured statistics feeding detection, of one state or of each state
    of a stack.

    ``p[i, j]`` is the joint probability of projector ``i`` on A and effect
    ``j`` on B, ``q[k]``/``r[k]`` pair effect ``k`` on A with |0><0| / |1><1|
    on B, with the effects of the measured sides of :data:`SPA_PT_INSTRUMENT`.
    A stack of N tables holds (N, 4, 4), (N, 4) and (N, 4) arrays and one
    shot count; a bad table of it is named by its index.
    ``shots_per_setting == 0`` marks an ideal (analytic) table.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    shots_per_setting: int = 0

    def __post_init__(self) -> None:
        p, q, r = (as_numeric(a, float, "probability table") for a in (self.p, self.q, self.r))
        lead = p.shape[:1] if p.ndim == 3 else ()
        if p.shape != lead + (4, 4) or q.shape != lead + (4,) or r.shape != lead + (4,):
            raise ValidationError(f"expected p (4,4), q (4,), r (4,), got {p.shape}, {q.shape}, {r.shape}")
        p_sums, qr_sums = p.sum(axis=-1), q.sum(axis=-1) + r.sum(axis=-1)
        # one test of the whole stack, failed by NaN and inf too as min and max
        # propagate them: every entry is at least 0 and every entry and sum at most 1
        bounded = np.concatenate([p.reshape(lead + (16,)), q, r, p_sums, qr_sums[..., None]], axis=-1)
        if not (bounded.min(initial=0.0) >= -ROUND_TOL and bounded.max(initial=0.0) <= 1.0 + TRACE_TOL):
            _name_table_defect(p, q, r, p_sums, qr_sums, lead)
        shots = require_integer(self.shots_per_setting, 0, float("inf"), "shots_per_setting must be a nonnegative integer")
        for name, arr in (("p", p), ("q", q), ("r", r)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "shots_per_setting", shots)


def tomo_basis() -> tuple[PureState, PureState, PureState, PureState]:
    """The four reconstruction states |0>, |1>, |+>, |+i> on subsystem A.

    Their projectors span the real space of Hermitian 2x2 matrices, so
    the four settings are tomographically complete (nonsingular Gram)."""
    k0 = np.array([1.0, 0.0], dtype=complex)
    k1 = np.array([0.0, 1.0], dtype=complex)
    return (
        PureState(k0),
        PureState(k1),
        PureState((k0 + k1) / np.sqrt(2.0)),
        PureState((k0 + 1j * k1) / np.sqrt(2.0)),
    )


#: detection settings, one row of eight outcomes each, from the effects of
#: SPA_PT_INSTRUMENT's measured sides, M_j on B of the transpose branch and M_k
#: on A of the inversion branch: rows 0..3 are {P_i (x) M_j} then {(I - P_i) (x) M_j};
#: row 4, for q and r, is {M_k (x) |0><0|} then {M_k (x) |1><1|}
_TABLE_SETTINGS = np.array(
    [[np.kron(a, eff) for a in (proj, np.eye(2) - proj) for eff in SPA_PT_INSTRUMENT[0].sides[1].povm] for proj in (t.projector() for t in tomo_basis())]
    + [[np.kron(eff, ket) for ket in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) for eff in SPA_PT_INSTRUMENT[1].sides[0].povm]]
)


def _born_weights(mats: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """tr(rho E) for every state matrix rho, one or a stack of them, and
    every effect E of ``stack``: shape ``mats.shape[:-2] + stack.shape[:-2]``.
    A stacked matmul then a trace is the per-effect arithmetic exactly, as
    the seed contract needs; an ``einsum`` or a matvec sums in another order."""
    per_state = mats.reshape(mats.shape[:-2] + (1,) * (stack.ndim - 2) + mats.shape[-2:])
    return np.trace(per_state @ stack, axis1=-2, axis2=-1).real


def _ideal_table(born: np.ndarray) -> ProbabilityTable:
    """The exact table of the detection-setting Born weights of one state or of a stack."""
    born = np.clip(born, 0.0, 1.0)
    return ProbabilityTable(born[..., :4, :4], born[..., 4, :4], born[..., 4, 4:], 0)


def ideal_probabilities(rho: DensityMatrix) -> ProbabilityTable:
    """Exact Born-rule table for the detection measurement settings, of one
    state or stacked for a stack: one product for every state and setting."""
    return _ideal_table(_born_weights(rho.mat, _TABLE_SETTINGS))


def _normalized_probs(values: np.ndarray) -> np.ndarray:
    pr = np.clip(values, 0.0, None)
    return pr / pr.sum(axis=-1, keepdims=True)


def _sampled_table(born: np.ndarray, cfg: ShotConfig) -> ProbabilityTable:
    """The finite-shot table of the detection-setting Born weights of one state or of a stack."""
    born = _normalized_probs(born)
    shots = cfg.shots_per_setting
    streams = [_rng(cfg.seed, _TAG_TABLE, i) for i in range(4)] + [_rng(cfg.seed, _TAG_QR)]
    # only a stack of two or more states rewinds the substreams, to these start states
    starts = [rng.bit_generator.state for rng in streams] if born.ndim > 2 and len(born) > 1 else []
    counts = np.empty(born.shape, dtype=np.int64)
    for n, k in enumerate(np.ndindex(born.shape[:-2])):
        for i, rng in enumerate(streams):
            if n:
                rng.bit_generator.state = starts[i]
            counts[k + (i,)] = rng.multinomial(shots, born[k + (i,)])
    return ProbabilityTable(counts[..., :4, :4] / shots, counts[..., 4, :4] / shots, counts[..., 4, 4:] / shots, shots)


def sample_table(rho: DensityMatrix, cfg: ShotConfig) -> ProbabilityTable:
    """Finite-shot table with one multinomial draw per measurement setting,
    of one state or stacked for a stack.

    Setting ``i`` draws from the eight outcomes {P_i (x) M_j} and
    {(I - P_i) (x) M_j}; only the first four relative frequencies enter
    ``p``.  The q/r setting draws from {M_k (x) |0><0|, M_k (x) |1><1|},
    a complete POVM, so the sampled q and r sum to exactly 1.

    Every state of a stack draws each setting's substream from its start,
    so its table equals the one sampled for it alone: each substream is
    seeded once and rewound to its start state for every later state.
    """
    return _sampled_table(_born_weights(rho.mat, _TABLE_SETTINGS), cfg)


def _ideal_and_sampled_tables(rho: DensityMatrix, cfg: ShotConfig) -> tuple[ProbabilityTable, ProbabilityTable]:
    """``ideal_probabilities(rho)`` and ``sample_table(rho, cfg)``, bit for
    bit, from one evaluation of the Born weights."""
    born = _born_weights(rho.mat, _TABLE_SETTINGS)
    return _ideal_table(born), _sampled_table(born, cfg)


def _trajectory_components(rho: DensityMatrix, instrument: Sequence[Branch]) -> tuple[np.ndarray, np.ndarray]:
    """Outcome probabilities and emitted states of one single-copy run of a
    local instrument, one per category.

    Categories run over branch, then over the outcomes and corrections of
    the branch's sides, side A slowest: for SPA-PT, 0..3 are the transpose
    branch (outcome k on B), 4..19 the inversion branch (outcome k on A
    crossed with the Pauli on B).  An outcome of Born weight at most 1e-14
    gets probability exactly 0; its states are left unnormalized, since
    they are never drawn.
    """
    probs, outputs = [], []
    v = vec(rho.mat)
    for branch in instrument:
        w = _born_weights(rho.mat, branch.effects)
        live = w > ZERO_WEIGHT_TOL
        probs.append(np.where(live, branch.weigh(w) / branch.draws, 0.0))
        emitted = (branch.maps @ v) / np.where(live, w, 1.0)[:, None]
        outputs.append(unvec(emitted, rho.dim))
    return _normalized_probs(np.concatenate(probs)), np.concatenate(outputs)


def _trajectory_counts(rho: DensityMatrix, instrument: Sequence[Branch], cfg: ShotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run counts and output states per category; only categories of nonzero probability are drawn."""
    probs, outputs = _trajectory_components(rho, instrument)
    drawn = probs > 0.0
    counts = np.zeros(len(probs), dtype=np.int64)
    counts[drawn] = _rng(cfg.seed, _TAG_TRAJ).multinomial(cfg.shots_per_setting, probs[drawn])
    return counts, outputs


def trajectory(rho: DensityMatrix, instrument: Sequence[Branch], cfg: ShotConfig) -> DensityMatrix:
    """Ensemble average of finite single-copy runs of a local instrument,
    such as the ``instrument`` of a channel.

    Each run picks a branch with its weight, measures each measured side and
    re-prepares the state of its outcome, and applies a uniformly random
    correction to each corrected side.  Converges to the exact channel
    output as the run count grows.
    """
    require_single("trajectory", rho)
    branches = require_instrument(instrument)
    if branches[0].dim != rho.dim:
        raise ValidationError(f"the instrument acts on dim {branches[0].dim}, the state has dim {rho.dim}")
    counts, outputs = _trajectory_counts(rho, branches, cfg)
    # the one dot of np.tensordot(weights, outputs, axes=1), on its reshaped operands
    acc = np.dot((counts / float(cfg.shots_per_setting)).reshape(1, -1), outputs.reshape(len(counts), -1)).reshape(rho.dim, rho.dim)
    return DensityMatrix((acc + acc.conj().T) / 2.0)


def trajectory_branch_counts(rho: DensityMatrix, cfg: ShotConfig) -> tuple[int, int]:
    """How many single-copy runs took the transpose branch vs the
    inversion branch (expected fractions 1/3 and 2/3)."""
    require_single("trajectory_branch_counts", rho)
    counts, _ = _trajectory_counts(rho, SPA_PT_INSTRUMENT, cfg)
    split = len(SPA_PT_INSTRUMENT[0].maps)
    return int(counts[:split].sum()), int(counts[split:].sum())


def trajectory_spa_pt(rho: DensityMatrix, cfg: ShotConfig) -> DensityMatrix:
    """Single-copy trajectories of :data:`~spapt.channels.SPA_PT_INSTRUMENT`.

    Each run picks the transpose branch with probability 1/3 (measure the
    tetrahedral POVM on B, re-prepare the matching state, keep A) or the
    inversion branch with probability 2/3 (measure A, prepare the
    sigma_y-rotated state there, apply a uniformly random Pauli to B).
    """
    return trajectory(rho, SPA_PT_INSTRUMENT, cfg)


#: eigenprojectors of x (|+>, |->), y (|+i>, |-i>) and z (|0>, |1>), from eigenbases as columns
_PAULI_EIGENPROJECTORS = [
    [np.outer(v, v.conj()) for v in basis.T]
    for basis in (np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0), np.array([[1, 1], [1j, -1j]]) / np.sqrt(2.0), np.eye(2, dtype=complex))
]
#: setting (i, j) measures sigma_i (x) sigma_j, i, j in x, y, z; outcome 2a + b
#: is eigenprojector a on A with eigenprojector b on B
_PAULI_SETTINGS = np.array([[[np.kron(pa, pb) for pa in on_a for pb in on_b] for on_b in _PAULI_EIGENPROJECTORS] for on_a in _PAULI_EIGENPROJECTORS])
#: sigma_i (x) sigma_j, index 0 the identity
_PAULI_PRODUCTS = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])
for _ops in (_TABLE_SETTINGS, _PAULI_SETTINGS, _PAULI_PRODUCTS):
    _ops.setflags(write=False)


def pauli_expectations(rho: DensityMatrix) -> np.ndarray:
    """Exact 4x4 array of <sigma_i (x) sigma_j> (index 0 is the identity),
    or one per state of a stack."""
    return _born_weights(rho.mat, _PAULI_PRODUCTS)


def sample_pauli_expectations(rho: DensityMatrix, cfg: ShotConfig) -> np.ndarray:
    """Finite-shot estimate of all Pauli-product expectations.

    Nine settings measure the joint eigenbasis of sigma_i (x) sigma_j for
    i, j in {x, y, z}; single-qubit expectations are averaged over the
    three settings that contain the given Pauli, and <I (x) I> is 1.
    """
    require_single("sample_pauli_expectations", rho)
    shots = cfg.shots_per_setting
    probs = _normalized_probs(_born_weights(rho.mat, _PAULI_SETTINGS))
    counts = np.empty((3, 3, 4), dtype=np.int64)
    for i, j in np.ndindex(3, 3):
        counts[i, j] = _rng(cfg.seed, _TAG_PAULI, i + 1, j + 1).multinomial(shots, probs[i, j])
    # freq[i, j, a, b]: setting (i, j), eigenvalue sign a on A and b on B
    freq = counts.reshape(3, 3, 2, 2) / shots
    signs = np.array([1.0, -1.0])
    e = np.ones((4, 4))
    e[1:, 1:] = (freq @ signs) @ signs
    e[1:, 0] = (freq.sum(axis=3) @ signs).mean(axis=1)
    e[0, 1:] = (freq.sum(axis=2) @ signs).mean(axis=0)
    return e


def qst_linear_inversion(expectations: np.ndarray) -> np.ndarray:
    """Reconstruct a two-qubit operator from Pauli-product expectations.

    ``expectations`` is a finite 4x4 real array, exact (from
    :func:`pauli_expectations`, and the reconstruction round-trips the
    state) or sampled, whose ``[0, 0]`` entry, the trace, is 1 within 1e-9.
    Returns a raw matrix: from noisy data it is generally not PSD, see
    :func:`project_to_physical`.
    """
    expectations = as_numeric(expectations, None, "array of Pauli expectations", copy=False)
    if expectations.shape != (4, 4):
        raise ValidationError(f"expected all 16 Pauli expectations as a 4x4 array, got shape {expectations.shape}")
    if expectations.dtype.kind not in "iuf":
        raise ValidationError(f"Pauli expectations must be real numbers, got dtype {expectations.dtype}")
    if not np.isfinite(expectations).all():
        raise ValidationError("Pauli expectations must be finite: the array holds NaN or inf")
    if abs(expectations[0, 0] - 1.0) > TRACE_TOL:
        raise ValidationError(f"<I (x) I> is the trace and must be 1, got {expectations[0, 0]:.6g}")
    # the one dot of np.tensordot(expectations, _PAULI_PRODUCTS, axes=2), on its reshaped operands
    return np.dot(expectations.reshape(1, 16), _PAULI_PRODUCTS.reshape(16, 16)).reshape(4, 4) / 4.0


def project_to_physical(raw: np.ndarray) -> DensityMatrix:
    """Nearest physical state under the 2-norm on the spectrum.

    This is the projection of Smolin, Gambetta and Smith, PRL 108, 070502
    (2012).  The eigenbasis is kept.  The spectrum gets a uniform shift to
    restore unit trace, then negative eigenvalues are clipped to zero with
    their deficit spread uniformly over the remaining positive ones,
    iterating until all are nonnegative.
    """
    a = require_hermitian(raw, "matrix to project", RAW_TOL)
    if a.ndim != 2:
        raise ValidationError(f"expected one square matrix to project, got shape {a.shape}")
    trace_dev = abs(complex(np.trace(a)) - 1.0)
    if trace_dev > RAW_TOL:
        raise ValidationError(f"trace too far from 1 to project: |tr - 1| = {trace_dev:.3e}")
    w, v = gated_eig(a)
    n = len(w)
    x = w + (1.0 - w.sum()) / n
    for _ in range(n + 1):
        negative = x < 0.0
        if not negative.any():
            break
        deficit = float(x[negative].sum())
        x[negative] = 0.0
        positive = x > 0.0
        x[positive] += deficit / int(positive.sum())
    else:
        raise NumericError("eigenvalue clipping did not settle")
    mat = (v * np.clip(x, 0.0, None)) @ v.conj().T
    return DensityMatrix((mat + mat.conj().T) / 2.0)
