"""Measurement modeling: Born probabilities, finite-shot sampling,
single-copy trajectory simulation of any local instrument, the locally
realized partial-transpose approximation among them, and linear-inversion
state tomography.

Each measurement route holds its ``np.kron`` products, built once, side by
side as one read-only matrix ``[E_0 | E_1 | ...]``: 40 detection-setting
effects and 36 Pauli-setting projectors at import, and the joint effects of
each category of an instrument, all branches in one table cached on the
instrument.  A Born table is one BLAS product of the state's rows, or a
whole stack's, with that matrix, which computes each 4x4 block as
``rho @ E_k`` does, then each block's real diagonal summed in the order of
numpy's trace: bit for bit the per-effect ``np.trace(rho @ np.kron(a, b)).real``.
A trajectory adds one product of the stacked category superoperators with
the state.  Each function of a state, table or matrix here takes one or a
stack of them, through the same code, and gives each entry its single
result bit for bit: Born tables, sampled tables, trajectories, Pauli
expectations, their inversion and the physicality projection.  Only
:func:`trajectory_branch_counts` refuses a stack.

A :class:`ProbabilityTable` built from outside the package passes the table
gate; the tables the samplers form are stored as formed, without it.

A sweep measures one state at many seeds and shot budgets, and only the draws
change between calls.  So ``sample_table`` and the trajectories keep what
they draw from in the state's memo, read-only, from their first call for as
long as the state lives: the normalized Born table of the detection settings
(of one state or a stack), and for the last ``Instrument`` object run on the
state the mask of drawn categories, each entry's probabilities of them and
the emitted states; a trajectory of another instrument replaces them.
Nothing derived from a ``ShotConfig`` is kept.

Randomness is fully reproducible: every measurement setting draws from its
own substream, ``np.random.default_rng([seed, tag, *indices])``, so settings
are order-independent and results merge deterministically.  The tags are 0
for the four joint settings of a table (index i = 0..3), 1 for its q/r
setting (no index), 2 for trajectories (no index) and 3 for the nine Pauli
settings (indices i, j = 1..3).  Each draw starts its own ``PCG64`` from
the seed words of its ``default_rng``, so a stack entry draws as it would
alone, from the same substreams; a call derives the words of all its substreams in one step, from the
``SeedSequence`` pools of the uint32 words ``default_rng`` derives from the
integers, in one vectorized pass of numpy's output hash.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import (
    PAULIS,
    PSD_TOL,
    RAW_TOL,
    ROUND_TOL,
    TRACE_TOL,
    ZERO_WEIGHT_TOL,
    ValidationError,
    as_numeric,
    count_nonzero,
    dag,
    gated_eig,
    require_all,
    require_each,
    require_hermitian,
    require_integer,
    side_by_side,
)
from .states import DensityMatrix, PureState, require_single
from .channels import SPA_PT_INSTRUMENT, Instrument, unvec, vec

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
# 3 Pauli tomography settings; then the substream paths of a table's and the Pauli settings' draws.
_TAG_TABLE = 0
_TAG_QR = 1
_TAG_TRAJ = 2
_TAG_PAULI = 3
_TABLE_PATHS = tuple((_TAG_TABLE, i) for i in range(4)) + ((_TAG_QR,),)
_PAULI_PATHS = tuple((_TAG_PAULI, i, j) for i in (1, 2, 3) for j in (1, 2, 3))


# numpy's SeedSequence output stage, generate_state(4, uint64): uint32 word k
# is pool word k % 4 xored with hash constant k = INIT_B * MULT_B**k, times
# hash constant k + 1, then xorshifted by 16; the constants depend only on k,
# so the words of many pools are one vectorized xor, multiply and xorshift
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_HASH = np.array([_INIT_B * pow(_MULT_B, k, 2**32) % 2**32 for k in range(9)], dtype=np.uint32)
_HASH_XOR, _HASH_MUL = _HASH[:8].reshape(2, 4), _HASH[1:].reshape(2, 4)


@cache
def _seed_sequence() -> type:
    """An ``ISeedSequence`` that hands ``PCG64``, which asks for
    ``generate_state(4, uint64)``, the four seed words its ``SeedSequence``
    would generate.  Built on first use, so that a process that never
    samples does not import ``numpy.random`` (15-19 ms on a 2-core Xeon)."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
            return self.words

    return SeedWords


def _seed_words(seed: int, *paths: tuple[int, ...]) -> np.ndarray:
    """The four uint64 words ``np.random.default_rng([seed, *path])`` seeds ``PCG64`` with, a row per
    path, from the same uint32 words: the seed's, lowest first, then one per path index."""
    head = [seed & 0xFFFFFFFF, *((seed >> 32,) if seed >> 32 else ())]
    pools = np.array([np.random.SeedSequence(np.array(head + list(path), dtype=np.uint32)).pool for path in paths])
    words = (pools[:, None, :] ^ _HASH_XOR) * _HASH_MUL  # word 4 h + k hashes pool word k
    words ^= words >> 16
    # as generate_state does: little-endian uint32 pairs read as native uint64
    return words.reshape(len(paths), 8).astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


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


#: starts of the p rows and of q, r in a table's entries [p.ravel(), q, r]: their sums are the row sums and q + r
_SUM_STARTS = np.array([0, 4, 8, 12, 16])


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

    A table built from outside the package passes the gate.  The tables of
    :func:`sample_table` and :func:`ideal_probabilities` cannot fail it and
    are stored as it stores a table, read-only C-order float copies,
    without its tests.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    shots_per_setting: int = 0

    def __post_init__(self) -> None:
        p = as_numeric(self.p, float, "probability table")
        q = as_numeric(self.q, float, "probability table")
        r = as_numeric(self.r, float, "probability table")
        lead = p.shape[:1] if p.ndim == 3 else ()
        if p.shape != lead + (4, 4) or q.shape != lead + (4,) or r.shape != lead + (4,):
            raise ValidationError(f"expected p (4,4), q (4,), r (4,), got {p.shape}, {q.shape}, {r.shape}")
        # one test of the whole stack's entries, which NaN fails too: each in [0, 1], else p, q, then r is named, finite first;
        # only then are they summed (inf - inf is NaN) and bounded by what a valid state's ideal table reaches, + Born rounding:
        # |tr - 1| <= TRACE_TOL and lambda_min >= -PSD_TOL leave at most three eigenvalues below 0, so tr rho+ <= 1 + TRACE_TOL
        # + 3 PSD_TOL, which bounds each weight max(0, tr rho E) summed over a p row (P_i (x) I <= I) or over q and r (I)
        entries = np.concatenate([p.reshape(lead + (16,)), q, r], axis=-1)
        inside = (entries >= -ROUND_TOL) & (entries <= 1.0 + TRACE_TOL)
        if count_nonzero(inside) != inside.size:
            for name, cut in (("p", slice(0, 16)), ("q", slice(16, 20)), ("r", slice(20, 24))):
                require_each(np.isfinite(entries[..., cut]).all(axis=-1), lambda i: f"{name} entries must be finite: the table holds NaN or inf")
                require_each(inside[..., cut].all(axis=-1), lambda i: f"{name} entries must lie in [0, 1]")
        bounded = np.add.reduceat(entries, _SUM_STARTS, axis=-1) <= 1.0 + TRACE_TOL + 3.0 * PSD_TOL + ROUND_TOL
        if count_nonzero(bounded) != bounded.size:
            require_each(bounded[..., :4].all(axis=-1), lambda i: "each p row must sum to at most 1 (binary A outcome per setting)")
            require_each(bounded[..., 4], lambda i: "q and r jointly exceed total probability 1")
        shots = require_integer(self.shots_per_setting, 0, float("inf"), "shots_per_setting must be a nonnegative integer")
        for name, arr in (("p", p), ("q", q), ("r", r)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "shots_per_setting", shots)

    @classmethod
    def _from_measured(cls, settings: np.ndarray, shots: int) -> ProbabilityTable:
        """The table of the (..., 5, 8) float outcomes of the detection settings a sampler of this module formed, laid
        out as ``_TABLE_SETTINGS``, and an int ``shots``, stored as the gate stores one: p is the first four outcomes
        of rows 0..3, q and r the two halves of row 4."""
        table = object.__new__(cls)
        for name, arr in (("p", settings[..., :4, :4]), ("q", settings[..., 4, :4]), ("r", settings[..., 4, 4:])):
            kept = arr.copy()
            kept.setflags(write=False)
            object.__setattr__(table, name, kept)
        object.__setattr__(table, "shots_per_setting", shots)
        return table


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
#: row 4, for q and r, is {M_k (x) |0><0|} then {M_k (x) |1><1|}; laid side
#: by side, ``_TABLE_SETTINGS[:, i, j, :]`` is outcome j of setting i
_TABLE_SETTINGS = side_by_side(np.array(
    [[np.kron(a, eff) for a in (proj, np.eye(2) - proj) for eff in SPA_PT_INSTRUMENT.branches[0].sides[1].povm] for proj in (t.projector() for t in tomo_basis())]
    + [[np.kron(eff, ket) for ket in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) for eff in SPA_PT_INSTRUMENT.branches[1].sides[0].povm]]
))


def _born_weights(mats: np.ndarray, wide: np.ndarray) -> np.ndarray:
    """tr(rho E) for every state matrix rho, one or a stack of them, and every
    effect E laid :func:`~spapt.linalg.side_by_side` in ``wide``: shape
    ``mats.shape[:-2] + wide.shape[1:-1]``.  The one BLAS product of the 4N
    state rows with ``[E_0 | E_1 | ...]`` computes each block as the 4x4
    product rho @ E did, and (d0 + d1) + (d2 + d3) is the order numpy sums a
    trace of four complex entries in, so the weights are the per-effect
    ``np.trace(rho @ E).real`` bit for bit, as the seed contract needs; an
    ``einsum`` or a matvec sums in another order."""
    lead = mats.shape[:-2]
    prod = (mats.reshape(-1, 4) @ wide.reshape(4, -1)).real
    blocks = prod.reshape(lead + (4, prod.shape[-1] // 4, 4))
    traces = (blocks[..., 0, :, 0] + blocks[..., 1, :, 1]) + (blocks[..., 2, :, 2] + blocks[..., 3, :, 3])
    return traces.reshape(lead + wide.shape[1:-1])


def ideal_probabilities(rho: DensityMatrix) -> ProbabilityTable:
    """Exact Born-rule table for the detection settings, of one state or stacked for a stack, one product for all.
    Clipped at 0, a valid state's table lies within the gate's bounds and is stored without it; no weight reaches
    1, since an effect of trace 1/2 and norm 1/2 weighs at most half the largest eigenvalue."""
    return ProbabilityTable._from_measured(np.maximum(0.0, _born_weights(rho.mat, _TABLE_SETTINGS)), 0)


def _normalized_probs(values: np.ndarray) -> np.ndarray:
    pr = np.maximum(values, 0.0)  # np.clip(values, 0.0, None), bit for bit
    return pr / pr.sum(axis=-1, keepdims=True)


def _kept(rho: DensityMatrix, key: str, source: object, compute: Callable[[], tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """The arrays ``compute()`` derives from ``rho`` and ``source``, kept read-only in ``rho``'s memo under ``key``
    with their source, which another source replaces: a state holds one entry per key.  Threads that race on one
    state at worst compute a value twice, to the same bits."""
    memo = rho._memo
    if memo is None:
        memo = {}
        object.__setattr__(rho, "_memo", memo)
    kept = memo.get(key)
    if kept is None or kept[0] is not source:
        arrays = compute()
        for value in arrays:
            value.setflags(write=False)
        kept = memo[key] = (source, arrays)
    return kept[1]


def _draw(cfg: ShotConfig, rows: Iterable[np.ndarray], *paths: tuple[int, ...]) -> list[np.ndarray]:
    """Counts of ``cfg.shots_per_setting`` runs over each probability row of ``rows``, rows of any lengths:
    row k draws from a fresh ``PCG64``, bit for bit ``np.random.default_rng([cfg.seed, *paths[k % len(paths)]])``."""
    streams = [_seed_sequence()(words) for words in _seed_words(cfg.seed, *paths)]
    return [np.random.Generator(np.random.PCG64(streams[k % len(streams)])).multinomial(cfg.shots_per_setting, row) for k, row in enumerate(rows)]


def sample_table(rho: DensityMatrix, cfg: ShotConfig) -> ProbabilityTable:
    """Finite-shot table with one multinomial draw per measurement setting,
    of one state or stacked for a stack.

    Setting ``i`` draws from the eight outcomes {P_i (x) M_j} and
    {(I - P_i) (x) M_j}; only the first four relative frequencies enter
    ``p``.  The q/r setting draws from {M_k (x) |0><0|, M_k (x) |1><1|},
    a complete POVM, so the sampled q and r sum to exactly 1.

    Each draw starts its own generator, so a stack entry's table is the one sampled for it alone.
    """
    (born,) = _kept(rho, "table", _TABLE_SETTINGS, lambda: (_normalized_probs(_born_weights(rho.mat, _TABLE_SETTINGS)),))
    freq = np.array(_draw(cfg, born.reshape(-1, 8), *_TABLE_PATHS)).reshape(born.shape) / cfg.shots_per_setting
    # counts over shots: each entry in [0, 1], each p row and q + r at most 1 up to rounding
    return ProbabilityTable._from_measured(freq, cfg.shots_per_setting)


def _trajectory_components(rho: DensityMatrix, instrument: Instrument) -> tuple[np.ndarray, ...]:
    """What one single-copy run of a local instrument draws from, for one state
    or each of a stack: the mask of categories of nonzero probability, every
    category's emitted state, in C order, so that ``trajectory`` reads them as
    rows without a copy, then each entry's probabilities of its drawn categories.

    Categories run as in the instrument's table, over branch, then over the
    outcomes and corrections of the branch's sides, side A slowest: for
    SPA-PT, 0..3 are the transpose branch (outcome k on B), 4..19 the
    inversion branch (outcome k on A crossed with the Pauli on B).  An
    outcome of Born weight at most 1e-14 gets probability exactly 0; its
    states are left unnormalized, since they are never drawn.
    """
    effects, maps, (numerator, denominator, draws) = instrument.categories
    w = _born_weights(rho.mat, effects)
    live = w > ZERO_WEIGHT_TOL
    probs = _normalized_probs(np.where(live, ((w * numerator) / denominator) / draws, 0.0))
    # vec(rho) as a column, so that each category's product is the matrix-vector one of maps @ vec(rho)
    emitted = (maps @ vec(rho.mat)[..., None, :, None])[..., 0]
    outputs = np.ascontiguousarray(unvec(emitted / np.where(live, w, 1.0)[..., None], rho.dim))
    drawn = probs > 0.0
    rows = zip(probs.reshape(-1, probs.shape[-1]), drawn.reshape(-1, probs.shape[-1]))
    return drawn, outputs, *(row[mask] for row, mask in rows)


def _trajectory_counts(rho: DensityMatrix, instrument: Instrument, cfg: ShotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run counts and output states per category, of one state or each of a stack; each entry draws
    only its categories of nonzero probability, from the one trajectory substream."""
    drawn, outputs, *rows = _kept(rho, "trajectory", instrument, lambda: _trajectory_components(rho, instrument))
    counts = np.zeros(drawn.shape, dtype=np.int64)
    # the entries' draws joined in C order, as the mask reads them; the empty int64 start serves an empty stack
    counts[drawn] = np.concatenate([np.zeros(0, dtype=np.int64), *_draw(cfg, rows, (_TAG_TRAJ,))])
    return counts, outputs


def trajectory(rho: DensityMatrix, instrument: Instrument, cfg: ShotConfig) -> DensityMatrix:
    """Ensemble average of finite single-copy runs of a local instrument,
    such as the ``instrument`` of a channel, on one state or on each state
    of a stack.

    Each run picks a branch with its weight, measures each measured side and
    re-prepares the state of its outcome, and applies a uniformly random
    correction to each corrected side.  Converges to the exact channel
    output as the run count grows.  Every entry of a stack draws from the
    one trajectory substream, so its output is the one it gives alone.
    """
    if not isinstance(instrument, Instrument):
        raise ValidationError(f"the channel has no local instrument to run: expected an Instrument, got {type(instrument).__name__}")
    if instrument.dim != rho.dim:
        raise ValidationError(f"the instrument acts on dim {instrument.dim}, the state has dim {rho.dim}")
    counts, outputs = _trajectory_counts(rho, instrument, cfg)
    # per entry the one (1, K) @ (K, d * d) dot of np.tensordot(weights, outputs, axes=1), on its reshaped operands
    acc = ((counts / float(cfg.shots_per_setting))[..., None, :] @ outputs.reshape(counts.shape + (rho.dim**2,))).reshape(rho.mat.shape)
    return DensityMatrix(acc)


def trajectory_branch_counts(rho: DensityMatrix, cfg: ShotConfig) -> tuple[int, int]:
    """How many single-copy runs of one state took the transpose branch vs
    the inversion branch (expected fractions 1/3 and 2/3); a stack is refused."""
    require_single("trajectory_branch_counts", rho)
    counts, _ = _trajectory_counts(rho, SPA_PT_INSTRUMENT, cfg)
    split = math.prod(len(s.effects) for s in SPA_PT_INSTRUMENT.branches[0].sides)
    return int(counts[:split].sum()), int(counts[split:].sum())


def trajectory_spa_pt(rho: DensityMatrix, cfg: ShotConfig) -> DensityMatrix:
    """Single-copy trajectories of :data:`~spapt.channels.SPA_PT_INSTRUMENT`,
    of one state or of each state of a stack.

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
#: is eigenprojector a on A with eigenprojector b on B; laid side by side,
#: ``_PAULI_SETTINGS[:, i, j, k, :]`` is outcome k of setting (i, j)
_PAULI_SETTINGS = side_by_side(np.array([[[np.kron(pa, pb) for pa in on_a for pb in on_b] for on_b in _PAULI_EIGENPROJECTORS] for on_a in _PAULI_EIGENPROJECTORS]))
#: sigma_i (x) sigma_j, index 0 the identity, stacked as qst_linear_inversion reads it
_PAULI_PRODUCTS = np.array([[np.kron(si, sj) for sj in PAULIS] for si in PAULIS])
_PAULI_PRODUCTS.setflags(write=False)


def pauli_expectations(rho: DensityMatrix) -> np.ndarray:
    """Exact 4x4 array of <sigma_i (x) sigma_j> (index 0 is the identity),
    or one per state of a stack."""
    return _born_weights(rho.mat, side_by_side(_PAULI_PRODUCTS))


def sample_pauli_expectations(rho: DensityMatrix, cfg: ShotConfig) -> np.ndarray:
    """Finite-shot estimate of all Pauli-product expectations, of one state
    or of each state of a stack.

    Nine settings measure the joint eigenbasis of sigma_i (x) sigma_j for
    i, j in {x, y, z}; single-qubit expectations are averaged over the
    three settings that contain the given Pauli, and <I (x) I> is 1.  A
    stack entry's estimate is the one sampled for it alone.
    """
    probs = _normalized_probs(_born_weights(rho.mat, _PAULI_SETTINGS))
    # freq[..., i, j, a, b]: setting (i, j), eigenvalue sign a on A and b on B
    counts = np.array(_draw(cfg, probs.reshape(-1, 4), *_PAULI_PATHS))
    freq = counts.reshape(probs.shape[:-3] + (3, 3, 2, 2)) / cfg.shots_per_setting
    # f0 - f1 and ((x0 + x1) + x2) / 3 on slices: the float operations, in order, of `@ [1, -1]` and `.mean`
    b_signed, a_sums, b_sums = freq[..., 0] - freq[..., 1], freq[..., 0] + freq[..., 1], freq[..., 0, :] + freq[..., 1, :]
    on_a, on_b = a_sums[..., 0] - a_sums[..., 1], b_sums[..., 0] - b_sums[..., 1]  # [..., i, j]: setting (i, j)'s sign on A, on B
    e = np.ones(probs.shape[:-3] + (4, 4))
    e[..., 1:, 1:] = b_signed[..., 0] - b_signed[..., 1]
    e[..., 1:, 0] = ((on_a[..., 0] + on_a[..., 1]) + on_a[..., 2]) / 3.0
    e[..., 0, 1:] = ((on_b[..., 0, :] + on_b[..., 1, :]) + on_b[..., 2, :]) / 3.0
    return e


def qst_linear_inversion(expectations: np.ndarray) -> np.ndarray:
    """Reconstruct a two-qubit operator from Pauli-product expectations.

    ``expectations`` is a finite 4x4 real array, or an ``(N, 4, 4)`` stack
    of them, exact (from :func:`pauli_expectations`, and the reconstruction
    round-trips the state) or sampled, whose ``[0, 0]`` entry, the trace,
    is 1 within 1e-9.  Returns a raw matrix, or one per entry: from noisy
    data it is generally not PSD, see :func:`project_to_physical`.
    """
    expectations = as_numeric(expectations, None, "array of Pauli expectations", copy=False)
    if expectations.shape[-2:] != (4, 4) or expectations.ndim > 3:
        raise ValidationError(f"expected all 16 Pauli expectations as a 4x4 array or an (N, 4, 4) stack, got shape {expectations.shape}")
    if expectations.dtype.kind not in "iuf":
        raise ValidationError(f"Pauli expectations must be real numbers, got dtype {expectations.dtype}")
    require_all(np.isfinite(expectations), lambda i: "Pauli expectations must be finite: the array holds NaN or inf")
    trace = expectations[..., 0, 0]
    require_each(abs(trace - 1.0) <= TRACE_TOL, lambda i: f"<I (x) I> is the trace and must be 1, got {trace[i]:.6g}")
    # per entry the one (1, 16) @ (16, 16) dot of np.tensordot(expectations, _PAULI_PRODUCTS, axes=2), on its reshaped operands
    return (expectations.reshape(trace.shape + (1, 16)) @ _PAULI_PRODUCTS.reshape(16, 16)).reshape(expectations.shape) / 4.0


def project_to_physical(raw: np.ndarray) -> DensityMatrix:
    """Nearest physical state under the 2-norm on the spectrum, of one raw
    matrix or of each matrix of a stack.

    This is the projection of Smolin, Gambetta and Smith, PRL 108, 070502
    (2012).  The eigenbasis is kept.  The spectrum gets a uniform shift to
    restore unit trace, then negative eigenvalues are clipped to zero with
    their deficit spread uniformly over the remaining positive ones,
    iterating until all are nonnegative.  A stack iterates as one, each
    entry with its own masks, and an entry that is done stays as it is.
    """
    a = require_hermitian(raw, "matrix to project", RAW_TOL)
    trace_dev = abs(a.trace(axis1=-2, axis2=-1) - 1.0)
    require_each(trace_dev <= RAW_TOL, lambda i: f"trace too far from 1 to project: |tr - 1| = {trace_dev[i]:.3e}")
    w, v = gated_eig(a)
    n = w.shape[-1]
    x = w + (1.0 - w.sum(axis=-1, keepdims=True)) / n
    for _ in range(n + 1):
        negative = x < 0.0
        if not negative.any():
            break
        # the negatives summed in order, with the zeros in between adding nothing
        deficit = np.where(negative, x, 0.0).sum(axis=-1, keepdims=True)
        x[negative] = 0.0
        positive = x > 0.0
        np.add(x, deficit / positive.sum(axis=-1, keepdims=True), out=x, where=positive)
    mat = (v * np.maximum(x, 0.0)[..., None, :]) @ dag(v)  # np.clip(x, 0.0, None), bit for bit
    return DensityMatrix(mat)
