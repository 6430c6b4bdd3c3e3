"""Measurement modeling: Born probabilities, finite-shot sampling,
single-copy trajectory simulation of any local instrument, the locally
realized partial-transpose approximation among them, and linear-inversion
state tomography.

Each measurement route holds its ``np.kron`` products, built once, side by
side as one read-only matrix ``[E_0 | E_1 | ...]``: 40 detection-setting
effects and 36 Pauli-setting projectors at import, and the joint effects of
each instrument branch, cached on the branch.  A Born table is one BLAS
product of the state's rows, or a whole stack's, with that matrix, which
computes each 4x4 block as ``rho @ E_k`` does, then each block's real
diagonal summed in the order of numpy's trace: bit for bit the per-effect
``np.trace(rho @ np.kron(a, b)).real``.  Born tables, sampled tables and
their validation take one state or a stack of them, through the same code.

Randomness is fully reproducible: every measurement setting draws from its
own substream, ``np.random.default_rng([seed, tag, *indices])``, so settings
are order-independent and results merge deterministically.  The tags are 0
for the four joint settings of a table (index i = 0..3), 1 for its q/r
setting (no index), 2 for trajectories (no index) and 3 for the nine Pauli
settings (indices i, j = 1..3).  Each draw starts its own ``PCG64`` from
the seed words of its ``default_rng``, so a stack entry draws as it would
alone; a call derives the words of all its substreams in one step, from the
``SeedSequence`` pools of the uint32 words ``default_rng`` derives from the
integers, in one vectorized pass of numpy's output hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import (
    PAULIS,
    RAW_TOL,
    ROUND_TOL,
    TRACE_TOL,
    ZERO_WEIGHT_TOL,
    ValidationError,
    as_numeric,
    gated_eig,
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
# 3 Pauli tomography settings.
_TAG_TABLE = 0
_TAG_QR = 1
_TAG_TRAJ = 2
_TAG_PAULI = 3


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
    """Exact Born-rule table for the detection measurement settings, of one
    state or stacked for a stack: one product for every state and setting."""
    born = np.minimum(np.maximum(0.0, _born_weights(rho.mat, _TABLE_SETTINGS)), 1.0)  # np.clip(weights, 0.0, 1.0), bit for bit
    return ProbabilityTable(born[..., :4, :4], born[..., 4, :4], born[..., 4, 4:], 0)


def _normalized_probs(values: np.ndarray) -> np.ndarray:
    pr = np.maximum(values, 0.0)  # np.clip(values, 0.0, None), bit for bit
    return pr / pr.sum(axis=-1, keepdims=True)


def _draw(cfg: ShotConfig, probs: np.ndarray, *paths: tuple[int, ...]) -> np.ndarray:
    """Counts of ``cfg.shots_per_setting`` runs over each row of ``probs``, in its shape: row k,
    in C order, draws from a fresh generator, bit for bit ``np.random.default_rng([cfg.seed,
    *paths[k % len(paths)]])``; a 1-D ``probs`` is one row, drawn as it is, with no stacking."""
    streams = [_seed_sequence()(words) for words in _seed_words(cfg.seed, *paths)]

    def draw(k: int, row: np.ndarray) -> np.ndarray:
        return np.random.Generator(np.random.PCG64(streams[k % len(streams)])).multinomial(cfg.shots_per_setting, row)
    if probs.ndim == 1:
        return draw(0, probs)
    return np.array([draw(k, row) for k, row in enumerate(probs.reshape(-1, probs.shape[-1]))]).reshape(probs.shape)


def sample_table(rho: DensityMatrix, cfg: ShotConfig) -> ProbabilityTable:
    """Finite-shot table with one multinomial draw per measurement setting,
    of one state or stacked for a stack.

    Setting ``i`` draws from the eight outcomes {P_i (x) M_j} and
    {(I - P_i) (x) M_j}; only the first four relative frequencies enter
    ``p``.  The q/r setting draws from {M_k (x) |0><0|, M_k (x) |1><1|},
    a complete POVM, so the sampled q and r sum to exactly 1.

    Each draw starts its own generator, so a stack entry's table is the one sampled for it alone.
    """
    born = _normalized_probs(_born_weights(rho.mat, _TABLE_SETTINGS))
    freq = _draw(cfg, born, *((_TAG_TABLE, i) for i in range(4)), (_TAG_QR,)) / cfg.shots_per_setting
    return ProbabilityTable(freq[..., :4, :4], freq[..., 4, :4], freq[..., 4, 4:], cfg.shots_per_setting)


def _trajectory_components(rho: DensityMatrix, instrument: Instrument) -> tuple[np.ndarray, np.ndarray]:
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
    for branch in instrument.branches:
        w = _born_weights(rho.mat, branch.effects)
        live = w > ZERO_WEIGHT_TOL
        probs.append(np.where(live, branch.weigh(w) / branch.draws, 0.0))
        emitted = (branch.maps @ v) / np.where(live, w, 1.0)[:, None]
        outputs.append(unvec(emitted, rho.dim))
    return _normalized_probs(np.concatenate(probs)), np.concatenate(outputs)


def _trajectory_counts(rho: DensityMatrix, instrument: Instrument, cfg: ShotConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run counts and output states per category; only categories of nonzero probability are drawn."""
    probs, outputs = _trajectory_components(rho, instrument)
    drawn = probs > 0.0
    counts = np.zeros(len(probs), dtype=np.int64)
    counts[drawn] = _draw(cfg, probs[drawn], (_TAG_TRAJ,))
    return counts, outputs


def trajectory(rho: DensityMatrix, instrument: Instrument, cfg: ShotConfig) -> DensityMatrix:
    """Ensemble average of finite single-copy runs of a local instrument,
    such as the ``instrument`` of a channel.

    Each run picks a branch with its weight, measures each measured side and
    re-prepares the state of its outcome, and applies a uniformly random
    correction to each corrected side.  Converges to the exact channel
    output as the run count grows.
    """
    require_single("trajectory", rho)
    if not isinstance(instrument, Instrument):
        raise ValidationError(f"the channel has no local instrument to run: expected an Instrument, got {type(instrument).__name__}")
    if instrument.dim != rho.dim:
        raise ValidationError(f"the instrument acts on dim {instrument.dim}, the state has dim {rho.dim}")
    counts, outputs = _trajectory_counts(rho, instrument, cfg)
    # the one dot of np.tensordot(weights, outputs, axes=1), on its reshaped operands
    acc = np.dot((counts / float(cfg.shots_per_setting)).reshape(1, -1), outputs.reshape(len(counts), -1)).reshape(rho.dim, rho.dim)
    return DensityMatrix((acc + acc.conj().T) / 2.0)


def trajectory_branch_counts(rho: DensityMatrix, cfg: ShotConfig) -> tuple[int, int]:
    """How many single-copy runs took the transpose branch vs the
    inversion branch (expected fractions 1/3 and 2/3)."""
    require_single("trajectory_branch_counts", rho)
    counts, _ = _trajectory_counts(rho, SPA_PT_INSTRUMENT, cfg)
    split = len(SPA_PT_INSTRUMENT.branches[0].maps)
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
    """Finite-shot estimate of all Pauli-product expectations.

    Nine settings measure the joint eigenbasis of sigma_i (x) sigma_j for
    i, j in {x, y, z}; single-qubit expectations are averaged over the
    three settings that contain the given Pauli, and <I (x) I> is 1.
    """
    require_single("sample_pauli_expectations", rho)
    probs = _normalized_probs(_born_weights(rho.mat, _PAULI_SETTINGS))
    # freq[i, j, a, b]: setting (i, j), eigenvalue sign a on A and b on B
    freq = _draw(cfg, probs, *((_TAG_PAULI, i + 1, j + 1) for i, j in np.ndindex(3, 3))).reshape(3, 3, 2, 2) / cfg.shots_per_setting
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
    mat = (v * np.clip(x, 0.0, None)) @ v.conj().T
    return DensityMatrix((mat + mat.conj().T) / 2.0)
