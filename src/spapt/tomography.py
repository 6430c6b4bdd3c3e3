"""Measurement modeling: Born probabilities, finite-shot sampling,
single-copy trajectory simulation of the locally realized partial-transpose
approximation, and linear-inversion state tomography.

Randomness is fully reproducible: every measurement setting draws from its
own substream derived from ``(seed, tag, indices)``, so settings are
order-independent and results merge deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULIS,
    RAW_TOL,
    ROUND_TOL,
    TRACE_TOL,
    ZERO_WEIGHT_TOL,
    NumericError,
    ValidationError,
    herm_eig,
    partial_trace,
    require_hermitian,
)
from .states import DensityMatrix, PureState
from .channels import SPA_PT_INSTRUMENT, tetrahedral_povm

__all__ = [
    "ShotConfig",
    "ProbabilityTable",
    "tomo_basis",
    "ideal_probabilities",
    "sample_table",
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

# |0><0| and |1><1| on B, paired with the tetrahedral effects on A for q and r
_KET0 = np.diag([1.0, 0.0]).astype(complex)
_KET1 = np.diag([0.0, 1.0]).astype(complex)


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *map(int, path)])


@dataclass(frozen=True)
class ShotConfig:
    """Finite-shot sampling configuration; identical (state, config) pairs
    reproduce identical outcomes."""

    shots_per_setting: int = 100000
    seed: int = 42

    def __post_init__(self) -> None:
        if not 1 <= int(self.shots_per_setting) < 2**63:
            raise ValidationError("shots_per_setting must be a positive integer that fits a signed 64-bit integer")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must fit an unsigned 64-bit integer")
        object.__setattr__(self, "shots_per_setting", int(self.shots_per_setting))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class ProbabilityTable:
    """Measured statistics feeding detection.

    ``p[i, j]`` is the joint probability of projector ``i`` on A and
    tetrahedral effect ``j`` on B; ``q[k]``/``r[k]`` pair effect ``k`` on A
    with |0><0| / |1><1| on B.  ``shots_per_setting == 0`` marks an
    ideal (analytic) table.
    """

    p: np.ndarray
    q: np.ndarray
    r: np.ndarray
    shots_per_setting: int = 0

    def __post_init__(self) -> None:
        p = np.array(self.p, dtype=float)
        q = np.array(self.q, dtype=float)
        r = np.array(self.r, dtype=float)
        if p.shape != (4, 4) or q.shape != (4,) or r.shape != (4,):
            raise ValidationError(f"expected p (4,4), q (4,), r (4,), got {p.shape}, {q.shape}, {r.shape}")
        for name, arr in (("p", p), ("q", q), ("r", r)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} entries must be finite: the table holds NaN or inf")
            if arr.min() < -ROUND_TOL or arr.max() > 1.0 + TRACE_TOL:
                raise ValidationError(f"{name} entries must lie in [0, 1]")
        if np.any(p.sum(axis=1) > 1.0 + TRACE_TOL):
            raise ValidationError("each p row must sum to at most 1 (binary A outcome per setting)")
        if q.sum() + r.sum() > 1.0 + TRACE_TOL:
            raise ValidationError("q and r jointly exceed total probability 1")
        if int(self.shots_per_setting) < 0:
            raise ValidationError("shots_per_setting must be nonnegative")
        for arr in (p, q, r):
            arr.setflags(write=False)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "shots_per_setting", int(self.shots_per_setting))


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


#: detection settings: reconstruction projectors on one qubit, tetrahedral effects on the other
_PROJECTORS = tuple(t.projector() for t in tomo_basis())
_EFFECTS = tetrahedral_povm()


def _born(rho: DensityMatrix, a: np.ndarray, b: np.ndarray) -> float:
    """Born probability of the product effect a (x) b."""
    return float(np.real(np.trace(rho.mat @ np.kron(a, b))))


def _require_two_qubits(rho: DensityMatrix) -> None:
    if rho.dim != 4:
        raise ValidationError("a two-qubit state is required")


def ideal_probabilities(rho: DensityMatrix) -> ProbabilityTable:
    """Exact Born-rule table for the detection measurement settings."""
    _require_two_qubits(rho)
    p = np.array([[_born(rho, proj, eff) for eff in _EFFECTS] for proj in _PROJECTORS])
    q = np.array([_born(rho, eff, _KET0) for eff in _EFFECTS])
    r = np.array([_born(rho, eff, _KET1) for eff in _EFFECTS])
    return ProbabilityTable(np.clip(p, 0.0, 1.0), np.clip(q, 0.0, 1.0), np.clip(r, 0.0, 1.0), 0)


def _normalized_probs(values: list[float]) -> np.ndarray:
    pr = np.clip(np.asarray(values, dtype=float), 0.0, None)
    return pr / pr.sum()


def sample_table(rho: DensityMatrix, cfg: ShotConfig) -> ProbabilityTable:
    """Finite-shot table with one multinomial draw per measurement setting.

    Setting ``i`` draws from the eight outcomes {P_i (x) M_j} and
    {(I - P_i) (x) M_j}; only the first four relative frequencies enter
    ``p``.  The q/r setting draws from {M_k (x) |0><0|, M_k (x) |1><1|},
    a complete POVM, so the sampled q and r sum to exactly 1.
    """
    _require_two_qubits(rho)
    shots = cfg.shots_per_setting
    p = np.empty((4, 4))
    for i, proj in enumerate(_PROJECTORS):
        born = [_born(rho, a, eff) for a in (proj, np.eye(2) - proj) for eff in _EFFECTS]
        counts = _rng(cfg.seed, _TAG_TABLE, i).multinomial(shots, _normalized_probs(born))
        p[i] = counts[:4] / shots

    born = [_born(rho, eff, e) for e in (_KET0, _KET1) for eff in _EFFECTS]
    counts = _rng(cfg.seed, _TAG_QR).multinomial(shots, _normalized_probs(born))
    return ProbabilityTable(p, counts[:4] / shots, counts[4:] / shots, shots)


def _trajectory_components(rho: DensityMatrix) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Outcome probabilities and emitted states of one single-copy run.

    Categories run over instrument branch, outcome, then correction: 0..3
    are the transpose branch (outcome k on B), 4..19 the inversion branch
    (outcome k on A crossed with the Pauli on B).  An outcome of Born
    weight at most 1e-14 gets probability exactly 0 and no output state.
    """
    identity = np.eye(2, dtype=complex)
    probs: list[float] = []
    outputs: list[np.ndarray | None] = []
    for branch in SPA_PT_INSTRUMENT:
        n = len(branch.corrections)
        for effect, projector in zip(branch.povm, branch.projectors):
            local = np.kron(identity, effect) if branch.side == "B" else np.kron(effect, identity)
            weight = float(np.real(np.trace(rho.mat @ local)))
            if weight <= ZERO_WEIGHT_TOL:
                probs += [0.0] * n
                outputs += [None] * n
                continue
            cond = partial_trace(local @ rho.mat, "A" if branch.side == "B" else "B") / weight
            probs += [branch.weigh(weight) / n] * n
            for u in branch.corrections:
                corrected = u @ cond @ u.conj().T
                outputs.append(np.kron(corrected, projector) if branch.side == "B" else np.kron(projector, corrected))
    return _normalized_probs(probs), outputs


def _trajectory_counts(rho: DensityMatrix, cfg: ShotConfig) -> tuple[np.ndarray, list[np.ndarray | None]]:
    """Run counts and output states per category; only categories of nonzero probability are drawn."""
    probs, outputs = _trajectory_components(rho)
    drawn = probs > 0.0
    counts = np.zeros(len(probs), dtype=np.int64)
    counts[drawn] = _rng(cfg.seed, _TAG_TRAJ).multinomial(cfg.shots_per_setting, probs[drawn])
    return counts, outputs


def trajectory_branch_counts(rho: DensityMatrix, cfg: ShotConfig) -> tuple[int, int]:
    """How many single-copy runs took the transpose branch vs the
    inversion branch (expected fractions 1/3 and 2/3)."""
    _require_two_qubits(rho)
    counts, _ = _trajectory_counts(rho, cfg)
    return int(counts[:4].sum()), int(counts[4:].sum())


def trajectory_spa_pt(rho: DensityMatrix, cfg: ShotConfig) -> DensityMatrix:
    """Ensemble average of finite single-copy measure-and-prepare runs.

    Each run picks the transpose branch with probability 1/3 (measure the
    tetrahedral POVM on B, re-prepare the matching state, keep A) or the
    inversion branch with probability 2/3 (measure A, prepare the
    sigma_y-rotated state there, apply a uniformly random Pauli to B).
    Converges to the exact channel output as the run count grows.
    """
    _require_two_qubits(rho)
    counts, outputs = _trajectory_counts(rho, cfg)
    total = float(cfg.shots_per_setting)
    acc = np.zeros((4, 4), dtype=complex)
    for count, state in zip(counts, outputs):
        if count:
            acc += (count / total) * state
    return DensityMatrix((acc + acc.conj().T) / 2.0)


_PAULI_EIGEN = {
    1: np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0),  # x: |+>, |->
    2: np.array([[1.0, 1.0], [1j, -1j]], dtype=complex) / np.sqrt(2.0),  # y: |+i>, |-i>
    3: np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),  # z: |0>, |1>
}


def pauli_expectations(rho: DensityMatrix) -> np.ndarray:
    """Exact 4x4 array of <sigma_i (x) sigma_j> (index 0 is the identity)."""
    _require_two_qubits(rho)
    e = np.empty((4, 4))
    for i, si in enumerate(PAULIS):
        for j, sj in enumerate(PAULIS):
            e[i, j] = float(np.real(np.trace(rho.mat @ np.kron(si, sj))))
    return e


def sample_pauli_expectations(rho: DensityMatrix, cfg: ShotConfig) -> np.ndarray:
    """Finite-shot estimate of all Pauli-product expectations.

    Nine settings measure the joint eigenbasis of sigma_i (x) sigma_j for
    i, j in {x, y, z}; single-qubit expectations are averaged over the
    three settings that contain the given Pauli, and <I (x) I> is 1.
    """
    _require_two_qubits(rho)
    shots = cfg.shots_per_setting
    e = np.zeros((4, 4))
    e[0, 0] = 1.0
    marg_a = np.zeros((3, 3))  # rows: Pauli on A, columns: companion setting
    marg_b = np.zeros((3, 3))
    signs = np.array([1.0, -1.0])
    for i in (1, 2, 3):
        basis_a = _PAULI_EIGEN[i]
        for j in (1, 2, 3):
            basis_b = _PAULI_EIGEN[j]
            born = []
            for a in range(2):
                pa = np.outer(basis_a[:, a], basis_a[:, a].conj())
                for b in range(2):
                    pb = np.outer(basis_b[:, b], basis_b[:, b].conj())
                    born.append(np.real(np.trace(rho.mat @ np.kron(pa, pb))))
            freq = _rng(cfg.seed, _TAG_PAULI, i, j).multinomial(shots, _normalized_probs(born)) / shots
            freq = freq.reshape(2, 2)
            e[i, j] = float(np.einsum("a,b,ab->", signs, signs, freq))
            marg_a[i - 1, j - 1] = float(signs @ freq.sum(axis=1))
            marg_b[j - 1, i - 1] = float(signs @ freq.sum(axis=0))
    e[1:, 0] = marg_a.mean(axis=1)
    e[0, 1:] = marg_b.mean(axis=1)
    return e


def qst_linear_inversion(source: DensityMatrix | np.ndarray) -> np.ndarray:
    """Reconstruct a two-qubit operator from Pauli-product expectations.

    ``source`` is either a state (exact expectations are computed, and the
    reconstruction round-trips the input) or a 4x4 real array of sampled
    expectations with ``source[0, 0] == 1``.  Returns a raw matrix: from
    noisy data it is generally not PSD, see :func:`project_to_physical`.
    """
    if isinstance(source, DensityMatrix):
        expectations = pauli_expectations(source)
    else:
        expectations = np.asarray(source, dtype=float)
        if expectations.shape != (4, 4):
            raise ValidationError(f"expected all 16 Pauli expectations as a 4x4 array, got shape {expectations.shape}")
    rho = np.zeros((4, 4), dtype=complex)
    for i, si in enumerate(PAULIS):
        for j, sj in enumerate(PAULIS):
            rho += expectations[i, j] * np.kron(si, sj)
    return rho / 4.0


def project_to_physical(raw: np.ndarray) -> DensityMatrix:
    """Nearest physical state under the 2-norm on the spectrum.

    This is the projection of Smolin, Gambetta and Smith, PRL 108, 070502
    (2012).  The eigenbasis is kept.  The spectrum gets a uniform shift to
    restore unit trace, then negative eigenvalues are clipped to zero with
    their deficit spread uniformly over the remaining positive ones,
    iterating until all are nonnegative.
    """
    a = require_hermitian(raw, "matrix to project", RAW_TOL)
    trace_dev = abs(complex(np.trace(a)) - 1.0)
    if trace_dev > RAW_TOL:
        raise ValidationError(f"trace too far from 1 to project: |tr - 1| = {trace_dev:.3e}")
    w, v = herm_eig((a + a.conj().T) / 2.0)
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
