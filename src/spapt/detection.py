"""Entanglement verdicts by three routes.

* ``ppt``: exact partial-transpose spectrum, threshold 0 (the oracle).
* ``spa_spectrum``: spectrum of the physically approximated partial
  transpose applied to the state, threshold 2/9.  It reads the channel's
  closed form PT(rho)/9 + (2/9) tr(rho) I; the channel itself
  (:func:`~spapt.channels.spa_pt`) stays the certificate of that form in
  the tests and the selftest.
* ``f_hat``: an operator assembled purely from measured outcome
  probabilities, thresholded at 2/9.  The assembly linearly inverts the
  measured table (dual frame of the reconstruction basis on A), so on
  ideal tables it reproduces the channel output exactly; on sampled
  tables it carries shot noise only.

A fixed entanglement witness expectation is included as the
basis-dependent baseline the operation-based routes are contrasted with.

:func:`detect_batch` runs one method over a whole batch with one stacked
eigensolve; :func:`detect` runs the same kernels on one state or table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    RAW_TOL,
    ROUND_TOL,
    NumericError,
    ValidationError,
    dag,
    gated_eig,
    partial_transpose,
    require_hermitian,
)
from .states import DensityMatrix, stack_two_qubit
from .channels import SPA_PT_INSTRUMENT
from .tomography import ProbabilityTable, ideal_probabilities, ideal_probabilities_batch, tomo_basis

__all__ = [
    "PPT_THRESHOLD",
    "SPA_THRESHOLD",
    "FHatOperator",
    "DetectionVerdict",
    "f_hat",
    "lambda_min_d",
    "lambda_min_det_scan",
    "detect",
    "detect_batch",
    "witness_expectation",
]

PPT_THRESHOLD = 0.0
#: fraction of admixed white noise per output eigenvalue; separable states
#: cannot fall below it after the approximated partial transpose
SPA_THRESHOLD = 2.0 / 9.0

METHODS = ("ppt", "spa_spectrum", "f_hat")


@dataclass(frozen=True, eq=False)
class FHatOperator:
    """Hermitian 4x4 operator reconstructed from a probability table."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = require_hermitian(self.mat, "operator")
        if m.shape != (4, 4):
            raise ValidationError(f"expected a 4x4 matrix, got {m.shape}")
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True)
class DetectionVerdict:
    """Outcome of one detection run; ``entangled`` iff the minimum
    eigenvalue falls below the method threshold by more than rounding
    noise (1e-12), so a state on the threshold, such as a pure product
    state or the Werner state at p = 2/3, is ``undetected``."""

    method: str
    lambda_min: float
    threshold: float
    verdict: str
    shots: int
    margin: float


def _f_hat_map() -> np.ndarray:
    """(20, 16) map from the table vector [p.ravel(), q + r] to the entries of
    f_hat: row 4l + j holds dual_l (x) S_j of the transpose branch (dual_l the
    dual frame of reconstruction projector l), row 16 + k holds S'_k (x) I/2
    of the inversion branch, each times its branch weight."""
    projectors = np.array([t.projector() for t in tomo_basis()])
    gram = np.einsum("aij,bji->ab", projectors, projectors).real
    dual = np.einsum("il,ijk->ljk", np.linalg.inv(gram), projectors)
    transpose, inversion = SPA_PT_INSTRUMENT
    rows = [transpose.weigh(np.kron(d, s)) for d in dual for s in transpose.sides[1].projectors]
    rows += [inversion.weigh(np.kron(s, np.eye(2) / 2.0)) for s in inversion.sides[0].projectors]
    f_map = np.array(rows).reshape(20, 16)
    f_map.setflags(write=False)
    return f_map


_F_HAT_MAP = _f_hat_map()


def _f_hat_matrices(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The Hermitian part of the f_hat matrix of one table, or of each table
    of a stack, before the gate.  Each table vector is its own (1, 20) row
    times the map, so a stack equals its tables one by one bit for bit; an
    (N, 20) matrix product would sum in another order."""
    lead = p.shape[:-2]
    rows = np.concatenate([p.reshape(lead + (16,)), q + r], axis=-1)[..., None, :]
    mat = (rows @ _F_HAT_MAP).reshape(lead + (4, 4))
    return (mat + dag(mat)) / 2.0


def _lambda_min(mats: np.ndarray) -> np.ndarray:
    """Minimum eigenvalue of a gated matrix, or of each of a stack: one eigensolve."""
    return gated_eig(mats).values[..., 0]


def f_hat(table: ProbabilityTable) -> FHatOperator:
    """Assemble the detection operator from measured probabilities.

    The ``p`` block is inverted through the dual frame of the A-side
    reconstruction projectors, recovering the conditional A operators of
    the transpose branch; the ``q + r`` sums weight the re-prepared states
    of the inversion branch with a maximally mixed B.  Both are one product
    with a fixed map read from :data:`SPA_PT_INSTRUMENT`.  The whole map is
    linear in the table, and on exact Born probabilities it equals the
    output of the approximated partial transpose.
    """
    return FHatOperator(_f_hat_matrices(table.p, table.q, table.r))


def lambda_min_d(operator: FHatOperator) -> float:
    """Minimum eigenvalue of the reconstructed operator (authoritative
    eigensolver route); the operator passed the gate when it was built."""
    return float(_lambda_min(operator.mat))


def lambda_min_det_scan(operator: FHatOperator, grid_points: int = 2048) -> float:
    """Minimum root of det(F - kappa I) by sign-change scan plus bisection.

    Cross-check for :func:`lambda_min_d`: for a Hermitian operator the
    smallest determinant root is the smallest eigenvalue.  Assumes the
    minimal root is simple (true for generic tables).  The grid is one
    stacked determinant call, so ``grid_points`` must lie in [2, 2**16];
    bisection runs until the bracket stops shrinking.
    """
    if not 2 <= grid_points <= 2**16:
        raise ValidationError(f"grid_points must lie in [2, 65536], got {grid_points}")
    m = operator.mat
    radii = np.sum(np.abs(m), axis=1) - np.abs(np.diag(m))
    lo = float(np.min(np.real(np.diag(m)) - radii)) - RAW_TOL
    hi = float(np.max(np.real(np.diag(m)) + radii)) + RAW_TOL

    def char_det(kappa):
        return np.real(np.linalg.det(m - np.multiply.outer(kappa, np.eye(4))))

    xs = np.linspace(lo, hi, grid_points)
    values = char_det(xs)
    crossings = np.nonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)[0]
    if len(crossings) == 0:
        raise NumericError("no determinant sign change found; minimal root may be degenerate")
    a, b = float(xs[crossings[0]]), float(xs[crossings[0] + 1])
    fa = values[crossings[0]]
    while a < (mid := (a + b) / 2.0) < b:
        fm = char_det(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return mid


def _verdict(method: str, lam: float, threshold: float, shots: int) -> DetectionVerdict:
    verdict = "entangled" if lam < threshold - ROUND_TOL else "undetected"
    return DetectionVerdict(
        method=method,
        lambda_min=float(lam),
        threshold=float(threshold),
        verdict=verdict,
        shots=int(shots),
        margin=abs(float(lam) - float(threshold)),
    )


_TWO_NINTHS_I = (2.0 / 9.0) * np.eye(4)
_TWO_NINTHS_I.setflags(write=False)


def _spa_pt_closed_form(mats: np.ndarray) -> np.ndarray:
    """The output of :func:`~spapt.channels.spa_pt` on one state matrix, or on
    each of a stack: PT(rho)/9 + (2/9) tr(rho) I."""
    return partial_transpose(mats) / 9.0 + mats.trace(axis1=-2, axis2=-1)[..., None, None] * _TWO_NINTHS_I


_THRESHOLDS = {"ppt": PPT_THRESHOLD, "spa_spectrum": SPA_THRESHOLD}
_TWO_QUBITS = "detection needs a two-qubit state"


def _reads_tables(targets: Sequence[DensityMatrix] | Sequence[ProbabilityTable], method: str) -> bool:
    """Check the method and the targets of a detection run: whether f_hat
    reads measured tables (True) or every target is a state (False)."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "f_hat":
        if all(isinstance(t, ProbabilityTable) for t in targets):
            return True
        if not all(isinstance(t, DensityMatrix) for t in targets):
            raise ValidationError("f_hat needs a DensityMatrix or a ProbabilityTable")
        return False
    if not all(isinstance(t, DensityMatrix) for t in targets):
        raise ValidationError(f"method {method!r} needs a DensityMatrix")
    if any(t.dim != 4 for t in targets):
        raise ValidationError(_TWO_QUBITS)
    return False


def _state_lambda_min(method: str, mats: np.ndarray) -> np.ndarray:
    """lambda_min of ``ppt`` or ``spa_spectrum`` for one two-qubit state
    matrix or a stack.  The partial transpose of a validated state is
    Hermitian, so it is solved without a second gate."""
    return _lambda_min(partial_transpose(mats) if method == "ppt" else _spa_pt_closed_form(mats))


def _f_hat_lambda_min(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """lambda_min of f_hat for one table or a stack: the gate of
    :class:`FHatOperator`, then the eigensolve."""
    return _lambda_min(require_hermitian(_f_hat_matrices(p, q, r), "operator"))


def detect_batch(targets: Sequence[DensityMatrix] | Sequence[ProbabilityTable], method: str) -> list[DetectionVerdict]:
    """Run one detection method on a batch of states or of measured tables.

    ``ppt`` and ``spa_spectrum`` require states.  ``f_hat`` accepts states
    (their ideal tables are computed internally) or tables, whose
    ``shots_per_setting`` is echoed into each verdict.  The batch is one
    stacked eigensolve, and each verdict equals :func:`detect` of its
    target bit for bit: both run the same kernels, on a stack here and on
    one matrix or table there.
    """
    if _reads_tables(targets, method):
        p = np.array([t.p for t in targets]).reshape(-1, 4, 4)
        q = np.array([t.q for t in targets]).reshape(-1, 4)
        r = np.array([t.r for t in targets]).reshape(-1, 4)
        return [_verdict(method, lam, SPA_THRESHOLD, t.shots_per_setting) for lam, t in zip(_f_hat_lambda_min(p, q, r), targets)]
    if method == "f_hat":
        return detect_batch(ideal_probabilities_batch(targets), method)
    lams = _state_lambda_min(method, stack_two_qubit(targets, _TWO_QUBITS))
    return [_verdict(method, lam, _THRESHOLDS[method], 0) for lam in lams]


def detect(target: DensityMatrix | ProbabilityTable, method: str) -> DetectionVerdict:
    """Run one detection method on a state or on a measured table.

    ``ppt`` and ``spa_spectrum`` require a state.  ``f_hat`` accepts a
    state (its ideal table is computed internally) or a table, whose
    ``shots_per_setting`` is echoed into the verdict.  The verdict equals
    that of :func:`detect_batch` on a batch holding ``target``.
    """
    if _reads_tables((target,), method):
        return _verdict(method, _f_hat_lambda_min(target.p, target.q, target.r), SPA_THRESHOLD, target.shots_per_setting)
    if method == "f_hat":
        return detect(ideal_probabilities(target), method)
    return _verdict(method, _state_lambda_min(method, target.mat), _THRESHOLDS[method], 0)


def witness_expectation(rho: DensityMatrix, q_projector: np.ndarray) -> float:
    """Expectation of the witness built from a pure-state projector Q.

    Returns tr[(identity (x) transpose)(Q) rho]; a negative value
    certifies entanglement.  Unlike the operation-based routes, the
    verdict depends on how Q is aligned with the state's local basis.
    """
    if rho.dim != 4:
        raise ValidationError("the witness baseline needs a two-qubit state")
    q = require_hermitian(q_projector, "Q")
    if q.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 projector, got {q.shape}")
    if float(np.max(np.abs(q @ q - q))) > HERMITIAN_TOL:
        raise ValidationError("Q must be idempotent (a projector)")
    if abs(complex(np.trace(q)) - 1.0) > RAW_TOL:
        raise ValidationError("Q must project onto a single pure state (trace 1)")
    witness = partial_transpose(q)
    return float(np.real(np.trace(witness @ rho.mat)))
