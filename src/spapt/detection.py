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

Each function takes one state, table or operator, or a stack of them with one
stacked eigensolve, through the same code, giving each entry its single result
bit for bit (a stack's verdict holds arrays); only the cross-check
:func:`lambda_min_det_scan` refuses a stack.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .linalg import (
    HERMITIAN_TOL,
    RAW_TOL,
    ROUND_TOL,
    ValidationError,
    gated_eig,
    hermitian_part,
    partial_transpose,
    require_hermitian,
    transpose_second,
)
from .states import DensityMatrix, _per_entry
from .channels import SPA_PT_INSTRUMENT
from .tomography import ProbabilityTable, ideal_probabilities, tomo_basis

__all__ = [
    "PPT_THRESHOLD",
    "SPA_THRESHOLD",
    "FHatOperator",
    "DetectionVerdict",
    "f_hat",
    "lambda_min_d",
    "lambda_min_det_scan",
    "detect",
    "witness_expectation",
]

PPT_THRESHOLD = 0.0
#: fraction of admixed white noise per output eigenvalue; separable states
#: cannot fall below it after the approximated partial transpose
SPA_THRESHOLD = 2.0 / 9.0

METHODS = ("ppt", "spa_spectrum", "f_hat")


@dataclass(frozen=True, eq=False)
class FHatOperator:
    """Hermitian 4x4 operator from a probability table, or an ``(N, 4, 4)`` stack; a matrix given here passes the gate."""

    mat: np.ndarray

    def __post_init__(self) -> None:
        m = require_hermitian(self.mat, "operator")
        if m.ndim > 3 or m.shape[-1] != 4:
            raise ValidationError(f"expected a 4x4 matrix or an (N, 4, 4) stack, got shape {m.shape}")
        object.__setattr__(self, "mat", m)


@dataclass(frozen=True, eq=False)
class DetectionVerdict:
    """Outcome of one detection run; ``entangled`` iff the minimum
    eigenvalue falls below the method threshold by more than rounding
    noise (1e-12), so a state on the threshold, such as a pure product
    state or the Werner state at p = 2/3, is ``undetected``.  For a stack,
    ``lambda_min``, ``verdict`` and ``margin`` are arrays, one entry per
    state or table; it compares and hashes by identity, as arrays have no
    single truth value."""

    method: str
    lambda_min: float | np.ndarray
    threshold: float
    verdict: str | np.ndarray
    shots: int
    margin: float | np.ndarray


def _f_hat_map() -> np.ndarray:
    """(20, 16) map from the table vector [p.ravel(), q + r] to the entries of
    f_hat: row 4l + j holds dual_l (x) S_j of the transpose branch (dual_l the
    dual frame of reconstruction projector l), row 16 + k holds S'_k (x) I/2
    of the inversion branch, each times its branch weight."""
    projectors = np.array([t.projector() for t in tomo_basis()])
    gram = np.einsum("aij,bji->ab", projectors, projectors).real
    dual = np.einsum("il,ijk->ljk", np.linalg.inv(gram), projectors)
    transpose, inversion = SPA_PT_INSTRUMENT.branches
    rows = [transpose.weigh(np.kron(d, s)) for d in dual for s in transpose.sides[1].projectors]
    rows += [inversion.weigh(np.kron(s, np.eye(2) / 2.0)) for s in inversion.sides[0].projectors]
    f_map = np.array(rows).reshape(20, 16)
    f_map.setflags(write=False)
    return f_map


_F_HAT_MAP = _f_hat_map()


def f_hat(table: ProbabilityTable) -> FHatOperator:
    """Assemble the detection operator from measured probabilities, one per table of a stack.

    The ``p`` block is inverted through the dual frame of the A-side
    reconstruction projectors, recovering the conditional A operators of
    the transpose branch; the ``q + r`` sums weight the re-prepared states
    of the inversion branch with a maximally mixed B.  Both are one product
    with a fixed map read from :data:`SPA_PT_INSTRUMENT`.  The whole map is
    linear in the table, and on exact Born probabilities it equals the
    output of the approximated partial transpose.

    A table vector is its own (1, 20) row times the map, so each entry of a stack is its table's alone bit for bit.
    A validated table is finite and bounded, so the product's Hermitian part is stored with no second gate.
    """
    lead = table.p.shape[:-2]
    rows = np.concatenate([table.p.reshape(lead + (16,)), table.q + table.r], axis=-1)[..., None, :]
    mat = hermitian_part((rows @ _F_HAT_MAP).reshape(lead + (4, 4)))
    mat.setflags(write=False)
    operator = object.__new__(FHatOperator)
    object.__setattr__(operator, "mat", mat)
    return operator


def lambda_min_d(operator: FHatOperator) -> float | np.ndarray:
    """Minimum eigenvalue of the reconstructed operator, or of each of a stack (authoritative
    eigensolver route); the operator passed the gate when it was built."""
    return _per_entry(gated_eig(operator.mat).values[..., 0])


def _reflect(x0, x1, x2, b00, b10, b11, b20, b21, b22):
    """|x|^2 and the lower triangle of H B H, for B the Hermitian 3x3 of lower triangle
    (b00, b10, b11, b20, b21, b22) and H = I - v v^dag / tau the reflection that maps x onto
    its first axis: v = x + e^{i arg x0} |x| e_0, tau = v^dag v / 2.  On complex scalars,
    H B H = B - v w^dag - w v^dag with p = B v / tau and w = p - (v^dag p / 2 tau) v."""
    s = abs(x0) ** 2 + abs(x1) ** 2 + abs(x2) ** 2
    if s == 0.0:
        return s, b00, b10, b11, b20, b21, b22
    r, norm = abs(x0), s**0.5
    v0 = x0 + (x0 / r * norm if r else norm)
    inv_tau = 1.0 / (s + r * norm)
    p0 = inv_tau * (b00 * v0 + b10.conjugate() * x1 + b20.conjugate() * x2)
    p1 = inv_tau * (b10 * v0 + b11 * x1 + b21.conjugate() * x2)
    p2 = inv_tau * (b20 * v0 + b21 * x1 + b22 * x2)
    k = 0.5 * inv_tau * (v0.conjugate() * p0 + x1.conjugate() * p1 + x2.conjugate() * p2).real
    w0, w1, w2 = p0 - k * v0, p1 - k * x1, p2 - k * x2
    return (s, b00 - 2.0 * (v0 * w0.conjugate()).real, b10 - x1 * w0.conjugate() - w1 * v0.conjugate(), b11 - 2.0 * (x1 * w1.conjugate()).real,
            b20 - x2 * w0.conjugate() - w2 * v0.conjugate(), b21 - x2 * w1.conjugate() - w2 * x1.conjugate(), b22 - 2.0 * (x2 * w2.conjugate()).real)


def _tridiagonal(m: np.ndarray) -> tuple[list[float], list[float]]:
    """Diagonal a_k and squared off-diagonal moduli |b_k|^2 of a tridiagonal matrix unitarily
    similar to the Hermitian part of ``m``: two reflections clear columns 0 and 1."""
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), (m30, m31, m32, m33) = m.tolist()
    h10, h20, h30, h21, h31, h32 = ((low + up.conjugate()) * 0.5 for low, up in ((m10, m01), (m20, m02), (m30, m03), (m21, m12), (m31, m13), (m32, m23)))
    s0, b00, b10, b11, b20, b21, b22 = _reflect(h10, h20, h30, m11.real, h21, m22.real, h31, h32, m33.real)
    s1, c00, c10, c11, *_ = _reflect(b10, b20, 0.0, b11, b21, b22, 0.0, 0.0, 0.0)
    return [m00.real, b00, c00, c11], [s0, s1, abs(c10) ** 2]


def lambda_min_det_scan(operator: FHatOperator) -> float:
    """Minimum eigenvalue by a Sturm count and bisection, with no eigensolver.

    Cross-check for :func:`lambda_min_d` (Barth, Martin and Wilkinson,
    Numer. Math. 9, 386, 1967).  Two Householder reflections on complex
    scalars turn the Hermitian part of F into a unitarily similar
    tridiagonal T with real diagonal a_k and off-diagonal moduli |b_k|.  By
    Sylvester's law of inertia, T has as many eigenvalues below kappa as
    the LDL^T factorization of T - kappa I has negative pivots
    q_1 = a_1 - kappa, q_k = (a_k - kappa) - |b_{k-1}|^2 / q_{k-1}.  The count
    stops at the first pivot <= 0; a zero pivot leaves a leading block of
    T - kappa I singular and positive semidefinite, so by interlacing T has
    an eigenvalue <= kappa too.  "Some pivot <= 0" is thus exactly
    "lambda_min <= kappa" at any multiplicity of lambda_min: a double root,
    the triple root 2/9 of a pure product state and the 4-fold root of I/4
    are found like simple ones.

    The bracket runs from the Gershgorin bound of T minus ``RAW_TOL`` to
    min a_k + ``RAW_TOL``, since each a_k is a Rayleigh quotient and so at
    least lambda_min.  Each step moves the upper end to kappa when some
    pivot is <= 0 and the lower end otherwise.  Bisection stops when the
    bracket stops shrinking or is narrower than eps times its starting
    width, so within about 53 steps, and returns the upper end.
    """
    if operator.mat.ndim != 2:
        raise ValidationError(f"lambda_min_det_scan takes a single operator, not a stack of {len(operator.mat)}")
    (a1, a2, a3, a4), (b1_sq, b2_sq, b3_sq) = _tridiagonal(operator.mat)
    b1, b2, b3 = b1_sq**0.5, b2_sq**0.5, b3_sq**0.5
    lo = min(a1 - b1, a2 - b1 - b2, a3 - b2 - b3, a4 - b3) - RAW_TOL
    hi = min(a1, a2, a3, a4) + RAW_TOL
    floor = sys.float_info.epsilon * (hi - lo)
    while hi - lo > floor and lo < (kappa := (lo + hi) / 2.0) < hi:
        q = a1 - kappa
        if q > 0.0 and (q := a2 - kappa - b1_sq / q) > 0.0 and (q := a3 - kappa - b2_sq / q) > 0.0 and a4 - kappa - b3_sq / q > 0.0:
            lo = kappa
        else:
            hi = kappa
    return hi


_TWO_NINTHS_I = (2.0 / 9.0) * np.eye(4)
_TWO_NINTHS_I.setflags(write=False)


def _spa_pt_closed_form(mats: np.ndarray) -> np.ndarray:
    """The output of :func:`~spapt.channels.spa_pt` on one state matrix, or on
    each of a stack: PT(rho)/9 + (2/9) tr(rho) I."""
    return transpose_second(mats) / 9.0 + mats.trace(axis1=-2, axis2=-1)[..., None, None] * _TWO_NINTHS_I


_THRESHOLDS = {"ppt": PPT_THRESHOLD, "spa_spectrum": SPA_THRESHOLD}


def detect(target: DensityMatrix | ProbabilityTable, method: str) -> DetectionVerdict:
    """Run one detection method on a state or on a measured table, or on
    each of a stack of them.

    ``ppt`` and ``spa_spectrum`` require a state.  ``f_hat`` accepts a
    state (its ideal table is computed internally) or a table, whose
    ``shots_per_setting`` is echoed into the verdict.  A stack is one
    stacked eigensolve and gives one verdict of arrays, whose entry k
    equals the verdict of entry k alone; a single verdict holds a Python
    float and str.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; expected one of {METHODS}")
    if method == "f_hat" and isinstance(target, ProbabilityTable):
        lams = gated_eig(f_hat(target).mat).values[..., 0]
        threshold, shots = SPA_THRESHOLD, target.shots_per_setting
    elif not isinstance(target, DensityMatrix):
        raise ValidationError("f_hat needs a DensityMatrix or a ProbabilityTable" if method == "f_hat" else f"method {method!r} needs a DensityMatrix")
    else:
        if method == "f_hat":
            return detect(ideal_probabilities(target), method)
        # the partial transpose of a validated state is exactly Hermitian: solved without a second gate
        lams = gated_eig(transpose_second(target.mat) if method == "ppt" else _spa_pt_closed_form(target.mat)).values[..., 0]
        threshold, shots = _THRESHOLDS[method], 0
    entangled = lams < threshold - ROUND_TOL
    if lams.ndim == 0:  # Python numbers, cheaper than numpy arithmetic on 0-d arrays
        lam = float(lams)
        return DetectionVerdict(method, lam, threshold, "entangled" if entangled else "undetected", shots, abs(lam - threshold))
    return DetectionVerdict(method, lams, threshold, np.where(entangled, "entangled", "undetected"), shots, np.abs(lams - threshold))


def witness_expectation(rho: DensityMatrix, q_projector: np.ndarray) -> float | np.ndarray:
    """Expectation of the witness built from a pure-state projector Q, one per state of a stack.

    Returns tr[(identity (x) transpose)(Q) rho]; a negative value
    certifies entanglement.  Unlike the operation-based routes, the
    verdict depends on how Q is aligned with the state's local basis.
    """
    q = require_hermitian(q_projector, "Q")
    if q.shape != (4, 4):
        raise ValidationError(f"expected a 4x4 projector, got {q.shape}")
    if float(np.max(np.abs(q @ q - q))) > HERMITIAN_TOL:
        raise ValidationError("Q must be idempotent (a projector)")
    if abs(complex(np.trace(q)) - 1.0) > RAW_TOL:
        raise ValidationError("Q must project onto a single pure state (trace 1)")
    witness = partial_transpose(q)
    return _per_entry((witness @ rho.mat).trace(axis1=-2, axis2=-1).real)
