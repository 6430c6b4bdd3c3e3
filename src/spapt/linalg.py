"""Dense complex linear algebra for small Hermitian problems.

All operations act on plain ``numpy`` arrays of complex dtype and are pure
functions: nothing here mutates its inputs, so everything is safe to call
concurrently.  The gate, the eigensolve, the square root and the partial
transpose take one matrix or a stack of them along leading axes, and a
single matrix runs the same code as a stack; a failure in a stack names
the index of its first offending entry.  Eigensolves are one LAPACK call
(numpy's ``eigh`` gufunc) behind :func:`require_hermitian`, the
finite/Hermitian gate that every Hermitian input of the package passes; a
matrix that has passed it is solved by :func:`gated_eig` without a second
gate.  The tolerance table below holds every tolerance the package uses.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

__all__ = [
    "ValidationError",
    "NumericError",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULIS",
    "HERMITIAN_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "POVM_TOL",
    "RAW_TOL",
    "ROUND_TOL",
    "ZERO_WEIGHT_TOL",
    "Spectrum",
    "dag",
    "require_hermitian",
    "herm_eig",
    "sqrt_spectrum",
    "partial_transpose",
]


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class NumericError(RuntimeError):
    """A numeric procedure failed: no convergence, or no root where one was expected."""


PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
for _p in PAULIS:
    _p.setflags(write=False)

# Tolerances: every tolerance of the library, each with the reason it exists.
#: max-entry defect of a matrix identity (m = m^dag, q q = q) accepted in validated input
HERMITIAN_TOL = 1e-9
#: eigenvalues above -PSD_TOL count as nonnegative (states, Choi matrices, PSD roots)
PSD_TOL = 1e-9
#: |tr - 1| of a state; TP defects and probabilities above 1 inherit this slack from the state
TRACE_TOL = 1e-9
#: POVM effects are built in closed form, so their PSD and completeness checks are tighter
POVM_TOL = 1e-10
#: slack for data no constructor validated (tomography output, witness trace, det-scan bracket)
RAW_TOL = 1e-6
#: rounding noise of a few O(1) float operations: this close to a boundary counts as on it
ROUND_TOL = 1e-12
#: a trajectory outcome this unlikely is never drawn; its conditional state would be noise
ZERO_WEIGHT_TOL = 1e-14

_MAX_DIM = 16

#: the gufunc ``numpy.linalg.eigh`` wraps: bit for bit its result on complex
#: input, without its per-call conversions and ``errstate`` block
_eigh = _umath_linalg.eigh_lo
try:  # the C function np.count_nonzero wraps, without its dispatch (0.5 us a call)
    from numpy._core.multiarray import count_nonzero
except ImportError:  # numpy < 2
    from numpy.core.multiarray import count_nonzero


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def side_by_side(stack: np.ndarray) -> np.ndarray:
    """A stack of d x d matrices E_k, of any leading shape, as one read-only
    ``(d, *lead, d)`` array whose ``(d, K d)`` reshape is ``[E_0 | E_1 | ...]``."""
    wide = np.ascontiguousarray(np.moveaxis(stack, -2, 0))
    wide.setflags(write=False)
    return wide


def require_each(ok: np.ndarray, message: Callable[[tuple[int, ...]], str]) -> None:
    """Raise ``ValidationError`` unless every per-entry flag in ``ok`` is set.

    ``ok`` holds one flag per matrix: 0-d for a single matrix, one per
    entry of a stack.  The error is ``message(index)`` of the first failing
    entry, after "stack entry <index>: " when it is an entry of a stack.
    """
    if count_nonzero(ok) == ok.size if ok.ndim else ok:  # both far cheaper than ok.all()
        return
    index = tuple(int(i) for i in np.argwhere(~ok)[0])
    text = message(index)
    if index:
        text = f"stack entry {index[0] if len(index) == 1 else index}: {text}"
    raise ValidationError(text)


def require_integer(value: Any, low: int, high: float, message: str) -> int:
    """``value`` as an int in [low, high); ``ValidationError(message)`` for
    anything else, floats and bools included, rather than truncating it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not low <= value < high:
        raise ValidationError(message)
    return int(value)


def as_numeric(m: Any, dtype: Any, what: str, copy: bool = True) -> np.ndarray:
    """``m`` as an array of ``dtype`` (None: numpy's choice), a copy unless ``copy``
    is False; ``ValidationError`` naming ``what`` for a ragged or non-numeric input."""
    try:
        return np.array(m, dtype=dtype) if copy else np.asarray(m, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"expected a numeric {what}, got an input numpy cannot convert: {exc}") from exc


def _as_square(m: np.ndarray, copy: bool = False) -> np.ndarray:
    a = as_numeric(m, complex, "matrix", copy)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def require_all(ok: np.ndarray, message: Callable[[tuple[int, ...]], str]) -> None:
    """:func:`require_each` of the flags ``ok.all(axis=(-2, -1))`` of each matrix: one whole-array
    test decides, and the per-matrix reduction runs only to name the first failing entry."""
    if count_nonzero(ok) != ok.size:
        require_each(ok.all(axis=(-2, -1)), message)


def hermitian_gate(m: np.ndarray, what: str = "matrix", tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The checks of :func:`require_hermitian`: its read-only copy ``a`` of
    ``m``, with ``a^dag``, which :func:`eig_of_gated` reuses."""
    a = _as_square(m, copy=True)
    # finite first: inf - inf in the defect would be NaN and a RuntimeWarning
    require_all(np.isfinite(a), lambda i: f"{what} entries must be finite: the matrix holds NaN or inf")
    a_dag = dag(a)
    defect = np.abs(a - a_dag)
    require_all(defect <= tol, lambda i: f"{what} is not Hermitian: max |m - m^dag| = {defect[i].max():.3e}")
    a.setflags(write=False)
    return a, a_dag


def require_hermitian(m: np.ndarray, what: str = "matrix", tol: float = HERMITIAN_TOL) -> np.ndarray:
    """The gate in front of every Hermitian input: a read-only complex copy
    of ``m``, a matrix or a stack of them, or ``ValidationError`` naming
    ``what`` when a matrix is not square, holds NaN or inf, or has an entry
    of ``m - m^dag`` above ``tol``."""
    return hermitian_gate(m, what, tol)[0]


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    ``values`` are real and sorted ascending along the last axis; column
    ``k`` of ``vectors`` is the orthonormal eigenvector paired with
    ``values[..., k]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def herm_eig(m: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix, or of each matrix of a
    stack, dimension at most 16.

    One LAPACK call (numpy's ``eigh`` gufunc) on the Hermitian part of ``m``
    after :func:`require_hermitian`.  Raises ``ValidationError`` for
    non-square, non-finite, non-Hermitian (max |m - m^dag| entry above
    1e-9) or oversized input, and ``NumericError`` if LAPACK does not
    converge.
    """
    return eig_of_gated(*hermitian_gate(m))


def gated_eig(a: np.ndarray) -> Spectrum:
    """The solve step of :func:`herm_eig`, for a matrix that has already
    passed :func:`require_hermitian`: one ``eigh`` on its Hermitian part,
    equal to ``numpy.linalg.eigh`` of it bit for bit.  A stack is one
    ``eigh`` call, bit-identical entry by entry to solving each matrix
    alone."""
    return eig_of_gated(a, dag(a))


def eig_of_gated(a: np.ndarray, a_dag: np.ndarray) -> Spectrum:
    """:func:`gated_eig` of ``a`` given ``a^dag``, which the gate formed."""
    if a.shape[-1] > _MAX_DIM:
        raise ValidationError(f"dimension {a.shape[-1]} exceeds the supported maximum {_MAX_DIM}")
    try:
        w, v = _eigh((a + a_dag) / 2.0, signature="D->dD")
    except (RuntimeWarning, FloatingPointError) as exc:
        # the invalid flag a failed solve sets, under -W error or np.seterr(invalid="raise")
        raise NumericError(f"eigh did not converge: {exc}") from exc
    if count_nonzero(w != w):  # a failed solve leaves NaN eigenvalues
        raise NumericError("eigh did not converge: LAPACK returned NaN eigenvalues")
    return Spectrum(w, v)


def sqrt_spectrum(w: np.ndarray) -> np.ndarray:
    """Square roots of PSD eigenvalues, taking those at or below ROUND_TOL as
    exact zeros: the square root would inflate noise of 1e-17 to 3e-9."""
    return np.sqrt(np.where(w > ROUND_TOL, w, 0.0))


def psd_sqrt_from(spectrum: Spectrum) -> np.ndarray:
    """Hermitian square root of the PSD matrix, or of each matrix of the
    stack, whose eigendecomposition is ``spectrum``: eigenvalues in
    [-1e-9, 1e-12] are taken as zero, anything below -1e-9 is rejected."""
    w, v = spectrum
    lam_min = w[..., 0]
    require_each(lam_min >= -PSD_TOL, lambda i: f"matrix is not PSD: min eigenvalue = {lam_min[i]:.3e}")
    out = (v * sqrt_spectrum(w)[..., None, :]) @ dag(v)
    return (out + dag(out)) / 2.0


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second qubit of a two-qubit operator.

    In the product basis {|00>, |01>, |10>, |11>} each 2x2 block indexed
    by the first qubit is transposed in the second-qubit indices.  The map
    is an involution and preserves trace and Hermiticity; it does not
    preserve positivity, which is the whole point.  A stack is transposed
    entry by entry in one reshape.
    """
    a = _as_square(m)
    if a.shape[-1] != 4:
        raise ValidationError(f"partial transpose is defined for dim 4, got {a.shape[-1]}")
    return transpose_second(a)


def transpose_second(a: np.ndarray) -> np.ndarray:
    """:func:`partial_transpose` of a complex array of 4x4 matrices, such as a
    validated state's, which it neither converts nor checks again."""
    return a.reshape(a.shape[:-2] + (2, 2, 2, 2)).swapaxes(-3, -1).reshape(a.shape)

