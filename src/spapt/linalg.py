"""Dense complex linear algebra for small Hermitian problems.

All operations act on plain ``numpy`` arrays of complex dtype and are pure
functions: nothing here mutates its inputs, so everything is safe to call
concurrently.  Eigensolves are one LAPACK call (``numpy.linalg.eigh``)
behind :func:`require_hermitian`, the finite/Hermitian gate that every
Hermitian input of the package passes; the tolerance table below holds
every tolerance the package uses.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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
    "psd_sqrt",
    "partial_transpose",
    "partial_trace",
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


def dag(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def _as_square(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def require_hermitian(m: np.ndarray, what: str = "matrix", tol: float = HERMITIAN_TOL) -> np.ndarray:
    """The gate in front of every Hermitian input: a read-only complex copy
    of ``m``, or ``ValidationError`` naming ``what`` when ``m`` is not
    square, holds NaN or inf, or has an entry of ``m - m^dag`` above ``tol``."""
    a = _as_square(np.array(m, dtype=complex))
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} entries must be finite: the matrix holds NaN or inf")
    defect = float(np.max(np.abs(a - a.conj().T)))
    if defect > tol:
        raise ValidationError(f"{what} is not Hermitian: max |m - m^dag| = {defect:.3e}")
    a.setflags(write=False)
    return a


class Spectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are real and sorted ascending; column ``k`` of ``vectors``
    is the orthonormal eigenvector paired with ``values[k]``.
    """

    values: np.ndarray
    vectors: np.ndarray


def herm_eig(m: np.ndarray) -> Spectrum:
    """Full eigendecomposition of a Hermitian matrix, dimension at most 16.

    One LAPACK call (``numpy.linalg.eigh``) on the Hermitian part of ``m``
    after :func:`require_hermitian`.  Raises ``ValidationError`` for
    non-square, non-finite, non-Hermitian (max |m - m^dag| entry above
    1e-9) or oversized input, and ``NumericError`` if LAPACK does not
    converge.
    """
    a = require_hermitian(m)
    if a.shape[0] > _MAX_DIM:
        raise ValidationError(f"dimension {a.shape[0]} exceeds the supported maximum {_MAX_DIM}")
    try:
        w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigh did not converge: {exc}") from exc
    return Spectrum(values=w, vectors=v)


def sqrt_spectrum(w: np.ndarray) -> np.ndarray:
    """Square roots of PSD eigenvalues, taking those at or below ROUND_TOL as
    exact zeros: the square root would inflate noise of 1e-17 to 3e-9."""
    return np.sqrt(np.where(w > ROUND_TOL, w, 0.0))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix.

    Eigenvalues in [-1e-9, 1e-12] are taken as zero before the square
    root; anything below -1e-9 is rejected as genuinely non-PSD.
    """
    w, v = herm_eig(m)
    if w[0] < -PSD_TOL:
        raise ValidationError(f"matrix is not PSD: min eigenvalue = {w[0]:.3e}")
    out = (v * sqrt_spectrum(w)) @ v.conj().T
    return (out + out.conj().T) / 2.0


def partial_transpose(m: np.ndarray) -> np.ndarray:
    """Transpose the second qubit of a two-qubit operator.

    In the product basis {|00>, |01>, |10>, |11>} each 2x2 block indexed
    by the first qubit is transposed in the second-qubit indices.  The map
    is an involution and preserves trace and Hermiticity; it does not
    preserve positivity, which is the whole point.
    """
    a = _as_square(m)
    if a.shape[0] != 4:
        raise ValidationError(f"partial transpose is defined for dim 4, got {a.shape[0]}")
    return a.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def partial_trace(m: np.ndarray, keep: str) -> np.ndarray:
    """Reduce a two-qubit operator to the kept subsystem ("A" or "B")."""
    a = _as_square(m)
    if a.shape[0] != 4:
        raise ValidationError(f"partial trace is defined for dim 4, got {a.shape[0]}")
    t = a.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", t)
    if keep == "B":
        return np.einsum("abac->bc", t)
    raise ValidationError(f"keep must be 'A' or 'B', got {keep!r}")
