"""Independent numpy oracles for the benchmark's output checks.

Nothing here imports spapt.  Every expected value is derived from the
paper's closed forms: the partial transpose spectrum (eigvalsh), the
affine law lambda_spa = lambda_pt / 9 + 2/9, the output range [1/6, 1/3],
the ideal reconstruction f_hat = PT / 9 + (2/9) I, and shot-noise bands
that follow from multinomial statistics by Weyl's inequality.
"""

from __future__ import annotations

import numpy as np

SPA_THRESHOLD = 2.0 / 9.0
#: z-score of every per-entry shot-noise bound; the bands below sum such
#: bounds with the triangle inequality, so they are conservative.
Z = 6.0
#: eigenvalue agreement between the program and numpy on exact inputs
EIG_TOL = 1e-9

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def pt(m: np.ndarray) -> np.ndarray:
    """Transpose qubit B of a two-qubit operator."""
    return np.einsum("ijkl->ilkj", np.asarray(m).reshape(2, 2, 2, 2)).reshape(4, 4)


def eigs(m: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh((m + m.conj().T) / 2.0)


def lambda_pt(rho: np.ndarray) -> float:
    return float(eigs(pt(rho))[0])


def spa_output(rho: np.ndarray) -> np.ndarray:
    """Exact SPA-PT output, equal to the ideal f_hat operator."""
    return pt(rho) / 9.0 + (2.0 / 9.0) * np.trace(rho) * I4


def lambda_spa(rho: np.ndarray) -> float:
    return lambda_pt(rho) / 9.0 + SPA_THRESHOLD


# --- single-qubit maps and their tensor products ---------------------------


def _spa_transpose(x: np.ndarray) -> np.ndarray:
    return x.T / 3.0 + np.trace(x) * I2 / 3.0


def _spa_inversion(x: np.ndarray) -> np.ndarray:
    return (2.0 / 3.0) * np.trace(x) * I2 - x / 3.0


def _depolarize(x: np.ndarray) -> np.ndarray:
    return np.trace(x) * I2 / 2.0


def _ident(x: np.ndarray) -> np.ndarray:
    return x


def _basis(d: int) -> list[list[np.ndarray]]:
    out = []
    for k in range(d):
        row = []
        for l in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[k, l] = 1.0
            row.append(e)
        out.append(row)
    return out


def _product(fa, fb):
    ta = np.array([[fa(e) for e in row] for row in _basis(2)])  # [i, j, a, a']
    tb = np.array([[fb(e) for e in row] for row in _basis(2)])

    def fn(x: np.ndarray) -> np.ndarray:
        t = np.asarray(x, dtype=complex).reshape(2, 2, 2, 2)  # [i, k, j, l]
        y = np.einsum("ikjl,ijac,klbd->abcd", t, ta, tb)
        return y.reshape(4, 4)

    return fn


#: closed forms of the channels the benchmark builds, keyed by factory name
CHANNEL_MAPS = {
    "spa_pt": spa_output,
    "id_spa_transpose": _product(_ident, _spa_transpose),
    "spa_transpose_id": _product(_spa_transpose, _ident),
    "spa_inversion_depolarize": _product(_spa_inversion, _depolarize),
    "id_depolarize": _product(_ident, _depolarize),
    "depolarize_id": _product(_depolarize, _ident),
    "identity": _ident,
    "spa_transpose": _spa_transpose,
    "spa_inversion": _spa_inversion,
    "depolarize": _depolarize,
}
CHANNEL_DIMS = {name: (2 if name in ("spa_transpose", "spa_inversion", "depolarize") else 4) for name in CHANNEL_MAPS}


def superoperator(fn, d: int) -> np.ndarray:
    """Column-stacking superoperator: column k + d*l is vec(fn(E_kl))."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for k, row in enumerate(_basis(d)):
        for l, e in enumerate(row):
            s[:, k + d * l] = fn(e).reshape(-1, order="F")
    return s


def choi(fn, d: int) -> np.ndarray:
    """(fn (x) id)[|Omega><Omega|] with |Omega> normalized."""
    return sum(np.kron(fn(e), e) for row in _basis(d) for e in row) / d


def replace_superoperator(d: int) -> np.ndarray:
    return superoperator(lambda x: np.trace(x) * np.eye(d) / d, d)


# --- state families (closed forms from the package documentation) ----------


def bell(kind: str) -> np.ndarray:
    amp = {"phi+": [1, 0, 0, 1], "phi-": [1, 0, 0, -1], "psi+": [0, 1, 1, 0], "psi-": [0, 1, -1, 0]}[kind]
    v = np.array(amp, dtype=complex) / np.sqrt(2.0)
    return np.outer(v, v.conj())


def werner(p: float) -> np.ndarray:
    return p * I4 / 4.0 + (1.0 - p) * bell("psi-")


def mems(p: float) -> np.ndarray:
    f = p / 2.0 if p >= 2.0 / 3.0 else 1.0 / 3.0
    m = np.diag([f, 1.0 - 2.0 * f, 0.0, f]).astype(complex)
    m[0, 3] = m[3, 0] = p / 2.0
    return m


def rho_family(p: float, alpha: float) -> np.ndarray:
    beta = np.sqrt(1.0 - alpha * alpha)
    psi = np.array([0.0, alpha, -beta, 0.0], dtype=complex)
    perp = np.array([0.0, beta, alpha, 0.0], dtype=complex)
    return (1.0 - p) * np.outer(psi, psi.conj()) + p * np.outer(perp, perp.conj())


def random_dense_state(rng: np.random.Generator) -> np.ndarray:
    """Full-rank Hilbert-Schmidt random state (complex Ginibre G G^dag)."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2.0
    return m / np.real(np.trace(m))


def linear_entropy(rho: np.ndarray) -> float:
    return float((4.0 / 3.0) * (1.0 - np.real(np.trace(rho @ rho))))


def tangle(rho: np.ndarray) -> float:
    """Wootters: C = max(0, l1 - l2 - l3 - l4) from sqrt(rho) rho~ sqrt(rho)."""
    w, v = np.linalg.eigh(rho)
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    yy = np.kron(SY, SY)
    m = s @ (yy @ rho.conj() @ yy) @ s
    lam = np.sqrt(np.clip(eigs(m), 0.0, None))[::-1]
    c = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return min(c * c, 1.0)


# --- shot-noise bands --------------------------------------------------------


def _reconstruction_gram_inverse_mass() -> float:
    k0, k1 = np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)
    vecs = [k0, k1, (k0 + k1) / np.sqrt(2), (k0 + 1j * k1) / np.sqrt(2)]
    gram = np.array([[abs(np.vdot(a, b)) ** 2 for b in vecs] for a in vecs])
    return float(np.abs(np.linalg.inv(gram)).sum())


_GINV_MASS = _reconstruction_gram_inverse_mass()


def lambda_d_band(shots: int) -> float:
    """Bound on |lambda_min(f_hat sampled) - lambda_min(f_hat ideal)|.

    f_hat is linear in the table: the p block enters through the inverse
    Gram matrix of the four A-side projectors and products of unit-norm
    projectors, each q_k + r_k through an operator of norm 1/2 scaled by
    2/3.  Every frequency deviates by at most Z / (2 sqrt(shots)).
    """
    dev = Z / (2.0 * np.sqrt(shots))
    return dev * (4.0 / 3.0) * (_GINV_MASS + 1.0)


def trajectory_trace_band(shots: int, categories: int = 20) -> float:
    """Bound on the trace norm of (trajectory average - exact output): each
    of the outcome frequencies deviates by at most Z sqrt(pi_c / shots),
    and sum_c sqrt(pi_c) <= sqrt(categories)."""
    return Z * np.sqrt(categories / shots)


def fidelity_band(shots: int) -> float:
    """Bound on 1 - F(trajectory, exact) via F >= (1 - T)^2, T = ||d||_1 / 2."""
    return trajectory_trace_band(shots)


def lambda_exp_band(shots: int) -> float:
    """Bound on |lambda_exp - lambda_spa|: trajectory noise plus Pauli
    tomography noise (15 expectations of +-1 outcomes, each over 4)."""
    return trajectory_trace_band(shots) + Z * (15.0 / 4.0) / np.sqrt(shots)
