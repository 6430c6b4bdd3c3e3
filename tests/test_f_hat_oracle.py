"""f̂ against an oracle written from the paper's measure-and-prepare
description, without the package's map.

Ideal tables span only 16 of the 20 directions of the table vector
[p.ravel(), q + r]: on them q_k + r_k is fixed by p.  So the ideal-table
tests leave f̂ free on 4 directions, and only tables that no state produces,
or sampled ones, pin it there.

The oracle: with weight 1/3 the transpose branch leaves A alone, measures B
in the tetrahedral POVM and re-prepares tetrahedral state j; its A
operator for outcome j is rebuilt from the column p[:, j] with the dual
frame of |0>, |1>, |+>, |+i>.  With weight 2/3 the inversion branch
measures A, re-prepares the sigma_y image of tetrahedral state k with
probability q_k + r_k, and leaves B maximally mixed.
"""

import numpy as np
import pytest

from spapt import f_hat
from spapt.selftest import EXACT_BOUND
from spapt.states import bell, random_density_matrix, werner
from spapt.tomography import ProbabilityTable, ShotConfig, ideal_probabilities, sample_table

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

#: Bloch vectors of the tetrahedral states, in the order of the table's B columns
TETRAHEDRON = np.array([[1, 1, -1], [1, -1, 1], [-1, 1, 1], [-1, -1, -1]]) / np.sqrt(3.0)


def _ket(n):
    """The state with Bloch vector n: cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    theta, phi = np.arccos(n[2]), np.arctan2(n[1], n[0])
    return np.array([np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)])


TETRAHEDRAL = [np.outer(v, v.conj()) for v in map(_ket, TETRAHEDRON)]
SIGMA_Y_IMAGES = [np.outer(SY @ v, (SY @ v).conj()) for v in map(_ket, TETRAHEDRON)]
#: dual frame of the projectors onto |0>, |1>, |+>, |+i>: X = sum_i tr(P_i X) D_i for every 2x2 X
DUAL_FRAME = [(I2 + SZ - SX - SY) / 2.0, (I2 - SZ - SX - SY) / 2.0, SX, SY]


def oracle_f_hat(p, q, r):
    """f̂ of one table, summed branch by branch and outcome by outcome."""
    transpose = sum(np.kron(sum(p[i, j] * DUAL_FRAME[i] for i in range(4)), TETRAHEDRAL[j]) for j in range(4))
    inversion = sum((q[k] + r[k]) * np.kron(SIGMA_Y_IMAGES[k], I2 / 2.0) for k in range(4))
    return transpose / 3.0 + 2.0 * inversion / 3.0


def _pt(m):
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def _out_of_span_tables(seed, count):
    """In-range tables with entries drawn at random: p rows and q, r jointly
    sum to at most 1, and q + r is not the one an ideal p fixes."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(5), size=(count, 4))[..., :4]
    qr = rng.dirichlet(np.ones(9), size=count)[:, :8]
    return ProbabilityTable(p, qr[:, :4], qr[:, 4:])


def test_the_oracle_frame_and_states_are_what_the_paper_says():
    for n, proj, image in zip(TETRAHEDRON, TETRAHEDRAL, SIGMA_Y_IMAGES):
        assert np.allclose([np.trace(proj @ s).real for s in (SX, SY, SZ)], n, atol=1e-15)
        assert np.allclose([np.trace(image @ s).real for s in (SX, SY, SZ)], n * [-1, 1, -1], atol=1e-15)
    basis = [np.diag([1, 0]), np.diag([0, 1]), (I2 + SX) / 2.0, (I2 + SY) / 2.0]
    gram = np.array([[np.trace(a @ d) for d in DUAL_FRAME] for a in basis])
    assert np.allclose(gram, np.eye(4), atol=1e-15)


def test_the_oracle_is_the_approximated_partial_transpose_on_ideal_tables():
    rhos = random_density_matrix(np.random.default_rng(71), count=20)
    tables = ideal_probabilities(rhos)
    for k in range(20):
        want = _pt(rhos.mat[k]) / 9.0 + (2.0 / 9.0) * np.eye(4)
        assert np.max(np.abs(oracle_f_hat(tables.p[k], tables.q[k], tables.r[k]) - want)) <= EXACT_BOUND


@pytest.mark.parametrize("shots", [10**3, 10**5])
def test_f_hat_equals_the_oracle_on_sampled_tables(shots):
    rhos = [werner(0.6), bell("psi-"), *random_density_matrix(np.random.default_rng(72), count=3)]
    for seed, rho in enumerate(rhos):
        table = sample_table(rho, ShotConfig(shots_per_setting=shots, seed=seed))
        assert np.max(np.abs(f_hat(table).mat - oracle_f_hat(table.p, table.q, table.r))) <= EXACT_BOUND


def test_f_hat_equals_the_oracle_on_tables_no_state_produces():
    tables = _out_of_span_tables(73, 50)
    ops = f_hat(tables).mat
    for k in range(50):
        p, q, r = tables.p[k], tables.q[k], tables.r[k]
        assert np.max(np.abs(ops[k] - oracle_f_hat(p, q, r))) <= EXACT_BOUND
    # they are off the ideal span: no state's q + r is the one its p fixes
    marginal = tables.p[:, :2].sum(axis=(1, 2))
    assert np.min(np.abs(marginal - (tables.q + tables.r).sum(axis=1))) > 1e-3
