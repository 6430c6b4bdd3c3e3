"""Property tests on random PSD two-qubit states: the affine spectrum law,
the output range of the approximated partial transpose, agreement of the
three detection routes away from the separable boundary, and their
blindness to the local basis, which a fixed entanglement witness lacks.  On
random valid probability tables, f_hat is Hermitian and linear in the
table, and on ideal tables it is the channel output PT(rho)/9 + (2/9) I.

Examples are derandomized, so every run checks the same states."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from spapt.linalg import herm_eig, partial_transpose
from spapt.states import DensityMatrix, bell, bell_vector
from spapt.channels import apply, spa_pt
from spapt.tomography import ProbabilityTable, ideal_probabilities
from spapt.detection import SPA_THRESHOLD, detect, f_hat, witness_expectation
from test_states import haar_unitary

SPA_PT = spa_pt()
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def density_matrices(draw):
    """G G^dag / tr for a 4 x k complex G, so ranks 1 to 4 all occur."""
    re, im = draw(arrays(np.float64, (2, 4, 4), elements=st.floats(-1.0, 1.0)))
    g = (re + 1j * im)[:, : draw(st.integers(1, 4))]
    m = g @ g.conj().T
    trace = float(np.real(np.trace(m)))
    assume(trace > 1e-3)
    return DensityMatrix((m + m.conj().T) / (2.0 * trace))


@PROPERTY_SETTINGS
@given(density_matrices())
def test_spa_spectrum_is_affine_in_pt_spectrum(rho):
    spec_pt = herm_eig(partial_transpose(rho.mat)).values
    spec_spa = herm_eig(apply(SPA_PT, rho).mat).values
    assert np.max(np.abs(spec_spa - (spec_pt / 9.0 + SPA_THRESHOLD))) < 1e-10


@PROPERTY_SETTINGS
@given(density_matrices())
def test_spa_output_spectrum_stays_in_range(rho):
    spec = herm_eig(apply(SPA_PT, rho).mat).values
    assert 1.0 / 6.0 - 1e-12 <= spec[0] and spec[-1] <= 1.0 / 3.0 + 1e-12


@PROPERTY_SETTINGS
@given(density_matrices())
def test_three_routes_agree_off_the_boundary(rho):
    ppt = detect(rho, "ppt")
    assume(abs(ppt.lambda_min) > 1e-9)
    assert detect(rho, "spa_spectrum").verdict == ppt.verdict
    assert detect(rho, "f_hat").verdict == ppt.verdict


def _in_local_frame(rho, rng):
    """``rho`` under a Haar-random local unitary U_A (x) U_B."""
    u = np.kron(haar_unitary(rng), haar_unitary(rng))
    return DensityMatrix(u @ rho.mat @ u.conj().T)


@PROPERTY_SETTINGS
@given(density_matrices(), st.integers(0, 2**32 - 1))
def test_every_detection_route_is_blind_to_the_local_basis(rho, seed):
    rotated = _in_local_frame(rho, np.random.default_rng(seed))
    for method in ("ppt", "spa_spectrum", "f_hat"):
        before, after = detect(rho, method), detect(rotated, method)
        assert abs(after.lambda_min - before.lambda_min) < 1e-12
        assert after.verdict == before.verdict


def test_a_fixed_witness_depends_on_the_local_basis_where_spa_does_not():
    rng = np.random.default_rng(2011)
    q = bell_vector("phi+").projector()
    frames = [_in_local_frame(bell("phi+"), rng) for _ in range(20)]
    witness = [witness_expectation(rho, q) for rho in frames]
    assert min(witness) < 0.0 < max(witness)
    assert all(abs(detect(rho, "spa_spectrum").lambda_min - 1.0 / 6.0) < 1e-12 for rho in frames)


@st.composite
def probability_tables(draw):
    """Each p row, and q followed by r, are the leading entries of a
    probability vector with one extra outcome, so every table is valid."""
    rows = draw(arrays(np.float64, (4, 5), elements=st.floats(0.0, 1.0)))
    qr = draw(arrays(np.float64, 9, elements=st.floats(0.0, 1.0)))
    assume(rows.sum(axis=1).min() > 1e-3 and qr.sum() > 1e-3)
    p = rows / rows.sum(axis=1, keepdims=True)
    qr = qr / qr.sum()
    return ProbabilityTable(p[:, :4], qr[:4], qr[4:8])


@PROPERTY_SETTINGS
@given(probability_tables(), probability_tables(), st.floats(0.0, 1.0))
def test_f_hat_is_hermitian_and_linear_in_the_table(a, b, w):
    mixed = ProbabilityTable(w * a.p + (1 - w) * b.p, w * a.q + (1 - w) * b.q, w * a.r + (1 - w) * b.r)
    fa, fb, fm = f_hat(a).mat, f_hat(b).mat, f_hat(mixed).mat
    assert np.array_equal(fa, fa.conj().T) and np.array_equal(fm, fm.conj().T)
    assert np.max(np.abs(fm - (w * fa + (1 - w) * fb))) < 1e-12


@PROPERTY_SETTINGS
@given(density_matrices())
def test_f_hat_of_ideal_table_is_the_spa_pt_output(rho):
    expected = partial_transpose(rho.mat) / 9.0 + SPA_THRESHOLD * np.eye(4)
    assert np.max(np.abs(f_hat(ideal_probabilities(rho)).mat - expected)) < 1e-12
