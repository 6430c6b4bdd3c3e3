"""Property tests on random PSD two-qubit states: the affine spectrum law,
the output range of the approximated partial transpose, and agreement of
the three detection routes away from the separable boundary.

Examples are derandomized, so every run checks the same states."""

import numpy as np
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from spapt.linalg import herm_eig, partial_transpose
from spapt.states import DensityMatrix
from spapt.channels import apply, spa_pt
from spapt.detection import SPA_THRESHOLD, detect

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
