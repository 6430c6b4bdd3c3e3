"""One gate and one eigensolve per validated state.

``DensityMatrix`` keeps the eigendecomposition that checks positivity, and
every consumer of a state's spectrum reads it instead of solving again.
The solve-again routes stay here as the reference: each result must equal
them exactly, not within a tolerance.  ``detect(·, "spa_spectrum")`` reads
the closed form of the channel output instead of applying the channel, so
it must equal a solve of that closed form exactly and the channel route
within rounding."""

import contextlib
import io

import numpy as np
import pytest

from spapt import cli, linalg
from spapt.channels import apply, spa_pt
from spapt.cli import main
from spapt.detection import detect
from spapt.linalg import PAULI_Y, herm_eig, partial_transpose, psd_sqrt_from, sqrt_spectrum
from spapt.states import (
    BELL_KINDS,
    NINE_STATE_PARAMS,
    DensityMatrix,
    bell,
    fidelity,
    mems,
    min_eigenvalue,
    random_density_matrix,
    rho_family,
    tangle,
    werner,
)


def _states():
    rng = np.random.default_rng(2024)
    states = [random_density_matrix(rng, n_components=1 + k % 4) for k in range(200)]
    grid = [round(0.05 * k, 10) for k in range(21)]
    states += [bell(kind) for kind in BELL_KINDS]
    states += [rho_family(p, alpha) for p, alpha in NINE_STATE_PARAMS]
    states += [werner(p) for p in grid] + [mems(p) for p in grid]
    return states


STATES = _states()


def tangle_via_psd_sqrt(mat):
    s = psd_sqrt_from(herm_eig(mat))
    yy = np.kron(PAULI_Y, PAULI_Y)
    lam = sqrt_spectrum(herm_eig(s @ (yy @ mat.conj() @ yy) @ s).values)[::-1]
    c = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return min(c * c, 1.0)


def fidelity_via_psd_sqrt(mat, other):
    s = psd_sqrt_from(herm_eig(mat))
    val = float(np.sum(sqrt_spectrum(herm_eig(s @ other @ s).values)) ** 2)
    return min(max(val, 0.0), 1.0)


def test_stored_spectrum_equals_a_fresh_solve():
    for rho in STATES:
        fresh = herm_eig(rho.mat)
        assert np.array_equal(rho.spectrum.values, fresh.values)
        assert np.array_equal(rho.spectrum.vectors, fresh.vectors)


def test_readers_of_the_stored_spectrum_equal_the_solve_again_routes():
    for rho, sigma in zip(STATES, STATES[1:] + STATES[:1]):
        assert tangle(rho) == tangle_via_psd_sqrt(rho.mat)
        assert fidelity(rho, sigma) == fidelity_via_psd_sqrt(rho.mat, sigma.mat)
        assert min_eigenvalue(rho) == float(herm_eig(rho.mat).values[0])


#: four times the largest |closed form - channel| lambda seen over 5,000 random states (5.6e-16)
CLOSED_FORM_TOL = 2e-15


def test_spa_spectrum_reads_the_closed_form_the_channel_certifies():
    channel = spa_pt()
    for rho in STATES:
        lam = detect(rho, "spa_spectrum").lambda_min
        closed_form = partial_transpose(rho.mat) / 9.0 + (2.0 / 9.0) * np.trace(rho.mat) * np.eye(4)
        assert lam == float(herm_eig(closed_form).values[0])
        assert abs(lam - float(herm_eig(apply(channel, rho).mat).values[0])) <= CLOSED_FORM_TOL


def test_stored_spectrum_is_read_only():
    rho = werner(0.3)
    with pytest.raises(ValueError):
        rho.spectrum.values[0] = 1.0
    with pytest.raises(ValueError):
        rho.spectrum.vectors[0, 0] = 1.0


@pytest.fixture
def eigh_calls(monkeypatch):
    calls = []
    eigh = linalg._eigh

    def counting_eigh(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "_eigh", counting_eigh)
    return calls


def _apply_exact(path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["apply", "--state", path, "--channel", "spa_pt", "--mode", "exact"]) == 0


def _fig3(shots, cold=False):
    if cold:
        cli._fig3_sweep.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["fig3", "--shots", str(shots)]) == 0


@pytest.mark.parametrize(
    "call, solves",
    [
        (lambda rho, path: DensityMatrix(rho.mat), 1),
        (lambda rho, path: detect(rho, "spa_spectrum"), 1),
        (lambda rho, path: tangle(rho), 1),
        (lambda rho, path: fidelity(rho, rho), 1),
        (lambda rho, path: min_eigenvalue(rho), 0),
        (lambda rho, path: _apply_exact(path), 2),
        # a warm fig3 solves only the sampled f_hat; the sweep and its fixed columns are kept
        (lambda rho, path: _fig3(1000), 1),
        (lambda rho, path: _fig3(100000), 1),
        # a cold one adds one stacked solve each for the three family stacks, tangle, spa_spectrum and
        # the ideal f_hat; the sweep stack joins the family stacks' stored spectra
        (lambda rho, path: _fig3(1000, cold=True), 7),
    ],
    ids=["DensityMatrix", "detect_spa_spectrum", "tangle", "fidelity", "min_eigenvalue", "cli_apply_exact", "cli_fig3", "cli_fig3_more_shots", "cli_fig3_cold"],
)
def test_eigensolves_per_call(tmp_path, eigh_calls, call, solves):
    rho = rho_family(0.12, 0.71)
    path = str(tmp_path / "state.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["prepare", "rho_family", "--p", "0.12", "--alpha", "0.71", "--out", path]) == 0
    call(rho, path)  # warm-up: cached channels and the parser are built once per process
    before = len(eigh_calls)
    call(rho, path)
    assert len(eigh_calls) - before == solves
