"""The batch-of-one numerical core.

Every stacked entry point must give, entry by entry, exactly what the
single-state call gives: the same bits (``==``), not values within a
tolerance.  fig3
runs each column as one stacked call, so its rows must equal a loop over
the single-state API.  A bad entry of a stack must be named by its index,
while errors for a single matrix keep their wording."""

import contextlib
import io
import json

import numpy as np
import pytest

from spapt.cli import main
from spapt.detection import FHatOperator, detect, detect_batch, f_hat, lambda_min_d
from spapt.io import round12
from spapt.linalg import ValidationError, herm_eig, partial_transpose, psd_sqrt, require_hermitian
from spapt.states import (
    NINE_STATE_PARAMS,
    DensityMatrix,
    PureState,
    bell,
    density_matrix_batch,
    linear_entropy,
    linear_entropy_batch,
    mems,
    mems_matrix,
    random_density_matrix,
    random_density_matrix_batch,
    rho_family,
    rho_family_matrix,
    tangle,
    tangle_batch,
    werner,
    werner_matrix,
)
from spapt.tomography import (
    ProbabilityTable,
    ShotConfig,
    _table_batch,
    ideal_probabilities,
    ideal_probabilities_batch,
    sample_table,
    sample_table_batch,
)

GRID = [round(0.05 * k, 10) for k in range(21)]
FIG3_MATRICES = (
    [rho_family_matrix(p, alpha) for p, alpha in NINE_STATE_PARAMS]
    + [werner_matrix(p) for p in GRID]
    + [mems_matrix(p) for p in GRID]
)
MATRICES = [random_density_matrix(np.random.default_rng([2025, k]), n_components=1 + k % 4).mat for k in range(200)] + FIG3_MATRICES


def _same_table(a, b):
    return np.array_equal(a.p, b.p) and np.array_equal(a.q, b.q) and np.array_equal(a.r, b.r) and a.shots_per_setting == b.shots_per_setting


def test_a_batch_of_n_equals_n_batches_of_one():
    states = density_matrix_batch(MATRICES)
    singles = [DensityMatrix(m) for m in MATRICES]
    for rho, one in zip(states, singles):
        assert np.array_equal(rho.mat, one.mat)
        assert np.array_equal(rho.spectrum.values, one.spectrum.values)
        assert np.array_equal(rho.spectrum.vectors, one.spectrum.vectors)
        assert np.array_equal(rho.spectrum.values, density_matrix_batch([one.mat])[0].spectrum.values)
    for table, one in zip(ideal_probabilities_batch(states), singles):
        assert _same_table(table, ideal_probabilities(one))
    cfg = ShotConfig(shots_per_setting=1000, seed=11)
    for table, one in zip(sample_table_batch(states, cfg), singles):
        assert _same_table(table, sample_table(one, cfg))
    for method in ("ppt", "spa_spectrum", "f_hat"):
        assert detect_batch(states, method) == [detect(one, method) for one in singles]
    tables = sample_table_batch(states, cfg)
    assert [v.lambda_min for v in detect_batch(tables, "f_hat")] == [lambda_min_d(f_hat(t)) for t in tables]
    assert tangle_batch(states).tolist() == [tangle(one) for one in singles]
    assert linear_entropy_batch(states).tolist() == [linear_entropy(one) for one in singles]


def test_batch_states_keep_a_read_only_slice_of_the_spectrum():
    rho = density_matrix_batch(FIG3_MATRICES)[3]
    assert rho.dim == 4
    for array in (rho.mat, rho.spectrum.values, rho.spectrum.vectors):
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_random_batch_draws_the_same_states_as_single_calls():
    batch = random_density_matrix_batch(np.random.default_rng(8), 20, n_components=3)
    rng = np.random.default_rng(8)
    for rho in batch:
        assert np.array_equal(rho.mat, random_density_matrix(rng, n_components=3).mat)


def test_fig3_samples_each_table_as_sample_table_does():
    states = density_matrix_batch(FIG3_MATRICES)
    for seed, shots in ((42, 100000), (7, 1000), (2**64 - 1, 1)):
        cfg = ShotConfig(shots_per_setting=shots, seed=seed)
        for table, rho in zip(sample_table_batch(states, cfg), states):
            assert _same_table(table, sample_table(rho, cfg))


def _fig3_rows(seed, shots):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["fig3", "--seed", str(seed), "--shots", str(shots)]) == 0
    return json.loads(out.getvalue())["rows"]


@pytest.mark.parametrize("seed, shots", [(42, 100000), (5, 300)])
def test_fig3_rows_equal_a_loop_over_the_single_state_api(seed, shots):
    cfg = ShotConfig(shots_per_setting=shots, seed=seed)
    sweep = [("rho_family", p, alpha, rho_family(p, alpha)) for p, alpha in NINE_STATE_PARAMS]
    sweep += [("werner", p, None, werner(p)) for p in GRID]
    sweep += [("mems", p, None, mems(p)) for p in GRID]
    expected = []
    for family, p, alpha, rho in sweep:
        spa = detect(rho, "spa_spectrum")
        expected.append(
            {
                "family": family,
                "p": round12(p),
                "alpha": None if alpha is None else round12(alpha),
                "tangle": round12(tangle(rho)),
                "linear_entropy": round12(linear_entropy(rho)),
                "lambda_th": round12(spa.lambda_min),
                "lambda_d_ideal": round12(detect(rho, "f_hat").lambda_min),
                "lambda_d_sampled": round12(lambda_min_d(f_hat(sample_table(rho, cfg)))),
                "verdict": spa.verdict,
                "shots": shots,
                "seed": seed,
            }
        )
    rows = _fig3_rows(seed, shots)
    assert [{k: v for k, v in row.items() if k != "version"} for row in rows] == expected


def _bad_stack(index, entry):
    stack = np.array([np.eye(4, dtype=complex) / 4.0] * 6)
    stack[index] = entry
    return stack


NON_HERMITIAN = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex) + np.triu(np.full((4, 4), 0.01), 1)
NOT_FINITE = np.where(np.eye(4) > 0, np.nan, 0.0).astype(complex)


@pytest.mark.parametrize(
    "index, entry, invariant",
    [
        (4, NON_HERMITIAN, "not Hermitian"),
        (2, NOT_FINITE, "finite"),
        (1, np.eye(4, dtype=complex) / 2.0, "trace is not 1"),
        (5, np.diag([0.6, 0.6, 0.1, -0.3]).astype(complex), "positive semidefinite"),
    ],
)
def test_a_bad_stack_entry_is_named_by_its_index(index, entry, invariant):
    with pytest.raises(ValidationError, match=rf"^stack entry {index}: .*{invariant}"):
        density_matrix_batch(_bad_stack(index, entry))


def test_the_gate_and_the_solve_name_the_bad_entry_of_a_stack():
    with pytest.raises(ValidationError, match=r"^stack entry 3: matrix is not Hermitian"):
        herm_eig(_bad_stack(3, NON_HERMITIAN))
    with pytest.raises(ValidationError, match=r"^stack entry \(1, 1\): operator entries must be finite"):
        require_hermitian(_bad_stack(3, NOT_FINITE).reshape(3, 2, 4, 4), "operator")
    with pytest.raises(ValidationError, match=r"^stack entry 2: matrix is not PSD"):
        psd_sqrt(_bad_stack(2, np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)))


def test_a_bad_table_of_a_stack_is_named_by_its_index():
    good = ideal_probabilities(bell("phi+"))
    p = np.array([good.p] * 4)
    q = np.array([good.q] * 4)
    r = np.array([good.r] * 4)
    q[2, 0] = -0.5
    with pytest.raises(ValidationError, match=r"^stack entry 2: q entries must lie in \[0, 1\]"):
        _table_batch(p, q, r, 0)
    p[1, 3, 3] = np.inf
    with pytest.raises(ValidationError, match=r"^stack entry 1: p entries must be finite"):
        _table_batch(p, q, r, 0)


def test_single_matrix_errors_keep_their_wording():
    with pytest.raises(ValidationError) as err:
        DensityMatrix(NON_HERMITIAN)
    assert str(err.value) == "state is not Hermitian: max |m - m^dag| = 1.000e-02"
    with pytest.raises(ValidationError) as err:
        DensityMatrix(np.eye(4, dtype=complex) / 2.0)
    assert str(err.value) == "trace is not 1: |tr - 1| = 1.000e+00"
    with pytest.raises(ValidationError) as err:
        DensityMatrix(np.zeros((2, 4, 4)))
    assert str(err.value) == "expected a square matrix, got shape (2, 4, 4)"
    good = ideal_probabilities(bell("phi+"))
    with pytest.raises(ValidationError) as err:
        ProbabilityTable(good.p, good.q, np.array([0.5, 0.5, 0.5, 0.5]), 0)
    assert str(err.value) == "q and r jointly exceed total probability 1"
    with pytest.raises(ValidationError) as err:
        ProbabilityTable(np.array([good.p]), good.q, good.r, 0)
    assert str(err.value) == "expected p (4,4), q (4,), r (4,), got (1, 4, 4), (4,), (4,)"


def test_value_classes_compare_and_hash_by_identity():
    table = ideal_probabilities(bell("phi+"))
    objects = [PureState(np.array([1.0, 0.0])), bell("phi+"), table, f_hat(table)]
    twins = [PureState(np.array([1.0, 0.0])), bell("phi+"), ideal_probabilities(bell("phi+")), FHatOperator(f_hat(table).mat)]
    for obj, twin in zip(objects, twins):
        assert obj == obj
        assert obj != twin
        assert len({obj, obj, twin}) == 2
        assert hash(obj) == hash(obj)


def test_detect_batch_accepts_an_empty_batch_and_rejects_mixed_targets():
    for method in ("ppt", "spa_spectrum", "f_hat"):
        assert detect_batch([], method) == []
    with pytest.raises(ValidationError, match="f_hat needs"):
        detect_batch([bell("phi+"), ideal_probabilities(bell("phi+"))], "f_hat")
    with pytest.raises(ValidationError, match="two-qubit"):
        detect_batch([bell("phi+"), DensityMatrix(np.eye(2) / 2.0)], "ppt")


def test_stacked_partial_transpose_transposes_each_entry():
    mats = np.array(MATRICES)
    stacked = partial_transpose(mats)
    assert all(np.array_equal(a, partial_transpose(m)) for a, m in zip(stacked, mats))


def test_lambda_min_d_solves_the_gated_operator_without_a_second_gate(monkeypatch):
    from spapt import linalg

    cfg = ShotConfig(shots_per_setting=500, seed=3)
    operators = [f_hat(table) for table in sample_table_batch(density_matrix_batch(MATRICES), cfg)]
    expected = [float(herm_eig(op.mat).values[0]) for op in operators]
    gates = []
    gate = linalg.require_hermitian
    monkeypatch.setattr(linalg, "require_hermitian", lambda *args, **kwargs: gates.append(1) or gate(*args, **kwargs))
    assert [lambda_min_d(op) for op in operators] == expected
    assert not gates
