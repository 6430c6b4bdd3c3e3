"""One state type for one matrix or a stack.

Every function given an ``(N, d, d)`` stack of states must give, entry by
entry, exactly what it gives for each state alone: the same bits (``==``),
not values within a tolerance.  fig3 runs each column as one call on the
stack of its states, so its rows must equal a loop over single states.  A
state family given an array of parameters is the stack of the states it
gives for each.  A function without a per-entry meaning must refuse a
stack.  A bad entry of a stack must be named by its index, while errors
for a single matrix keep their wording."""

import contextlib
import inspect
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spapt
import spapt.io
from spapt.channels import SPA_PT_INSTRUMENT, apply, spa_pt
from spapt.cli import main
from spapt.detection import DetectionVerdict, FHatOperator, detect, f_hat, lambda_min_d, lambda_min_det_scan, witness_expectation
from spapt.io import round12, save_state, state_payload
from spapt.linalg import ValidationError, herm_eig, partial_transpose, psd_sqrt_from, require_hermitian
from spapt.states import (
    BELL_KINDS,
    NINE_STATE_PARAMS,
    DensityMatrix,
    PureState,
    bell,
    bell_vector,
    fidelity,
    linear_entropy,
    mems,
    min_eigenvalue,
    random_density_matrix,
    rho_family,
    tangle,
    werner,
)
from spapt.tomography import (
    ProbabilityTable,
    ShotConfig,
    ideal_probabilities,
    pauli_expectations,
    project_to_physical,
    qst_linear_inversion,
    sample_pauli_expectations,
    sample_table,
    trajectory,
    trajectory_branch_counts,
    trajectory_spa_pt,
)

GRID = [round(0.05 * k, 10) for k in range(21)]
P, ALPHA = np.array(NINE_STATE_PARAMS).T
FIG3_MATRICES = [*rho_family(P, ALPHA).mat, *werner(GRID).mat, *mems(GRID).mat]
MATRICES = [random_density_matrix(np.random.default_rng([2025, k]), n_components=1 + k % 4).mat for k in range(200)] + FIG3_MATRICES


#: p at, just below and just above the MEMS kink 2/3, and the ends of [0, 1]
EDGES = (2.0 / 3.0, np.nextafter(2.0 / 3.0, 0.0), np.nextafter(2.0 / 3.0, 1.0), 0.0, 1.0)
UNIT = st.floats(0.0, 1.0) | st.sampled_from(EDGES)


def _same_state(a, b):
    return (
        np.array_equal(a.mat, b.mat)
        and np.array_equal(a.spectrum.values, b.spectrum.values)
        and np.array_equal(a.spectrum.vectors, b.spectrum.vectors)
    )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.lists(st.tuples(UNIT, UNIT), max_size=12))
@example([])
@example([(p, 0.71) for p in EDGES])
def test_a_family_of_an_array_is_the_stack_of_its_single_states_bit_for_bit(params):
    ps, alphas = [p for p, _ in params], [alpha for _, alpha in params]
    stacks = {
        werner: (werner(ps), [(p,) for p in ps]),
        mems: (mems(np.array(ps)), [(p,) for p in ps]),
        rho_family: (rho_family(ps, alphas), params),
    }
    for family, (stack, args) in stacks.items():
        assert stack.mat.shape == (len(params), 4, 4)
        assert all(_same_state(stack[k], family(*one)) for k, one in enumerate(args))
    # p and alpha broadcast
    assert all(_same_state(rho_family(ps, 0.71)[k], rho_family(p, 0.71)) for k, p in enumerate(ps))


def test_bell_of_a_list_of_names_is_the_stack_of_its_single_states_bit_for_bit():
    for kinds in (BELL_KINDS, list(reversed(BELL_KINDS)), ["psi-", "psi-"]):
        stack = bell(kinds)
        assert stack.mat.shape == (len(kinds), 4, 4)
        for k, kind in enumerate(kinds):
            one = bell(kind)
            assert stack[k].mat.tobytes() == one.mat.tobytes()
            assert stack[k].spectrum.values.tobytes() == one.spectrum.values.tobytes()
            assert stack[k].spectrum.vectors.tobytes() == one.spectrum.vectors.tobytes()
    assert bell([]).mat.shape == (0, 4, 4)
    for bad in (5, None, ["phi+", 5], np.array(["phi+", "psi-"])):
        with pytest.raises(ValidationError, match="^unknown Bell kind"):
            bell(bad)


@pytest.mark.parametrize(
    "family, args, message",
    [
        (werner, (1.5,), r"^p must lie in \[0, 1\], got 1.5$"),
        (werner, ([0.2, 1.5, 0.3],), r"^stack entry 1: p must lie in \[0, 1\], got 1.5$"),
        (mems, ([0.2, 0.3, np.nan],), r"^stack entry 2: p must lie in \[0, 1\], got nan$"),
        (rho_family, ([0.1, 1.01], 0.5), r"^stack entry 1: p must lie in \[0, 1\], got 1.01$"),
        (rho_family, (0.1, [0.5, 0.7, -0.2]), r"^stack entry 2: alpha must lie in \[0, 1\], got -0.2$"),
        (werner, ("half",), r"^expected a numeric p"),
        (mems, ([[0.1], [0.2, 0.3]],), r"^expected a numeric p"),
        (werner, (None,), r"^expected a numeric p, got None$"),
        (mems, ([0.2, None],), r"^stack entry 1: expected a numeric p, got None$"),
        (rho_family, (0.1, [0.5, True, None]), r"^stack entry 1: expected a numeric alpha, got True$"),
        (werner, ([0.5, True],), r"^stack entry 1: expected a numeric p, got True$"),
        (mems, ([True, 0.3],), r"^stack entry 0: expected a numeric p, got True$"),
        (rho_family, (0.1, ((0.5, 0.7), (False, 0.2))), r"^stack entry \(1, 0\): expected a numeric alpha, got False$"),
        (werner, ([np.array(True), 0.5],), r"^stack entry 0: expected a numeric p, got array\(True\)$"),
        (mems, ([0.3, np.array("0.5")],), r"^stack entry 1: expected a numeric p, got array\('0\.5', dtype='<U3'\)$"),
        (werner, (["0.5", "0.6"],), r"^stack entry 0: expected a numeric p, got '0.5'$"),
        (rho_family, (0.1, True), r"^expected a numeric alpha, got True$"),
        (werner, ("0.5",), r"^expected a numeric p, got '0.5'$"),
        (werner, (b"0.5",), r"^expected a numeric p, got b'0.5'$"),
    ],
    ids=[
        "scalar", "entry-out-of-range", "entry-nan", "rho_family-p", "rho_family-alpha", "non-numeric", "ragged", "none", "entry-none", "entry-bool",
        "entry-bool-among-numbers", "first-entry-bool", "nested-entry-bool", "entry-0d-bool-array", "entry-0d-str-array", "entry-str", "bool", "str", "bytes",
    ],
)
def test_a_family_refuses_a_bad_parameter_naming_its_stack_entry(family, args, message):
    with pytest.raises(ValidationError, match=message):
        family(*args)


def _same_table(stack, k, one):
    """Table ``k`` of a stacked table equals the single table ``one`` bit for bit."""
    return (
        np.array_equal(stack.p[k], one.p)
        and np.array_equal(stack.q[k], one.q)
        and np.array_equal(stack.r[k], one.r)
        and stack.shots_per_setting == one.shots_per_setting
    )


def test_a_batch_of_n_equals_n_batches_of_one():
    states = DensityMatrix(MATRICES)
    singles = [DensityMatrix(m) for m in MATRICES]
    assert len(states) == len(singles)
    for k, one in enumerate(singles):
        rho = states[k]
        assert np.array_equal(rho.mat, one.mat)
        assert np.array_equal(rho.spectrum.values, one.spectrum.values)
        assert np.array_equal(rho.spectrum.vectors, one.spectrum.vectors)
        assert np.array_equal(rho.spectrum.values, DensityMatrix([one.mat])[0].spectrum.values)
    ideal = ideal_probabilities(states)
    assert all(_same_table(ideal, k, ideal_probabilities(one)) for k, one in enumerate(singles))
    cfg = ShotConfig(shots_per_setting=1000, seed=11)
    tables = sample_table(states, cfg)
    assert all(_same_table(tables, k, sample_table(one, cfg)) for k, one in enumerate(singles))
    for method in ("ppt", "spa_spectrum", "f_hat"):
        verdicts, single = detect(states, method), detect(singles[0], method)
        assert (type(single.lambda_min), type(single.verdict), type(single.margin)) == (float, str, float)
        assert all(_same(_entry(verdicts, k), _whole(detect(one, method))) for k, one in enumerate(singles))
    assert detect(tables, "f_hat").lambda_min.tolist() == [lambda_min_d(f_hat(sample_table(one, cfg))) for one in singles]
    assert tangle(states).tolist() == [tangle(one) for one in singles]
    assert linear_entropy(states).tolist() == [linear_entropy(one) for one in singles]


def test_batch_states_keep_a_read_only_slice_of_the_spectrum():
    rho = DensityMatrix(FIG3_MATRICES)[3]
    assert rho.dim == 4
    for array in (rho.mat, rho.spectrum.values, rho.spectrum.vectors):
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert [s.mat.tolist() for s in DensityMatrix(FIG3_MATRICES[:3])] == [np.asarray(m).tolist() for m in FIG3_MATRICES[:3]]
    with pytest.raises(TypeError):
        len(bell("phi+"))
    with pytest.raises(TypeError):
        bell("phi+")[0]


def test_concatenated_states_keep_their_spectra_and_equal_one_validated_stack_bit_for_bit():
    parts = [rho_family(P, ALPHA), werner(GRID), bell("phi+"), mems(GRID)]
    joined = DensityMatrix.concatenate(parts)
    assert _same_state(joined, DensityMatrix(np.concatenate([rho.mat.reshape(-1, 4, 4) for rho in parts])))
    assert len(joined) == len(P) + 2 * len(GRID) + 1
    for array in (joined.mat, joined.spectrum.values, joined.spectrum.vectors):
        with pytest.raises(ValueError):
            array[0] = 1.0
    assert _same_state(DensityMatrix.concatenate([bell("psi-")]), DensityMatrix([bell("psi-").mat]))
    for bad in ([], [werner(0.3), werner(0.3).mat], (m for m in FIG3_MATRICES[:1])):
        with pytest.raises(ValidationError, match="expected one or more DensityMatrix states or stacks"):
            DensityMatrix.concatenate(bad)


def test_random_batch_draws_the_same_states_as_single_calls():
    batch = random_density_matrix(np.random.default_rng(8), n_components=3, count=20)
    rng = np.random.default_rng(8)
    for rho in batch:
        assert np.array_equal(rho.mat, random_density_matrix(rng, n_components=3).mat)


def _reference_random_state_matrix(rng, n_components):
    """One random state drawn and built one component at a time, the reference for the stacked draw: the mixture,
    divided by its trace, then the Hermitian part the state gate takes."""
    weights = rng.dirichlet(np.ones(n_components))
    mat = np.zeros((4, 4), dtype=complex)
    for w in weights:
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        mat += w * np.outer(v, v.conj())
    mat = mat / np.real(np.trace(mat))
    return (mat + mat.conj().T) / 2.0


@pytest.mark.parametrize("n_components", [1, 2, 4, 7])
@pytest.mark.parametrize("count", [None, 0, 1, 37])
def test_random_states_equal_the_reference_drawn_state_by_state_and_leave_the_generator_as_it_does(n_components, count):
    for seed in range(5):
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_density_matrix(rng, n_components, count).mat
        if count is None:
            expected = _reference_random_state_matrix(reference_rng, n_components)
        else:
            expected = np.array([_reference_random_state_matrix(reference_rng, n_components) for _ in range(count)]).reshape(-1, 4, 4)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_random_batch_count_must_be_a_nonnegative_integer():
    assert random_density_matrix(np.random.default_rng(8), count=0).mat.shape == (0, 4, 4)
    for bad in (-1, 2.5, "3", True):
        with pytest.raises(ValidationError, match="count"):
            random_density_matrix(np.random.default_rng(8), count=bad)
    for bad in (0, -1, 1.5, "3", True):
        with pytest.raises(ValidationError, match="n_components must be a positive integer"):
            random_density_matrix(np.random.default_rng(8), n_components=bad)


def test_fig3_samples_each_table_as_sample_table_does():
    states = DensityMatrix(FIG3_MATRICES)
    for seed, shots in ((42, 100000), (7, 1000), (2**64 - 1, 1)):
        cfg = ShotConfig(shots_per_setting=shots, seed=seed)
        tables = sample_table(states, cfg)
        assert all(_same_table(tables, k, sample_table(rho, cfg)) for k, rho in enumerate(states))


def _rows(command, seed, shots):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([command, "--seed", str(seed), "--shots", str(shots)]) == 0
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
    rows = _rows("fig3", seed, shots)
    assert [{k: v for k, v in row.items() if k != "version"} for row in rows] == expected


@pytest.mark.parametrize("seed, shots", [(42, 1000), (2**64 - 1, 1)])
def test_table1_rows_equal_a_loop_over_the_single_state_api(seed, shots):
    cfg = ShotConfig(shots_per_setting=shots, seed=seed)
    expected = []
    for kind in BELL_KINDS:
        rho = bell(kind)
        reconstructed = project_to_physical(qst_linear_inversion(sample_pauli_expectations(trajectory_spa_pt(rho, cfg), cfg)))
        lambda_d = lambda_min_d(f_hat(sample_table(rho, cfg)))
        lambdas = {"lambda_th": detect(rho, "spa_spectrum").lambda_min, "lambda_exp": min_eigenvalue(reconstructed), "lambda_d": lambda_d}
        expected.append({"state": kind, **{k: round12(v) for k, v in lambdas.items()}, "shots": shots, "seed": seed})
    assert [{k: v for k, v in row.items() if k != "version"} for row in _rows("table1", seed, shots)] == expected


CFG = ShotConfig(shots_per_setting=1000, seed=4)
PHI_PLUS = bell_vector("phi+").projector()

#: every public function that takes a DensityMatrix, as (function, call on
#: the state, whether it has a per-entry meaning); functions without a
#: per-entry meaning must refuse a stack
# case id -> (function, call, per_entry); an id is the function's name,
# plus the argument that tells apart two calls of one function
STATE_CALLS = {
    "tangle": (tangle, tangle, True),
    "linear_entropy": (linear_entropy, linear_entropy, True),
    "fidelity-state_first": (fidelity, lambda rho: fidelity(rho, bell("phi+")), False),
    "fidelity-state_second": (fidelity, lambda rho: fidelity(bell("phi+"), rho), False),
    "min_eigenvalue": (min_eigenvalue, min_eigenvalue, True),
    "apply": (apply, lambda rho: apply(spa_pt(), rho), True),
    "ideal_probabilities": (ideal_probabilities, ideal_probabilities, True),
    "sample_table": (sample_table, lambda rho: sample_table(rho, CFG), True),
    "trajectory": (trajectory, lambda rho: trajectory(rho, SPA_PT_INSTRUMENT, CFG), True),
    "trajectory_spa_pt": (trajectory_spa_pt, lambda rho: trajectory_spa_pt(rho, CFG), True),
    "trajectory_branch_counts": (trajectory_branch_counts, lambda rho: trajectory_branch_counts(rho, CFG), False),
    "pauli_expectations": (pauli_expectations, pauli_expectations, True),
    "sample_pauli_expectations": (sample_pauli_expectations, lambda rho: sample_pauli_expectations(rho, CFG), True),
    "detect-ppt": (detect, lambda rho: detect(rho, "ppt"), True),
    "detect-spa_spectrum": (detect, lambda rho: detect(rho, "spa_spectrum"), True),
    "detect-f_hat": (detect, lambda rho: detect(rho, "f_hat"), True),
    "witness_expectation": (witness_expectation, lambda rho: witness_expectation(rho, PHI_PLUS), True),
    "state_payload": (state_payload, lambda rho: state_payload(rho, {}), False),
    "save_state": (save_state, lambda rho: save_state(rho, {}, None), False),
}


def _entry(result, k):
    """Entry ``k`` of a per-entry result, in the form :func:`_whole` gives a single result."""
    if isinstance(result, DensityMatrix):
        return result[k].mat
    if isinstance(result, ProbabilityTable):
        return (result.p[k], result.q[k], result.r[k], result.shots_per_setting)
    if isinstance(result, DetectionVerdict):
        return (result.method, result.lambda_min[k], result.threshold, result.verdict[k], result.shots, result.margin[k])
    return result[k]


def _whole(result):
    if isinstance(result, DensityMatrix):
        return result.mat
    if isinstance(result, ProbabilityTable):
        return (result.p, result.q, result.r, result.shots_per_setting)
    if isinstance(result, DetectionVerdict):
        return (result.method, result.lambda_min, result.threshold, result.verdict, result.shots, result.margin)
    return result


def _same(a, b):
    """Equal results: arrays entry by entry with ``==``, and the fields of a verdict one by one."""
    if isinstance(a, tuple):
        return all(_same(x, y) for x, y in zip(a, b, strict=True))
    return np.array_equal(a, b)


def _length(result):
    """The number of entries of a per-entry result."""
    if isinstance(result, ProbabilityTable):
        return len(result.p)
    if isinstance(result, FHatOperator):
        return len(result.mat)
    if isinstance(result, DetectionVerdict):
        return len(result.lambda_min)
    return len(result)


@pytest.mark.parametrize("function, call, per_entry", STATE_CALLS.values(), ids=STATE_CALLS)
def test_each_function_of_a_state_serves_a_stack_entry_by_entry_or_refuses_it(function, call, per_entry):
    stack = DensityMatrix([bell_vector("psi-").projector(), werner(0.5).mat, rho_family(0.12, 0.71).mat])
    if not per_entry:
        with pytest.raises(ValidationError, match="takes a single state, not a stack of 3"):
            call(stack)
        return
    result = call(stack)
    assert _length(result) == 3
    for k in range(3):
        assert _same(_entry(result, k), _whole(call(stack[k])))


PER_ENTRY = {name: call for name, (_, call, per_entry) in STATE_CALLS.items() if per_entry}


@pytest.mark.parametrize("call", PER_ENTRY.values(), ids=PER_ENTRY)
def test_each_function_with_a_per_entry_meaning_maps_an_empty_stack_to_an_empty_result(call):
    assert _length(call(DensityMatrix(np.zeros((0, 4, 4))))) == 0


def test_a_stack_of_stacks_is_not_a_state():
    for shape in ((1, 1, 4, 4), (2, 3, 4, 4)):
        with pytest.raises(ValidationError) as err:
            DensityMatrix(np.broadcast_to(np.eye(4) / 4.0, shape))
        assert str(err.value) == f"expected a square matrix or an (N, 4, 4) stack, got shape {shape}"


def test_a_state_or_a_stack_of_qubit_states_is_refused_for_its_dimension():
    for qubits in (np.eye(2) / 2.0, np.array([np.eye(2) / 2.0] * 3)):
        with pytest.raises(ValidationError) as err:
            DensityMatrix(qubits)
        assert str(err.value) == "a state is a two-qubit state of dimension 4, got dimension 2"


def _public_functions_taking(*types):
    """The public functions of the package with a parameter annotated with one of ``types``."""
    found = set()
    for module in (spapt, spapt.io):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and any(t in str(p.annotation) for p in inspect.signature(obj).parameters.values() for t in types):
                found.add(obj)
    return found


def test_every_function_of_a_state_is_checked_on_a_stack():
    assert _public_functions_taking("DensityMatrix") == {fn for fn, *_ in STATE_CALLS.values()}


#: every public function that takes a ProbabilityTable or an FHatOperator, as
#: (function, call on a table, whether it has a per-entry meaning); an
#: operator is the f_hat of the table
TABLE_CALLS = {
    "f_hat": (f_hat, f_hat, True),
    "lambda_min_d": (lambda_min_d, lambda table: lambda_min_d(f_hat(table)), True),
    "lambda_min_det_scan": (lambda_min_det_scan, lambda table: lambda_min_det_scan(f_hat(table)), False),
    "detect-f_hat": (detect, lambda table: detect(table, "f_hat"), True),
}


def _table(stack, k):
    """Table ``k`` of a stacked table, as a single table."""
    return ProbabilityTable(stack.p[k], stack.q[k], stack.r[k], stack.shots_per_setting)


@pytest.mark.parametrize("function, call, per_entry", TABLE_CALLS.values(), ids=TABLE_CALLS)
def test_each_function_of_a_table_serves_a_stack_entry_by_entry_or_refuses_it(function, call, per_entry):
    stack = sample_table(DensityMatrix([bell_vector("psi-").projector(), werner(0.5).mat, rho_family(0.12, 0.71).mat]), CFG)
    if not per_entry:
        with pytest.raises(ValidationError, match=f"^{function.__name__} takes a single operator, not a stack of 3$"):
            call(stack)
        return
    result = call(stack)
    if isinstance(result, FHatOperator):
        assert [m.tobytes() for m in result.mat] == [call(_table(stack, k)).mat.tobytes() for k in range(3)]
    else:
        assert _length(result) == 3
        assert all(_same(_entry(result, k), _whole(call(_table(stack, k)))) for k in range(3))


PER_ENTRY_OF_A_TABLE = {name: call for name, (_, call, per_entry) in TABLE_CALLS.items() if per_entry}


@pytest.mark.parametrize("call", PER_ENTRY_OF_A_TABLE.values(), ids=PER_ENTRY_OF_A_TABLE)
def test_each_function_of_a_table_with_a_per_entry_meaning_maps_an_empty_stack_to_an_empty_result(call):
    assert _length(call(ProbabilityTable(np.zeros((0, 4, 4)), np.zeros((0, 4)), np.zeros((0, 4)), 0))) == 0


def test_every_function_of_a_table_is_checked_on_a_stack():
    assert _public_functions_taking("ProbabilityTable", "FHatOperator") == {fn for fn, *_ in TABLE_CALLS.values()}


def test_lambda_min_d_of_a_stack_is_the_lambda_of_detect_per_entry():
    tables = sample_table(DensityMatrix(MATRICES), ShotConfig(shots_per_setting=700, seed=5))
    assert np.array_equal(lambda_min_d(f_hat(tables)), detect(tables, "f_hat").lambda_min)


def test_an_operator_stack_of_stacks_is_refused_naming_its_shape():
    with pytest.raises(ValidationError) as err:
        FHatOperator(np.zeros((2, 3, 4, 4)))
    assert str(err.value) == "expected a 4x4 matrix or an (N, 4, 4) stack, got shape (2, 3, 4, 4)"


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
        DensityMatrix(_bad_stack(index, entry))


def test_the_gate_and_the_solve_name_the_bad_entry_of_a_stack():
    with pytest.raises(ValidationError, match=r"^stack entry 3: matrix is not Hermitian"):
        herm_eig(_bad_stack(3, NON_HERMITIAN))
    with pytest.raises(ValidationError, match=r"^stack entry \(1, 1\): operator entries must be finite"):
        require_hermitian(_bad_stack(3, NOT_FINITE).reshape(3, 2, 4, 4), "operator")
    with pytest.raises(ValidationError, match=r"^stack entry 2: matrix is not PSD"):
        psd_sqrt_from(herm_eig(_bad_stack(2, np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex))))


def test_a_bad_table_of_a_stack_is_named_by_its_index():
    good = ideal_probabilities(bell("phi+"))
    p = np.array([good.p] * 4)
    q = np.array([good.q] * 4)
    r = np.array([good.r] * 4)
    q[2, 0] = -0.5
    with pytest.raises(ValidationError, match=r"^stack entry 2: q entries must lie in \[0, 1\]"):
        ProbabilityTable(p, q, r, 0)
    p[1, 3, 3] = np.inf
    with pytest.raises(ValidationError, match=r"^stack entry 1: p entries must be finite"):
        ProbabilityTable(p, q, r, 0)


def test_single_matrix_errors_keep_their_wording():
    with pytest.raises(ValidationError) as err:
        DensityMatrix(NON_HERMITIAN)
    assert str(err.value) == "state is not Hermitian: max |m - m^dag| = 1.000e-02"
    with pytest.raises(ValidationError) as err:
        DensityMatrix(np.eye(4, dtype=complex) / 2.0)
    assert str(err.value) == "trace is not 1: |tr - 1| = 1.000e+00"
    with pytest.raises(ValidationError) as err:
        DensityMatrix(np.zeros(4))
    assert str(err.value) == "expected a square matrix, got shape (4,)"
    # a stack of two zero matrices is a stack now, and its first entry is the bad one
    with pytest.raises(ValidationError) as err:
        DensityMatrix(np.zeros((2, 4, 4)))
    assert str(err.value) == "stack entry 0: trace is not 1: |tr - 1| = 1.000e+00"
    good = ideal_probabilities(bell("phi+"))
    with pytest.raises(ValidationError) as err:
        ProbabilityTable(good.p, good.q, np.array([0.5, 0.5, 0.5, 0.5]), 0)
    assert str(err.value) == "q and r jointly exceed total probability 1"
    with pytest.raises(ValidationError) as err:
        ProbabilityTable(np.array([good.p]), good.q, good.r, 0)
    assert str(err.value) == "expected p (4,4), q (4,), r (4,), got (1, 4, 4), (4,), (4,)"


def test_value_classes_compare_and_hash_by_identity():
    table = ideal_probabilities(bell("phi+"))
    objects = [PureState(np.array([1.0, 0.0])), bell("phi+"), table, f_hat(table), detect(table, "f_hat"), detect(bell(BELL_KINDS), "ppt")]
    twins = [
        PureState(np.array([1.0, 0.0])), bell("phi+"), ideal_probabilities(bell("phi+")), FHatOperator(f_hat(table).mat), detect(table, "f_hat"),
        detect(bell(BELL_KINDS), "ppt"),
    ]
    for obj, twin in zip(objects, twins):
        assert obj == obj
        assert obj != twin
        assert len({obj, obj, twin}) == 2
        assert hash(obj) == hash(obj)


def test_detect_batch_accepts_an_empty_batch_and_rejects_mixed_targets():
    empty = DensityMatrix(np.zeros((0, 4, 4)))
    empty_table = ProbabilityTable(np.zeros((0, 4, 4)), np.zeros((0, 4)), np.zeros((0, 4)), 7)
    for target, method, threshold, shots in (
        (empty, "ppt", 0.0, 0), (empty, "spa_spectrum", 2.0 / 9.0, 0), (empty, "f_hat", 2.0 / 9.0, 0), (empty_table, "f_hat", 2.0 / 9.0, 7),
    ):
        verdict = detect(target, method)
        assert (verdict.method, verdict.threshold, verdict.shots) == (method, threshold, shots)
        assert verdict.lambda_min.shape == verdict.verdict.shape == verdict.margin.shape == (0,)
        assert verdict.lambda_min.dtype == verdict.margin.dtype == np.float64
        assert verdict.verdict.dtype.kind == "U"
    # a list is not a stack: a state and a table cannot share one call
    with pytest.raises(ValidationError, match="f_hat needs"):
        detect([bell("phi+"), ideal_probabilities(bell("phi+"))], "f_hat")
    with pytest.raises(ValidationError, match="needs a DensityMatrix"):
        detect([bell("phi+")], "ppt")


def test_stacked_partial_transpose_transposes_each_entry():
    mats = np.array(MATRICES)
    stacked = partial_transpose(mats)
    assert all(np.array_equal(a, partial_transpose(m)) for a, m in zip(stacked, mats))


def test_lambda_min_d_solves_the_gated_operator_without_a_second_gate(monkeypatch):
    from spapt import linalg

    cfg = ShotConfig(shots_per_setting=500, seed=3)
    operators = [f_hat(sample_table(rho, cfg)) for rho in DensityMatrix(MATRICES)]
    expected = [float(herm_eig(op.mat).values[0]) for op in operators]
    gates = []
    gate = linalg.require_hermitian
    monkeypatch.setattr(linalg, "require_hermitian", lambda *args, **kwargs: gates.append(1) or gate(*args, **kwargs))
    assert [lambda_min_d(op) for op in operators] == expected
    assert not gates
