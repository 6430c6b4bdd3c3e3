"""Command line harness: state files, reports, encodings, exit codes."""

import argparse
import csv
import dataclasses
import io
import json
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spapt import cli, linalg, selftest
from spapt.cli import CHANNEL_FACTORIES, build_parser, main
from spapt.io import load_state, render_report, round12
from spapt.linalg import ValidationError
from spapt.selftest import EXACT_BOUND, _suite_sampled_detection_stability
from spapt.states import NINE_STATE_PARAMS, DensityMatrix
from test_tomography import clip_shift_norm, trace_edge_states


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, "r", encoding="utf-8") as fp:
        return json.load(fp)


def read_csv(path):
    with open(path, "r", encoding="utf-8", newline="") as fp:
        return list(csv.DictReader(fp))


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "phi_plus.json"
    assert run_cli("prepare", "bell", "--kind", "phi+", "--out", str(path)) == 0
    return str(path)


def test_prepare_bell_state_file(bell_file):
    doc = read_json(bell_file)
    assert doc["dim"] == 4
    assert doc["re"][0][3] == pytest.approx(0.5, abs=1e-12)
    assert doc["metadata"]["family"] == "bell"
    rho, metadata = load_state(bell_file)
    assert metadata["kind"] == "phi+"


def test_prepare_benchmark_family_state(tmp_path):
    path = tmp_path / "rho.json"
    assert run_cli("prepare", "rho_family", "--p", "0.12", "--alpha", "0.71", "--out", str(path)) == 0
    rho, metadata = load_state(path.as_posix())
    assert metadata["family"] == "rho_family"
    assert (0.12, 0.71) in NINE_STATE_PARAMS
    assert abs(np.trace(rho.mat) - 1.0) < 1e-9


def test_prepare_rejects_out_of_range(capsys):
    assert run_cli("prepare", "werner", "--p", "1.5") == 2
    assert "p must lie in [0, 1]" in capsys.readouterr().err


def test_prepare_rejects_unknown_family():
    with pytest.raises(SystemExit) as info:
        run_cli("prepare", "ghz")
    assert info.value.code == 1


@pytest.fixture
def columns_80(monkeypatch):
    # argparse wraps usage and help to the terminal's width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")


def _prepare_usage_error(capsys, tmp_path, *argv):
    """A prepare command line that argparse refuses: its stderr, once no output file was written."""
    out = tmp_path / "state.json"
    with pytest.raises(SystemExit) as info:
        run_cli("prepare", *argv, "--out", str(out))
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    return captured.err


@pytest.mark.usefixtures("columns_80")
def test_prepare_requires_family_parameters(tmp_path, capsys):
    for argv, usage, missing in [
        (("bell",), "bell [-h] --kind {phi+,phi-,psi+,psi-} [--out OUT]", "--kind"),
        (("werner",), "werner [-h] --p P [--out OUT]", "--p"),
        (("rho_family", "--p", "0.1"), "rho_family [-h] --p P --alpha ALPHA [--out OUT]", "--alpha"),
        (("rho_family",), "rho_family [-h] --p P --alpha ALPHA [--out OUT]", "--p, --alpha"),
        (("file",), "file [-h] --path PATH [--out OUT]", "--path"),
    ]:
        assert _prepare_usage_error(capsys, tmp_path, *argv) == (
            f"usage: spapt prepare {usage}\nspapt prepare {argv[0]}: error: the following arguments are required: {missing}\n"
        )


@pytest.mark.parametrize(
    "argv, extra",
    [
        (("bell", "--kind", "phi+", "--p", "0.3"), "--p 0.3"),
        (("werner", "--p", "0.3", "--kind", "phi+"), "--kind phi+"),
        (("mems", "--p", "0.5", "--alpha", "0.7"), "--alpha 0.7"),
        (("rho_family", "--p", "0.1", "--alpha", "0.7", "--path", "{state}"), "--path {state}"),
        (("file", "--path", "{state}", "--kind", "phi+"), "--kind phi+"),
        # a family flag is not abbreviated, so --p of another family is not file's --path
        (("file", "--path", "{state}", "--p", "0.3"), "--p 0.3"),
    ],
    ids=["bell", "werner", "mems", "rho_family", "file", "file-p-not-path"],
)
@pytest.mark.usefixtures("columns_80")
def test_prepare_rejects_a_flag_its_family_does_not_take(tmp_path, bell_file, capsys, argv, extra):
    err = _prepare_usage_error(capsys, tmp_path, *(arg.format(state=bell_file) for arg in argv))
    usage = "usage: spapt [-h] [--version] {prepare,apply,detect,table1,fig3,selftest} ...\n"
    assert err == usage + f"spapt: error: unrecognized arguments: {extra.format(state=bell_file)}\n"


@pytest.mark.usefixtures("columns_80")
def test_prepare_family_help_lists_its_flags(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("prepare", "bell", "-h")
    assert info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: spapt prepare bell [-h] --kind {phi+,phi-,psi+,psi-} [--out OUT]\n")
    assert "\n  --kind {phi+,phi-,psi+,psi-}\n" in captured.out and "\n  --out OUT " in captured.out
    assert captured.err == ""


def test_prepare_roundtrip_through_file_family(tmp_path, bell_file):
    out = tmp_path / "copy.json"
    assert run_cli("prepare", "file", "--path", bell_file, "--out", str(out)) == 0
    rho, metadata = load_state(str(out))
    assert metadata["family"] == "file"
    assert abs(np.real(rho.mat[0, 3]) - 0.5) < 1e-9


def test_apply_exact_spa_pt(tmp_path, bell_file):
    report_path = tmp_path / "report.json"
    state_out = tmp_path / "out.json"
    code = run_cli(
        "apply", "--state", bell_file, "--channel", "spa_pt", "--mode", "exact",
        "--out", str(report_path), "--state-out", str(state_out),
    )
    assert code == 0
    row = read_json(report_path)["rows"][0]
    assert row["min_eigenvalue"] == pytest.approx(1.0 / 6.0, abs=1e-10)
    rho, metadata = load_state(str(state_out))
    assert metadata["channel"] == "spa_pt"
    assert abs(np.trace(rho.mat) - 1.0) < 1e-9


def test_apply_trajectory_reports_fidelity(tmp_path, bell_file):
    report_path = tmp_path / "report.json"
    code = run_cli(
        "apply", "--state", bell_file, "--channel", "spa_pt", "--mode", "trajectory",
        "--shots", "1000000", "--seed", "42", "--out", str(report_path),
    )
    assert code == 0
    row = read_json(report_path)["rows"][0]
    assert row["fidelity_to_exact"] >= 0.999
    assert row["shots"] == 1000000


def test_apply_spa_pt_fixes_maximally_mixed(tmp_path):
    state = tmp_path / "mixed.json"
    report_path = tmp_path / "report.json"
    assert run_cli("prepare", "werner", "--p", "1.0", "--out", str(state)) == 0
    assert run_cli("apply", "--state", str(state), "--channel", "spa_pt", "--out", str(report_path)) == 0
    row = read_json(report_path)["rows"][0]
    for key in ("eig_1", "eig_2", "eig_3", "eig_4"):
        assert row[key] == pytest.approx(0.25, abs=1e-10)


@pytest.mark.parametrize("channel", sorted(CHANNEL_FACTORIES))
def test_apply_trajectory_for_every_channel(tmp_path, channel):
    state = tmp_path / "rho.json"
    report_path = tmp_path / "report.json"
    assert run_cli("prepare", "rho_family", "--p", "0.12", "--alpha", "0.71", "--out", str(state)) == 0
    code = run_cli(
        "apply", "--state", str(state), "--channel", channel, "--mode", "trajectory",
        "--shots", "100000", "--seed", "5", "--out", str(report_path),
    )
    assert code == 0
    row = read_json(report_path)["rows"][0]
    assert row["fidelity_to_exact"] >= 0.999
    assert row["shots"] == 100000


def test_detect_methods(tmp_path, bell_file):
    expectations = {
        "ppt": (-0.5, "entangled"),
        "spa_spectrum": (1.0 / 6.0, "entangled"),
        "f_hat_ideal": (1.0 / 6.0, "entangled"),
    }
    for method, (lam, verdict) in expectations.items():
        path = tmp_path / f"{method}.json"
        assert run_cli("detect", "--state", bell_file, "--method", method, "--out", str(path)) == 0
        row = read_json(path)["rows"][0]
        assert row["lambda_min"] == pytest.approx(lam, abs=1e-9)
        assert row["verdict"] == verdict


def test_detect_accepts_a_full_precision_state_file_at_the_trace_edge(tmp_path):
    # a valid state whose ideal q + r sum exceeds 1 + TRACE_TOL by the rounding of its Born sums
    for k, rho in enumerate(trace_edge_states()):
        path = tmp_path / f"edge{k}.json"
        path.write_text(json.dumps({"dim": 4, "re": np.real(rho.mat).tolist(), "im": np.imag(rho.mat).tolist(), "metadata": {}}))
        assert load_state(str(path))[0].mat.tobytes() == rho.mat.tobytes()
        for method in ("ppt", "f_hat_ideal"):
            out = tmp_path / f"edge{k}-{method}.json"
            assert run_cli("detect", "--state", str(path), "--method", method, "--out", str(out)) == 0
            assert read_json(out)["rows"][0]["verdict"] in ("entangled", "undetected")


def test_detect_f_hat_ideal_accepts_a_state_file_with_an_eigenvalue_below_zero(tmp_path):
    # inside the PSD slack, the ideal p row of |0><0| sums to 1 + 2 eps, within the table's sum bound
    eps = 0.9e-9
    rho = DensityMatrix(np.diag([0.5 + eps, 0.5 + eps, -eps, -eps]).astype(complex))
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"dim": 4, "re": np.real(rho.mat).tolist(), "im": np.imag(rho.mat).tolist(), "metadata": {}}))
    lams = {}
    for method in ("f_hat_ideal", "spa_spectrum"):
        out = tmp_path / f"{method}.json"
        assert run_cli("detect", "--state", str(path), "--method", method, "--out", str(out)) == 0
        lams[method] = read_json(out)["rows"][0]["lambda_min"]
    # the clip at 0 of its eight Born weights of -eps / 2 moves f-hat's lambda_min by 3.0e-10, within the bound 5.1e-10
    assert abs(lams["f_hat_ideal"] - lams["spa_spectrum"]) <= EXACT_BOUND + clip_shift_norm(rho)


def test_detect_sampled(tmp_path, bell_file):
    path = tmp_path / "sampled.json"
    code = run_cli(
        "detect", "--state", bell_file, "--method", "f_hat_sampled",
        "--shots", "100000", "--seed", "3", "--out", str(path),
    )
    assert code == 0
    row = read_json(path)["rows"][0]
    assert row["shots"] == 100000
    assert row["lambda_min"] == pytest.approx(1.0 / 6.0, abs=0.01)


def test_detect_unreadable_state_file(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run_cli("detect", "--state", str(missing), "--method", "ppt") == 2
    assert "cannot read" in capsys.readouterr().err


def test_corrupted_state_file_names_the_invariant(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 4, "re": (np.eye(4) / 2.0).tolist(), "im": [[0.0] * 4] * 4, "metadata": {}}))
    assert run_cli("detect", "--state", str(bad), "--method", "ppt") == 2
    assert "trace" in capsys.readouterr().err


def test_nan_state_file_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps({"dim": 4, "re": [[float("nan")] * 4] * 4, "im": [[0.0] * 4] * 4, "metadata": {}}))
    assert run_cli("detect", "--state", str(bad), "--method", "ppt") == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", "--channel", "spa_pt", "--mode", "exact", "--state"),
        ("apply", "--channel", "identity", "--mode", "trajectory", "--state"),
        ("detect", "--method", "ppt", "--state"),
        ("detect", "--method", "spa_spectrum", "--state"),
        ("detect", "--method", "f_hat_ideal", "--state"),
        ("detect", "--method", "f_hat_sampled", "--state"),
        ("prepare", "file", "--path"),
    ],
    ids=["apply-exact", "apply-trajectory", "ppt", "spa_spectrum", "f_hat_ideal", "f_hat_sampled", "prepare-file"],
)
def test_a_valid_qubit_state_file_is_a_validation_error(tmp_path, capsys, argv):
    qubit = tmp_path / "qubit.json"
    qubit.write_text(json.dumps({"dim": 2, "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0] * 2] * 2, "metadata": {}}))
    message = f"state file {qubit} failed validation: a state is a two-qubit state of dimension 4, got dimension 2"
    with pytest.raises(ValidationError) as err:
        load_state(str(qubit))
    assert str(err.value) == message
    assert run_cli(*argv, str(qubit)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"spapt: validation error: {message}\n"


def test_lapack_failure_is_a_numeric_failure(bell_file, capsys, monkeypatch):
    # a real failed solve: LAPACK given NaN sets the invalid flag and returns
    # NaN eigenvalues; under pytest the flag's warning is an error, and with
    # the flag ignored the NaN eigenvalues are caught
    eigh = linalg._eigh
    monkeypatch.setattr(linalg, "_eigh", lambda a, **kwargs: eigh(np.full_like(a, np.nan), **kwargs))
    assert run_cli("detect", "--state", bell_file, "--method", "ppt") == 3
    assert "numeric failure: eigh did not converge: invalid value" in capsys.readouterr().err
    with np.errstate(invalid="ignore"):
        assert run_cli("detect", "--state", bell_file, "--method", "ppt") == 3
    assert "numeric failure: eigh did not converge: LAPACK returned NaN eigenvalues" in capsys.readouterr().err


def test_oversized_shot_count_is_a_validation_error(bell_file, capsys):
    assert run_cli("detect", "--state", bell_file, "--method", "f_hat_sampled", "--shots", str(10**19)) == 2
    assert "64-bit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"5", "must hold a JSON object"),
        (b"null", "must hold a JSON object"),
        (b'{"dim": Infinity, "re": [], "im": []}', "key 'dim' must be a JSON integer"),
        (b'{"dim": 4.7, "re": [], "im": []}', "key 'dim' must be a JSON integer"),
        (b'{"dim": "4", "re": [], "im": []}', "key 'dim' must be a JSON integer"),
        (b'{"dim": true, "re": [], "im": []}', "key 'dim' must be a JSON integer"),
        (b'{"dim": 1, "re": [[1' + b"0" * 400 + b']], "im": [[0]]}', "malformed arrays"),
        (b"\xff\xfe{}", "is not valid JSON"),
        (json.dumps({"dim": 4, "re": (np.eye(4) / 4).tolist(), "im": np.zeros((4, 4)).tolist(), "metadata": [1]}).encode(), ": metadata must be a mapping\n"),
    ],
    ids=["int", "null", "dim-infinity", "dim-float", "dim-string", "dim-bool", "int-overflow", "not-utf8", "metadata-list"],
)
def test_malformed_state_document_is_a_validation_error(tmp_path, capsys, raw, message):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    assert run_cli("detect", "--state", str(bad), "--method", "ppt") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"spapt: validation error: state file {bad}")
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ("prepare", "bell", "--kind", "phi+", "--out", "{missing}"),
        ("detect", "--state", "{state}", "--method", "ppt", "--out", "{missing}"),
        ("apply", "--state", "{state}", "--channel", "spa_pt", "--state-out", "{missing}"),
    ],
    ids=["prepare-out", "detect-out", "apply-state-out"],
)
def test_unwritable_output_path_is_a_validation_error(tmp_path, bell_file, capsys, argv):
    missing = str(tmp_path / "nonexistent" / "t.json")
    assert run_cli(*(arg.format(state=bell_file, missing=missing) for arg in argv)) == 2
    assert capsys.readouterr().err.startswith(f"spapt: validation error: cannot write {missing}")


@pytest.mark.parametrize(
    "argv",
    [
        ("detect", "--state", "{state}", "--method", "ppt", "--shots", "-5", "--seed", "-3"),
        ("apply", "--state", "{state}", "--channel", "spa_pt", "--mode", "exact", "--shots", "0"),
        ("table1", "--shots", "0"),
        ("fig3", f"--seed={2**64}"),
        ("selftest", "--seed", "-1"),
    ],
    ids=["detect", "apply", "table1", "fig3", "selftest"],
)
def test_out_of_range_shots_or_seed_exit_2_before_any_work(bell_file, capsys, argv):
    assert run_cli(*(arg.format(state=bell_file) for arg in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("spapt: validation error:") and "64-bit" in captured.err


def _main_captured(*argv):
    """In-process ``main`` with stdout and stderr captured; returns (code, stderr)."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def test_reused_parser_carries_nothing_from_one_call_to_the_next(tmp_path, bell_file, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "spapt":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    calls = []

    def call(*argv):
        calls.append(argv)
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr()

    state_out = tmp_path / "out.json"
    for _ in range(2):
        assert call("apply", "--state", bell_file, "--channel", "spa_pt", "--state-out", str(state_out))[0] == 0
        assert state_out.exists()
        state_out.unlink()
        assert call("apply", "--state", bell_file, "--channel", "spa_pt")[0] == 0
        assert not state_out.exists()

        code, captured = call("detect", "--state", bell_file, "--method", "ppt", "--format", "csv")
        assert code == 0 and captured.out.startswith("method,")
        code, captured = call("detect", "--state", bell_file, "--method", "ppt")
        assert code == 0 and json.loads(captured.out)["rows"][0]["method"] == "ppt"

        assert call("detect", "--state", bell_file, "--method", "bogus")[0] == 1
        assert call("detect", "--state", bell_file, "--method", "ppt")[0] == 0

        code, captured = call("--version")
        assert code == 0 and captured.out.startswith("spapt ")
        assert call("detect", "--state", bell_file, "--method", "ppt")[0] == 0

        code, captured = call("prepare", "werner")
        assert code == 1 and captured.err.endswith("spapt prepare werner: error: the following arguments are required: --p\n")
        code, captured = call("prepare", "werner", "--p", "0.5")
        assert code == 0 and json.loads(captured.out)["metadata"]["family"] == "werner"
    assert len(calls) >= 20
    assert len(built) <= 1
    assert build_parser() is not build_parser()


def _parse_outcome(parse, argv):
    """What ``parse(argv)`` returns or exits with, and what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            result = ("namespace", parse(list(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _assert_dispatch_is_the_nested_parse(argv):
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(build_parser().parse_args, argv)


DISPATCH_EDGE_CASES = {
    "opt-equals-value": ["apply", "--state=x.json", "--channel=spa_pt", "--mode=trajectory"],
    "abbreviation": ["detect", "--sta", "x.json", "--meth", "ppt"],
    "ambiguous-abbreviation": ["apply", "--sta", "x.json", "--channel", "spa_pt"],
    "double-dash-after": ["detect", "--state", "x.json", "--method", "ppt", "--", "extra"],
    "double-dash-first": ["detect", "--", "--state", "x.json", "--method", "ppt"],
    "subcommand-short-help": ["apply", "-h"],
    "subcommand-long-help": ["detect", "--state", "x.json", "--help"],
    "bad-choice": ["detect", "--state", "x.json", "--method", "bogus"],
    "bad-int": ["detect", "--state", "x.json", "--method", "ppt", "--shots", "ten"],
    "unknown-option": ["detect", "--state", "x.json", "--method", "ppt", "--bogus"],
    "extra-positional": ["fig3", "extra"],
    "repeated-option": ["detect", "--state", "a.json", "--state", "b.json", "--method", "ppt"],
    "empty": [],
    "version": ["--version"],
    "top-level-help": ["-h"],
    "unknown-command": ["bogus", "--state", "x.json"],
    "abbreviated-command": ["appl", "--state", "x.json", "--channel", "spa_pt"],
    "missing-positional": ["prepare"],
    "missing-required-option": ["apply", "--state", "x.json"],
    "negative-numbers": ["table1", "--seed", "-5", "--shots=-1"],
    "option-without-value": ["prepare", "werner", "--out", "s.json", "--p"],
    "top-level-option-after-command": ["fig3", "--version"],
    "ambiguous-with-every-long-option": ["detect", "--state", "x.json", "--method", "ppt", "--=x"],
    "option-of-another-command": ["selftest", "--shots", "5"],
    "unknown-short-option": ["table1", "-x", "--out", "t.json"],
    "empty-token": ["prepare", "", "--kind", "phi+"],
    "prepare-missing-flag": ["prepare", "werner", "--out", "s.json"],
    "prepare-foreign-flag": ["prepare", "werner", "--p", "0.5", "--kind", "phi+"],
    "prepare": ["prepare", "bell", "--kind", "phi+", "--out", "s.json"],
    "apply": ["apply", "--state", "x.json", "--channel", "identity", "--state-out", "o.json", "--format", "csv"],
    "detect": ["detect", "--state", "x.json", "--method", "f_hat_sampled", "--shots", "100", "--seed", "7"],
    "table1": ["table1", "--shots", "100", "--seed", "7", "--out", "t.json"],
    "fig3": ["fig3", "--format", "csv"],
    "selftest": ["selftest", "--seed", "3"],
}


@pytest.mark.parametrize("argv", DISPATCH_EDGE_CASES.values(), ids=DISPATCH_EDGE_CASES.keys())
def test_the_dispatch_parses_prints_and_exits_as_the_nested_parse(argv):
    _assert_dispatch_is_the_nested_parse(argv)


def _nested_parsers(parser):
    """``parser`` and every parser under it: the subcommands and prepare's families."""
    subs = [sub for action in parser._actions if isinstance(action, argparse._SubParsersAction) for sub in action.choices.values()]
    return [parser, *(nested for sub in subs for nested in _nested_parsers(sub))]


def _dispatch_argv():
    """Argv lists built from the parser's own option strings and values, with
    stray tokens: a valid command line with tokens spliced in, or a first
    token followed by tokens."""
    parser, commands = cli._parser()
    actions = [action for sub in _nested_parsers(parser) for action in sub._actions]
    options = sorted({option for action in actions for option in action.option_strings})
    values = sorted({str(choice) for action in actions for choice in action.choices or ()} | {"0", "-1", "2.5", "ten", "x.json"})
    stray = ["--", "-", "", "--bogus", "-x", "-hx", "--=x", "extra", "--version", *commands]
    prefixes = [option[:k] for option in options if option.startswith("--") for k in range(3, len(option))]
    joined = st.builds("{}={}".format, st.sampled_from(options), st.sampled_from(values))
    token = st.sampled_from(options) | st.sampled_from(values) | st.sampled_from(stray) | st.sampled_from(prefixes) | joined
    pair = st.tuples(st.sampled_from(options), st.sampled_from(values))
    tokens = st.lists(pair | st.tuples(token), max_size=5).map(lambda pieces: [t for piece in pieces for t in piece])
    valid = st.sampled_from([DISPATCH_EDGE_CASES[name] for name in commands])
    spliced = st.builds(lambda argv, extra, k: argv[:k] + extra + argv[k:], valid, tokens, st.integers(1, 12))
    first = st.sampled_from([*commands, "--version", "-h", "bogus", "appl"])
    return spliced | st.builds(lambda head, rest: [head, *rest], first, tokens)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.deferred(_dispatch_argv))
def test_any_argv_of_the_parsers_own_tokens_dispatches_as_the_nested_parse(argv):
    _assert_dispatch_is_the_nested_parse(argv)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=16,
)
MATRICES = st.integers(0, 4).flatmap(lambda n: st.lists(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n), min_size=n, max_size=n))
STATE_DOCUMENTS = JSON_VALUES | st.fixed_dictionaries(
    {"dim": st.integers(-1, 5) | JSON_VALUES, "re": MATRICES | JSON_VALUES, "im": MATRICES | JSON_VALUES},
    optional={"metadata": JSON_VALUES},
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(STATE_DOCUMENTS)
def test_any_json_state_file_exits_0_or_2(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "any_json_state.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, err = _main_captured("detect", "--state", str(path), "--method", "ppt")
    assert code in (0, 2)
    assert code == 0 or err.startswith("spapt: validation error")


EDGE_SHOTS = st.sampled_from([-1, 0, 1, 2**63 - 1, 2**63])
EDGE_SEEDS = st.sampled_from([-1, 0, 2**64 - 1, 2**64])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from(["ppt", "f_hat_sampled"]), EDGE_SHOTS | st.integers(-(2**66), 2**66), EDGE_SEEDS | st.integers(-(2**66), 2**66))
def test_shots_and_seed_exit_0_exactly_in_range(tmp_path_factory, method, shots, seed):
    state = tmp_path_factory.getbasetemp() / "range_state.json"
    if not state.exists():
        assert _main_captured("prepare", "werner", "--p", "0.5", "--out", str(state))[0] == 0
    code, _ = _main_captured("detect", "--state", str(state), "--method", method, f"--shots={shots}", f"--seed={seed}")
    assert code == (0 if 1 <= shots < 2**63 and 0 <= seed < 2**64 else 2)


def test_table1_report(tmp_path):
    path = tmp_path / "table1.json"
    assert run_cli("table1", "--shots", "100000", "--seed", "42", "--out", str(path)) == 0
    doc = read_json(path)
    assert doc["config"]["seed"] == 42
    rows = doc["rows"]
    assert [row["state"] for row in rows] == ["phi+", "phi-", "psi+", "psi-"]
    for row in rows:
        assert row["lambda_th"] == pytest.approx(1.0 / 6.0, abs=1e-10)
        assert abs(row["lambda_exp"] - 1.0 / 6.0) < 0.01
        assert abs(row["lambda_d"] - 1.0 / 6.0) < 0.01
        for key in ("lambda_th", "lambda_exp", "lambda_d"):
            assert row[key] < 2.0 / 9.0


def test_fig3_dataset(tmp_path):
    path = tmp_path / "fig3.csv"
    assert run_cli("fig3", "--shots", "100000", "--seed", "11", "--format", "csv", "--out", str(path)) == 0
    rows = read_csv(path)
    assert len(rows) == 9 + 21 + 21
    header = set(rows[0].keys())
    for column in ("family", "p", "alpha", "tangle", "linear_entropy", "lambda_th", "lambda_d_ideal", "lambda_d_sampled", "verdict"):
        assert column in header
    for row in rows:
        entangled = float(row["tangle"]) > 1e-12
        assert (row["verdict"] == "entangled") == entangled
        assert abs(float(row["lambda_d_sampled"]) - float(row["lambda_d_ideal"])) < 0.01
    werner_rows = [row for row in rows if row["family"] == "werner"]
    assert len(werner_rows) == 21
    for row in werner_rows:
        assert float(row["lambda_th"]) == pytest.approx((float(row["p"]) + 2.0) / 12.0, abs=1e-10)
        assert row["alpha"] == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("table1", "--shots", "20000", "--seed", "9"),
        ("fig3", "--shots", "20000", "--seed", "9"),
        ("detect", "--state", "{state}", "--method", "ppt"),
        ("detect", "--state", "{state}", "--method", "spa_spectrum"),
        ("detect", "--state", "{state}", "--method", "f_hat_ideal"),
        ("detect", "--state", "{state}", "--method", "f_hat_sampled", "--shots", "20000", "--seed", "9"),
        ("apply", "--state", "{state}", "--channel", "id_depolarize", "--mode", "exact"),
        ("apply", "--state", "{state}", "--channel", "spa_pt", "--mode", "trajectory", "--shots", "20000", "--seed", "9"),
    ],
    ids=["table1", "fig3", "detect-ppt", "detect-spa_spectrum", "detect-f_hat_ideal", "detect-f_hat_sampled", "apply-exact", "apply-trajectory"],
)
def test_csv_and_json_carry_identical_numbers(tmp_path, bell_file, argv):
    argv = [arg.format(state=bell_file) for arg in argv]
    json_path = tmp_path / "t.json"
    csv_path = tmp_path / "t.csv"
    assert run_cli(*argv, "--out", str(json_path)) == 0
    assert run_cli(*argv, "--format", "csv", "--out", str(csv_path)) == 0
    json_rows = read_json(json_path)["rows"]
    csv_rows = read_csv(csv_path)
    assert len(json_rows) == len(csv_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        for key, value in jrow.items():
            if isinstance(value, float):
                assert float(crow[key]) == value == round12(value)
            elif value is None:
                assert crow[key] == ""
            else:
                assert str(value) == crow[key]


def _rounded(value):
    """The reference rounding of a report: every float to 12 significant digits, at any depth."""
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return round12(value) if isinstance(value, float) else value


_TEXT = st.text(st.sampled_from(list('ab \n\t\r"\\{}[],:') + ["é", "ü", "€", "\u2028", "😀"]) | st.characters(), max_size=6)
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e16, -2.5e17, 1.234567890123456e300, 9.999e-5, 1e-7, 5e-324]
)
_KEYS = _TEXT | st.integers() | st.floats() | st.booleans() | st.none()  # json writes each as a string
# lists of non-empty containers of scalars, all dicts or all lists, as report rows and state file matrices are
_FLAT_ROWS = st.lists(st.dictionaries(_KEYS, _SCALARS, min_size=1, max_size=5), max_size=4) | st.lists(st.lists(_SCALARS, min_size=1, max_size=4), max_size=4)
_VALUES = st.recursive(_SCALARS | _FLAT_ROWS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4), max_leaves=12)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.lists(_VALUES, max_size=4) | st.dictionaries(_KEYS, _VALUES, max_size=4) | _FLAT_ROWS)
def test_json_reports_are_the_bytes_of_indented_json_dumps(value):
    assert render_report(value, "json") == json.dumps(_rounded(value), indent=2)


def test_csv_uses_lf_line_endings(tmp_path):
    path = tmp_path / "t.csv"
    assert run_cli("table1", "--shots", "5000", "--seed", "1", "--format", "csv", "--out", str(path)) == 0
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode("utf-8").startswith("state,")


def test_reports_embed_reproducible_config(tmp_path):
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert run_cli("table1", "--shots", "20000", "--seed", "5", "--out", str(path_a)) == 0
    assert run_cli("table1", "--shots", "20000", "--seed", "5", "--out", str(path_b)) == 0
    doc_a, doc_b = read_json(path_a), read_json(path_b)
    assert doc_a == doc_b
    assert doc_a["config"]["shots_per_setting"] == 20000
    assert "version" in doc_a["config"]


def test_selftest_command():
    assert run_cli("selftest", "--seed", "42") == 0


def test_selftest_counts_a_failing_suite_and_exits_3(monkeypatch, capsys):
    def broken(seed):
        raise AssertionError("broken on purpose")

    name = selftest.SUITES[0][0]
    monkeypatch.setattr(selftest, "SUITES", ((name, broken),) + selftest.SUITES[1:])
    assert run_cli("selftest") == 3
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(rf"\[FAIL\] {name} \(\d+\.\d\d s\): broken on purpose", lines[0])
    assert all(line.startswith("[PASS] ") for line in lines[1:-1]) and len(lines) == 11
    assert re.fullmatch(r"9/10 suites passed in \d+\.\d\d s", lines[-1])


def test_render_report_refuses_an_unknown_format_and_an_empty_csv():
    report = {"command": "detect", "config": {}, "rows": []}
    with pytest.raises(ValidationError, match="^unknown output format 'xml'; expected json or csv$"):
        render_report(report, "xml")
    with pytest.raises(ValidationError, match="^cannot render an empty CSV report$"):
        render_report(report, "csv")
    assert json.loads(render_report(report, "json")) == report


def test_selftest_fails_a_broken_bound_under_python_optimize():
    # -O strips assert statements; the suites must still fail
    script = "import sys; from spapt import cli, selftest; selftest.EXACT_BOUND = -1.0; sys.exit(cli.main(['selftest']))"
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True)
    assert result.returncode == 3, result.stderr
    assert "3/10 suites passed" in result.stdout


@pytest.mark.parametrize(
    "builder, lift, failure",
    [("bell", 1.0 / 12.0, "Bell state does not attain 1/6"), ("DensityMatrix", 1.0 / 36.0, "pure product input does not attain 2/9")],
    ids=["bell", "product"],
)
def test_range_law_suite_fails_an_output_just_above_its_upper_bound(monkeypatch, builder, lift, failure):
    # white noise eps mixed into the suite's 4 Bell (20 pure product) inputs, built
    # by its one call of bell (DensityMatrix), lifts their output minimum from
    # 1/6 (2/9) by eps/12 (eps/36): half the bound EXACT_BOUND above passes, one
    # and a half times it fails
    exact = getattr(selftest, builder)
    for excess in (0.5, 1.5):
        eps = excess * selftest.EXACT_BOUND / lift
        noisy = lambda arg: DensityMatrix((1.0 - eps) * exact(arg).mat + eps * np.eye(4) / 4.0)
        monkeypatch.setattr(selftest, builder, noisy)
        if excess < 1.0:
            selftest._suite_spa_range_law(42)
        else:
            with pytest.raises(AssertionError, match=failure):
                selftest._suite_spa_range_law(42)


def test_tomography_roundtrip_suite_fails_a_deviation_just_above_its_bound(monkeypatch):
    # an offset of one Pauli expectation moves the reconstruction by a quarter
    # of it in the entries of its Pauli product, which are 0 or of modulus 1:
    # a deviation of half the bound EXACT_BOUND passes, one and a half times it fails
    exact = selftest.pauli_expectations
    for excess in (0.5, 1.5):
        offset = np.zeros((4, 4))
        offset[1, 3] = 4.0 * excess * selftest.EXACT_BOUND
        monkeypatch.setattr(selftest, "pauli_expectations", lambda states: exact(states) + offset)
        if excess < 1.0:
            selftest._suite_tomography_roundtrip(42)
        else:
            with pytest.raises(AssertionError, match="linear inversion round trip deviates by 1.5"):
                selftest._suite_tomography_roundtrip(42)


def test_bell_basis_suite_fails_a_spa_spectrum_spread_just_above_its_bound(monkeypatch):
    # the four Bell states' spa_spectrum minima are 1/6 to rounding: the one of
    # psi-, stack entry 3, offset by half the bound EXACT_BOUND passes, by one
    # and a half times it fails
    exact, psi_minus = selftest.detect, selftest.bell("psi-").mat
    for excess in (0.5, 1.5):

        def offset_detect(rho, method, offset=excess * selftest.EXACT_BOUND):
            verdicts = exact(rho, method)
            assert np.array_equal(rho.mat[3], psi_minus)
            lams = verdicts.lambda_min.copy()
            lams[3] += offset
            return dataclasses.replace(verdicts, lambda_min=lams)

        monkeypatch.setattr(selftest, "detect", offset_detect)
        if excess < 1.0:
            selftest._suite_bell_basis_independence(42)
        else:
            with pytest.raises(AssertionError, match="spa_spectrum differs across Bell states"):
                selftest._suite_bell_basis_independence(42)


def test_sampled_detection_suite_runs_at_the_largest_seed():
    # its 50 seeds seed + k wrap modulo 2**64 instead of leaving the seed range
    _suite_sampled_detection_stability(2**64 - 1)


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "spapt.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "spapt" in result.stdout
