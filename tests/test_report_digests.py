"""Report bytes pinned: every CLI report must stay byte for byte what it was.

``report_digests.json`` maps a run, keyed ``command|...``, to the first 16
hex digits of the SHA-256 of the bytes it writes.  The state files are
passed by relative path, since reports echo the path.  Re-record the file
only for a deliberate change of a report format, with
``PYTHONPATH=src python tests/test_report_digests.py``.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from spapt import cli
from spapt.cli import CHANNEL_FACTORIES, DETECTORS, main

DIGEST_FILE = Path(__file__).resolve().with_name("report_digests.json")
STATE_FILES = {"bell": ("bell", "--kind", "phi+"), "werner": ("werner", "--p", "0.6")}
FORMATS = ("json", "csv")


def report_keys() -> list[str]:
    keys = [f"prepare|{name}" for name in STATE_FILES]
    keys += [f"{command}|{fmt}|{seed}" for command in ("table1", "fig3") for fmt in FORMATS for seed in (42, 7)]
    for name in STATE_FILES:
        keys += [f"detect|{name}|{method}|{fmt}" for method in DETECTORS for fmt in FORMATS]
        keys += [f"apply|{name}|{channel}|{mode}|{fmt}" for channel in sorted(CHANNEL_FACTORIES) for mode in ("exact", "trajectory") for fmt in FORMATS]
    return keys


def report_digest(key: str) -> str:
    """Digest of the bytes the run ``key`` writes, run in the current directory,
    after writing the state files there."""
    for name, argv in STATE_FILES.items():
        assert main(["prepare", *argv, "--out", f"{name}.json"]) == 0
    command, *rest = key.split("|")
    if command == "prepare":
        return hashlib.sha256(Path(f"{rest[0]}.json").read_bytes()).hexdigest()[:16]
    if command in ("table1", "fig3"):
        fmt, seed = rest
        argv = [command, "--seed", seed]
    elif command == "detect":
        name, method, fmt = rest
        argv = [command, "--state", f"{name}.json", "--method", method]
    else:
        name, channel, mode, fmt = rest
        argv = [command, "--state", f"{name}.json", "--channel", channel, "--mode", mode]
    assert main([*argv, "--format", fmt, "--out", "report.out"]) == 0
    return hashlib.sha256(Path("report.out").read_bytes()).hexdigest()[:16]


REPORT_DIGESTS = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}


def test_report_digests_cover_every_command_channel_method_and_format():
    assert sorted(REPORT_DIGESTS) == sorted(report_keys())


@pytest.mark.parametrize("key", sorted(REPORT_DIGESTS))
def test_report_bytes_match_their_recorded_digest(key, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert report_digest(key) == REPORT_DIGESTS[key]


#: run in a fresh interpreter: the digests of the keys in argv[1], written as JSON to stdout
_CHILD = """
import json, os, sys, tempfile
from test_report_digests import report_digest
keys = json.loads(sys.argv[1])
with tempfile.TemporaryDirectory() as workdir:
    os.chdir(workdir)
    print(json.dumps({key: report_digest(key) for key in keys}))
"""


def test_table1_and_fig3_digests_hold_under_one_and_two_blas_threads():
    # the pool size is read when numpy loads, so each size runs in its own interpreter
    keys = sorted(key for key in REPORT_DIGESTS if key.startswith(("table1|", "fig3|")))
    assert len(keys) == 8
    path = os.pathsep.join(filter(None, [str(DIGEST_FILE.parent.parent / "src"), str(DIGEST_FILE.parent), os.environ.get("PYTHONPATH")]))
    runs = {
        threads: subprocess.Popen(
            [sys.executable, "-c", _CHILD, json.dumps(keys)],
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads},
            stdout=subprocess.PIPE,
            text=True,
        )
        for threads in ("1", "2")
    }
    # both children are read before any assertion, and none outlives the test, so a mismatch
    # fails here and leaves no running child to fail a later test
    try:
        outs = {threads: run.communicate(timeout=60)[0] for threads, run in runs.items()}
    finally:
        for run in runs.values():
            if run.poll() is None:
                run.kill()
                run.communicate()
    for threads, run in runs.items():
        assert run.returncode == 0, threads
        assert json.loads(outs[threads]) == {key: REPORT_DIGESTS[key] for key in keys}, threads


def test_warm_table1_and_fig3_write_the_bytes_of_a_cold_run(tmp_path, monkeypatch):
    # the two sweeps are built once per process: runs on the kept stacks, whose sampler memo an
    # earlier run filled, write what runs after clearing them write
    monkeypatch.chdir(tmp_path)

    def run(command, seed, shots):
        assert main([command, "--seed", str(seed), "--shots", str(shots), "--out", "report.out"]) == 0
        return Path("report.out").read_bytes()

    runs = [(command, seed, shots) for command in ("fig3", "table1") for seed, shots in ((42, 100000), (7, 300))]
    for command in ("fig3", "table1"):
        run(command, 5, 1000)
    warm = [run(*args) for args in runs]
    cold = []
    for args in runs:
        cli._fig3_sweep.cache_clear()
        cli._bell_sweep.cache_clear()
        cold.append(run(*args))
    assert warm == cold


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        digests = {key: report_digest(key) for key in report_keys()}
    DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} report digests")
