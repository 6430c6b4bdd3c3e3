"""The package surface: every exported name resolves, and every demo runs
against the current API."""

import contextlib
import io
import runpy
from pathlib import Path

import pytest

import spapt

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in spapt.__all__ if not hasattr(spapt, name)]
    assert not missing
    assert len(set(spapt.__all__)) == len(spapt.__all__)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()
