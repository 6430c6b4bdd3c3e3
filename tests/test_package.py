"""The package surface: every exported name resolves, every demo and the
README's example run against the current API, and importing the package
does no CLI work."""

import contextlib
import io
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import spapt

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_exported_name_resolves():
    missing = [name for name in spapt.__all__ if not hasattr(spapt, name)]
    assert not missing
    assert len(set(spapt.__all__)) == len(spapt.__all__)


def test_the_readme_python_block_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.finditer(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    # padded so that a traceback names the README's own line numbers
    code = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
    exec(compile(code, "README.md", "exec"), {})


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue()


IMPORT_BUILDS_NO_PARSER = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import spapt, spapt.cli
assert built == [], f"import built parsers {built}"
spapt.cli.build_parser()
assert "spapt" in built, "the construction counter saw no parser"
"""


def test_importing_the_package_builds_no_parser():
    # in a fresh interpreter, so that no earlier test has imported spapt
    paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    result = subprocess.run([sys.executable, "-c", IMPORT_BUILDS_NO_PARSER], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
