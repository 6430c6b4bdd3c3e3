"""The package surface: every exported name resolves, every demo, the
README's example and its command lines run against the current API, and
importing the package does no CLI work."""

import ast
import contextlib
import io
import os
import re
import runpy
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import spapt
from spapt.cli import main

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


def test_the_readme_command_lines_run(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.finditer(r"^## Command line\n\n```sh\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)
    lines = [shlex.split(line, comments=True) for line in block.group(1).splitlines() if line.strip()]
    assert lines and all(argv[0] == "spapt" for argv in lines)
    # in order, in one directory: later lines read the state files that earlier ones write
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv[1:]) == 0, shlex.join(argv)


MODULES = sorted(path for path in (ROOT / "src" / "spapt").glob("*.py") if path.name != "__init__.py")
SOURCES = MODULES + sorted((ROOT / "tests").glob("*.py")) + DEMOS


@pytest.mark.parametrize("path", SOURCES, ids=[p.stem for p in SOURCES])
def test_every_module_level_import_is_used(path):
    # no linter is installed, so the check is ast only: a name bound by an
    # import at module level must be read somewhere else in the module
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


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


def _run_fresh(code):
    """Run ``code`` in a fresh interpreter, so that no earlier test has imported spapt."""
    paths = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def test_importing_the_package_builds_no_parser():
    _run_fresh(IMPORT_BUILDS_NO_PARSER)


ONLY_SAMPLING_IMPORTS_NUMPY_RANDOM = """
import sys
import spapt, spapt.cli
spapt.detect(spapt.werner(0.3), "f_hat")
spapt.apply(spapt.spa_pt(), spapt.werner(0.3))
assert "numpy.random" not in sys.modules, "import, detect or apply imported numpy.random"
spapt.sample_table(spapt.werner(0.3), spapt.ShotConfig(100, 1))
assert "numpy.random" in sys.modules, "sampling did not import numpy.random: the check above saw nothing"
"""


def test_only_sampling_imports_numpy_random():
    # numpy.random costs 15-19 ms to import, which a process that never samples does not pay
    _run_fresh(ONLY_SAMPLING_IMPORTS_NUMPY_RANDOM)


ONLY_SELFTEST_IMPORTS_THE_SUITES = """
import contextlib, io, sys
from spapt.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["prepare", "bell", "--kind", "phi+"]) == 0
assert "spapt.cli" in sys.modules and "spapt.selftest" not in sys.modules, "prepare imported spapt.selftest"
"""


def test_only_the_selftest_command_imports_the_suites():
    # the suites cost 2-4 ms of every import of spapt.cli, which no other command uses
    _run_fresh(ONLY_SELFTEST_IMPORTS_THE_SUITES)
