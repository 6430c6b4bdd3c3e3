"""The hand-written mutants of ``tools/mutants.py`` still apply: a mutant
whose text has drifted out of its module fails here, not at the next
mutation run.  The runner's ``--module`` filter is checked here too."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def test_every_mutant_text_occurs_exactly_once_in_its_module():
    assert mutants.stale_mutants() == []



def _listed(capsys, *argv):
    assert mutants.main(["--list", *argv]) == 0
    return [line.split()[0] for line in capsys.readouterr().out.splitlines()]


def test_the_module_filter_selects_that_module_and_combines_with_names(capsys):
    in_channels = [m.name for m in mutants.MUTANTS if m.module == "channels.py"]
    assert "is-cp-threshold" in in_channels and "tangle-sign" not in in_channels
    assert _listed(capsys, "--module", "channels.py") == in_channels
    assert _listed(capsys, "--module", "channels.py", "is-cp-threshold", "tangle-sign") == ["is-cp-threshold"]
    for argv in (["--module", "channels.py", "tangle-sign"], ["--module", "nowhere.py"]):
        with pytest.raises(SystemExit):
            mutants.main(["--list", *argv])
