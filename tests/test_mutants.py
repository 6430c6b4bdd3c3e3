"""The hand-written mutants of ``tools/mutants.py`` still apply: a mutant
whose text has drifted out of its module fails here, not at the next
mutation run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


def test_every_mutant_text_occurs_exactly_once_in_its_module():
    assert mutants.stale_mutants() == []

