"""The mutation gate's mutants stay aimed at the code they break."""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants",
                                               ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS,
                         ids=[m.name for m in mutants.MUTANTS])
def test_anchor_occurs_once(mutant):
    assert (ROOT / "src" / mutant.path).read_text().count(mutant.anchor) == 1
