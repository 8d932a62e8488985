"""The mutant registry (`tests/mutants.py`) still fits the code. No mutant
runs here: `python tests/mutants.py` runs them."""

import re
from pathlib import Path

import pytest

import mutants

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_names_existing_tests(mutant):
    # A change that moves a mutant's code must move the mutant too.
    text = (ROOT / "src" / "revsde" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.commit and mutant.tests
    for node in mutant.tests:
        path, *names = re.sub(r"\[.*\]$", "", node).split("::")
        source = (ROOT / path).read_text()
        assert re.search(rf"^    def {names[-1]}\(|^def {names[-1]}\(",
                         source, re.M), node
        assert len(names) == 1 or f"\nclass {names[0]}" in source, node


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
