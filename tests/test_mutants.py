"""The mutant catalogue in `tests/mutants.py` still fits the code.

Applying the mutants takes a subprocess each and runs as its own CI
job; here each snippet must occur exactly once in its file under
``src/latcut`` and each test it names must still be defined, so that a
change that moves the guarded code or renames a guarding test fails
here.
"""

import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_mutant_snippet_occurs_once_in_src(mutant):
    text = (ROOT / "src" / "latcut" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet
    assert mutant.tests
    for test in mutant.tests:
        path, name = test.split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(name)}\(", source, re.M), test


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
