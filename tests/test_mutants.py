"""The mutation audit's table stays applicable to the tree."""
from __future__ import annotations

import re

import pytest

from mutants import MUTANTS, PACKAGE, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    text = (PACKAGE / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_killing_tests_are_defined(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        text = (ROOT / path).read_text(encoding="utf-8")
        for name in names:
            assert re.search(rf"^\s*(class|def) {name}\b", text, re.M), node


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
