"""Run the doctest examples embedded in public docstrings.

Keeps the inline API examples honest — a signature change that breaks
a documented example fails the suite.
"""

import doctest

import pytest

import repro.core.recommender
import repro.graph.builders
import repro.graph.labeled_graph
import repro.obs.clock
import repro.semantics.matrix
import repro.semantics.taxonomy

MODULES = [
    repro.graph.labeled_graph,
    repro.graph.builders,
    repro.semantics.taxonomy,
    repro.semantics.matrix,
    repro.core.recommender,
    repro.obs.clock,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures"
    assert result.attempted > 0, "expected at least one doctest"
