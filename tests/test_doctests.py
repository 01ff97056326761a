"""Run the doctests embedded in the public modules' docstrings.

Keeps the inline usage examples honest: if an API changes, the stale
docstring fails here rather than misleading a reader.
"""

import doctest
import importlib

import pytest

# Resolved via importlib because several package __init__ files re-export
# same-named callables (e.g. repro.core.gsim_plus the function shadows the
# submodule as a package attribute).
MODULE_NAMES = [
    "repro",
    "repro.analysis.matching",
    "repro.analysis.ranking",
    "repro.core.batch",
    "repro.core.embeddings",
    "repro.core.gsim_plus",
    "repro.baselines.gsim",
    "repro.baselines.gsvd",
    "repro.baselines.ned",
    "repro.baselines.rolesim",
    "repro.baselines.structsim",
    "repro.dynamic.graph",
    "repro.dynamic.session",
    "repro.experiments.report",
    "repro.experiments.scaling",
    "repro.models.cosimrank",
    "repro.models.hits",
    "repro.models.simrank",
    "repro.runtime.budget",
    "repro.runtime.context",
    "repro.runtime.metrics",
    "repro.utils.memory",
    "repro.utils.timing",
    "repro.workloads.sweeps",
]

MODULES = [importlib.import_module(name) for name in MODULE_NAMES]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert result.failed == 0, (
        f"{result.failed} doctest failures in {module.__name__}"
    )
    # Modules listed here are expected to carry at least one example.
    assert result.attempted > 0, f"{module.__name__} has no doctests to run"
