"""Run the doctests embedded in every module's docstrings.

Keeps the inline usage examples honest: if an API changes, the stale
docstring fails here rather than misleading a reader.  Modules are found
by walking the package, so a new module's examples run without being
listed anywhere.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

# Resolved via importlib because several package __init__ files re-export
# same-named callables (e.g. repro.core.gsim_plus the function shadows the
# submodule as a package attribute).
MODULE_NAMES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
]

_FINDER = doctest.DocTestFinder()

MODULES = [
    module
    for module in map(importlib.import_module, MODULE_NAMES)
    if any(test.examples for test in _FINDER.find(module))
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(
        module,
        optionflags=doctest.NORMALIZE_WHITESPACE | doctest.ELLIPSIS,
    )
    assert result.failed == 0, (
        f"{result.failed} doctest failures in {module.__name__}"
    )
