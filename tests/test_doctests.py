"""Run the library's docstring examples as tests.

Every public-API docstring example must actually work; this keeps the
documentation honest as the code evolves.  The modules are found by
walking the ``repro`` package, so a new module's examples are run
without listing it here; a module without examples passes until it
gains one.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro

# Importing ``repro.__main__`` runs the CLI.
MODULES = [
    importlib.import_module(info.name)
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.name != "repro.__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, (
        f"{result.failed} doctest failure(s) in {module.__name__}"
    )
