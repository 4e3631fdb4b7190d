"""Every name in a module's ``__all__`` resolves, so an export whose
definition was removed cannot be left behind; and the package reports
every defect as an RstError, whose one subclass is SchemaViolation."""

import importlib
import inspect
import pkgutil

import pytest

import rstkit
from rstkit.core import RstError, SchemaViolation

MODULES = [rstkit] + [
    importlib.import_module(f"rstkit.{info.name}")
    for info in pkgutil.iter_modules(rstkit.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=[m.__name__ for m in EXPORTING])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_schema_violation_is_the_only_error_subclass():
    # The CLI prints an error's message and exits 1, so a subclass adds
    # nothing unless some caller catches it; a new one must say which.
    subclasses = {
        value
        for module in MODULES
        for _, value in inspect.getmembers(module, inspect.isclass)
        if issubclass(value, RstError) and value is not RstError
    }
    assert subclasses == {SchemaViolation}
