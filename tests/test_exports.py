"""Every name in a module's ``__all__`` resolves, so an export whose
definition was removed cannot be left behind."""

import importlib
import pkgutil

import pytest

import rstkit

MODULES = [rstkit] + [
    importlib.import_module(f"rstkit.{info.name}")
    for info in pkgutil.iter_modules(rstkit.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=[m.__name__ for m in EXPORTING])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
