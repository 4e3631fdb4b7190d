"""Every name in a module's ``__all__`` resolves, so an export whose
definition was removed cannot be left behind; every private function, class
and method is named by code outside its own body, so one whose last caller
was removed cannot be left behind either; every public one is named by the
package or the benchmark, so the package ships only what they run; and the
package reports every defect as an RstError, whose one subclass is
SchemaViolation."""

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import rstkit
from rstkit.core import RstError, SchemaViolation

MODULES = [rstkit] + [
    importlib.import_module(f"rstkit.{info.name}")
    for info in pkgutil.iter_modules(rstkit.__path__)
]
EXPORTING = [module for module in MODULES if hasattr(module, "__all__")]
PACKAGE = Path(rstkit.__file__).parent
BENCH = PACKAGE.parents[1] / "bench"


@pytest.mark.parametrize("module", EXPORTING, ids=[m.__name__ for m in EXPORTING])
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def _names(tree: ast.AST) -> list[str]:
    """Every name the code under ``tree`` reads, calls or sets, bare or as
    an attribute."""
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def _parse(directory: Path) -> list[ast.Module]:
    return [
        ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(directory.glob("*.py"))
    ]


def _definitions(modules: list[ast.Module]) -> list[ast.AST]:
    return [
        node
        for module in modules
        for node in ast.walk(module)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]


def test_every_private_definition_is_used():
    # Names are matched by spelling, across the whole package: a method is
    # used when any attribute of that name is.
    modules = _parse(PACKAGE)
    uses = Counter(name for module in modules for name in _names(module))
    private = [
        node for node in _definitions(modules)
        if node.name.startswith("_") and not node.name.endswith("__")
    ]
    assert len(private) > 40  # the walk found the package's definitions
    unused = [
        node.name for node in private
        if uses[node.name] == _names(node).count(node.name)  # only its own body
    ]
    assert unused == []


# Public names that no code in the package or the benchmark names: the
# Parseval reference oracle, which tests compare the fast matcher with, and
# the argparse hook that ``parse_args`` calls.
UNCALLED_PUBLIC = {"enumerate_constituents", "parse_known_args"}


def test_every_public_definition_is_used_by_the_package_or_the_benchmark():
    # Spelled names as above; tests, docstrings and __all__ strings do not
    # count, so a definition that only tests call fails here.
    assert BENCH.is_dir()
    package = _parse(PACKAGE)
    uses = Counter(name for module in package + _parse(BENCH) for name in _names(module))
    public = [node for node in _definitions(package) if not node.name.startswith("_")]
    assert len(public) > 100  # the walk found the package's definitions
    unused = {
        node.name for node in public
        if uses[node.name] == _names(node).count(node.name)  # only its own body
    }
    assert unused == UNCALLED_PUBLIC


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
