"""Every name in a module's ``__all__`` resolves, so an export whose
definition was removed cannot be left behind; every private function, class
and method is named by code outside its own body, so one whose last caller
was removed cannot be left behind either; every public one is named by the
package or the benchmark, so the package ships only what they run, and so
is every parameter with a default, which some call there must pass; and the
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


def _calls_by_name(modules: list[ast.Module]) -> dict[str, list[ast.Call]]:
    """Every call in ``modules``, keyed by the spelling of its callee, bare
    or as an attribute."""
    calls: dict[str, list[ast.Call]] = {}
    for module in modules:
        for node in ast.walk(module):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` passes ``param``: by keyword, through ``**``, or,
    when the parameter takes the argument at ``position``, by position or
    through ``*``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return position < len(call.args) or any(
        isinstance(arg, ast.Starred) for arg in call.args)


# Defaults passed through calls that name no callee: RstTree's, which
# _Value.replace and __reduce__ pass through ``self.__class__``, and
# _Parser's ``build``, which ``add_parser`` forwards to the class argparse
# builds subparsers with.
UNPASSED_DEFAULTS = {"RstTree.__init__.label", "RstTree.__init__.left",
                     "RstTree.__init__.right", "_Parser.__init__.build"}


def test_every_parameter_default_is_overridden_by_the_package_or_the_benchmark():
    # A callee matches by spelling: a function or method by its name, an
    # __init__ by its class's.  A method's call binds its first positional
    # argument to the parameter after ``self`` or ``cls``.
    package = _parse(PACKAGE)
    calls = _calls_by_name(package + _parse(BENCH))
    owners = [(None, module.body) for module in package] + [
        (node.name, node.body) for module in package for node in ast.walk(module)
        if isinstance(node, ast.ClassDef)]
    unpassed, checked = set(), 0
    for owner, body in owners:
        for func in body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            reaching = calls.get(owner if func.name == "__init__" else func.name, [])
            offset = 0 if owner is None or any(
                isinstance(d, ast.Name) and d.id == "staticmethod"
                for d in func.decorator_list) else 1
            args = func.args
            positional = args.posonlyargs + args.args
            defaulted = [(arg.arg, i - offset) for i, arg in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(arg.arg, None) for arg, default in
                          zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            for param, position in defaulted:
                checked += 1
                if not any(_passes(call, param, position) for call in reaching):
                    unpassed.add(f"{owner + '.' if owner else ''}{func.name}.{param}")
    assert checked > 30  # the walk found the package's defaults
    assert unpassed == UNPASSED_DEFAULTS
