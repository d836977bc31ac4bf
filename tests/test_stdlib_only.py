"""The package needs the standard library alone at run time, and its
modules import one another without a cycle."""

from __future__ import annotations

import ast
import graphlib
import sys
from pathlib import Path

import tablepanel

PACKAGE = Path(tablepanel.__file__).resolve().parent


def _imported_top_names(tree: ast.AST) -> set[str]:
    """The top-level module of every import in ``tree``, function-level ones
    included; a relative import names the package itself."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(tablepanel.__name__ if node.level else node.module.split(".")[0])
    return names


def test_src_imports_only_the_standard_library_and_itself():
    imports = {path.name: _imported_top_names(ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted(PACKAGE.glob("*.py"))}
    # The gateway imports these inside functions; the walk must see them.
    assert {"ssl", "urllib", tablepanel.__name__} <= imports["gateway.py"]
    foreign = {name: sorted(outside) for name, found in imports.items()
               if (outside := found - {tablepanel.__name__} - sys.stdlib_module_names)}
    assert not foreign, f"imports outside the standard library: {foreign}"


def _package_imports(tree: ast.AST) -> set[str]:
    """The package modules that ``tree`` imports relatively, function-level and
    ``TYPE_CHECKING`` ones included; ``from . import x`` names ``__init__``."""
    return {node.module or "__init__" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level}


def test_package_imports_form_no_cycle():
    graph = {path.stem: _package_imports(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(PACKAGE.glob("*.py"))}
    try:
        list(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {exc.args[1]}") from None
