"""Every module of the package uses each name it imports, imports only
the standard library and its own modules, and holds no ``assert``.
Two decisions have one owner: ``LaurentPoly.partials`` is the only reader
of ``deriv``, and ``flows`` imports no ``halfspace``.

``rbkit/__init__.py`` is left out of the first check: its imports are the
package's re-exports.  A name counts as used when it is read anywhere in
the module, in a quoted annotation too.  The run time stays stdlib-only, so
every absolute import of every module, ``__init__.py`` included, must name
a module of ``sys.stdlib_module_names``.  The in-library cross-checks
raise ``AssertionError`` themselves, so they also run under ``python -O``,
which drops every ``assert`` statement.
"""

import ast
import pathlib
import sys

import pytest

import rbkit

PACKAGE = pathlib.Path(rbkit.__file__).resolve().parent
SOURCES = sorted(p.name for p in PACKAGE.glob("*.py"))
MODULES = [name for name in SOURCES if name != "__init__.py"]


def imported_names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def read_names(tree) -> set:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    nodes = list(ast.walk(tree))
    annotations = [n.annotation for n in nodes if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in nodes if isinstance(n, ast.FunctionDef)]
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= read_names(ast.parse(node.value, mode="eval"))  # a quoted annotation
    return names


def test_every_module_is_checked():
    assert {"cli.py", "exterior.py", "flows.py", "halfspace.py", "ratlaurent.py",
            "solitons.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert sorted(imported_names(tree) - read_names(tree)) == []


def absolute_imports(tree) -> set:
    """The top-level modules a module imports by absolute name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.partition(".")[0])
    return names


def test_absolute_imports_are_read_from_every_import_form():
    source = "import numpy.linalg as la\nimport os, json\nfrom sympy import S\nfrom . import errors\nfrom .flows import x\n"
    assert absolute_imports(ast.parse(source)) == {"numpy", "os", "json", "sympy"}


@pytest.mark.parametrize("module", SOURCES)
def test_module_imports_only_the_standard_library(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert sorted(absolute_imports(tree) - sys.stdlib_module_names) == []


@pytest.mark.parametrize("module", SOURCES)
def test_module_holds_no_assert_statement(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)] == []


def test_deriv_is_read_only_by_partials():
    # every first derivative of the package goes through the one cached tuple of partials
    inside, outside = [], []
    for module in SOURCES:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        owner = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "LaurentPoly":
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and method.name == "partials":
                        owner.update(map(id, ast.walk(method)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "deriv":
                (inside if id(node) in owner else outside).append(f"{module}:{node.lineno}")
    assert len(inside) == 1 and outside == []


def imported_module_parts(tree) -> set:
    """Each dotted part of every module an import statement may load or bind."""
    parts = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{a.name}" for a in node.names]
        else:
            continue
        for name in names:
            parts.update(name.split("."))
    return parts


def test_flows_imports_no_halfspace():
    spellings = ("from . import halfspace", "from .halfspace import flat", "import rbkit.halfspace",
                 "from rbkit import halfspace as h")
    assert all("halfspace" in imported_module_parts(ast.parse(source)) for source in spellings)
    tree = ast.parse((PACKAGE / "flows.py").read_text(encoding="utf-8"))
    assert "halfspace" not in imported_module_parts(tree)
