"""Points are int tuples: no module of the package names a ``GroupPoint``
class, and the package exports none, so cycles take and give one point
form."""

import ast
import pathlib
import re

import pontcalc

PACKAGE = pathlib.Path(pontcalc.__file__).parent


def names(tree):
    """Every identifier a module defines, imports or reads, and every word
    of its string constants."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (name for alias in node.names for name in (alias.name, alias.asname))
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from re.findall(r"\w+", node.value)


def test_no_module_names_a_point_class():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        assert "GroupPoint" not in set(names(ast.parse(path.read_text()))), path.name
    assert not hasattr(pontcalc, "GroupPoint")
