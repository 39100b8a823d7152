"""pontcalc has one indent-2 JSON writer, ``cycles.json_text``: reports,
the search artifact and certificates all go through it.  ``json.dumps``
is left only in ``Cycle.to_json``, the compact one-line form, and no call
in the package passes ``indent=``."""

import ast
import pathlib

import pontcalc

PACKAGE = pathlib.Path(pontcalc.__file__).parent


def nodes_by_scope(tree, scope=""):
    """(qualified name of the enclosing function or class, node) for every
    node under ``tree``."""
    for node in ast.iter_child_nodes(tree):
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from nodes_by_scope(node, f"{scope}.{node.name}" if scope else node.name)
        else:
            yield from nodes_by_scope(node, scope)


def package_nodes():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        for scope, node in nodes_by_scope(ast.parse(path.read_text())):
            yield path.name, scope, node


def test_json_dumps_only_in_cycle_to_json():
    # any mention counts, so that an alias such as `dump = json.dumps` is caught
    dumps = [
        (name, scope)
        for name, scope, node in package_nodes()
        if (isinstance(node, ast.Attribute) and node.attr == "dumps")
        or (isinstance(node, ast.ImportFrom) and any(alias.name == "dumps" for alias in node.names))
    ]
    assert dumps == [("cycles.py", "Cycle.to_json")]


def test_no_call_passes_indent():
    assert [
        (name, scope)
        for name, scope, node in package_nodes()
        if isinstance(node, ast.Call) and any(keyword.arg == "indent" for keyword in node.keywords)
    ] == []
