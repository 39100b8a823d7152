"""``series`` stays an independent model of the cycle series: it imports no
private name from ``cycles`` and never reads a cycle's stored numerators
or denominator, so it reaches the ring only through public ``Cycle``
operations and ``pontryagin``."""

import ast
import pathlib

import pontcalc

PACKAGE = pathlib.Path(pontcalc.__file__).parent
TREE = ast.parse((PACKAGE / "series.py").read_text())


def test_series_imports_no_private_cycles_name():
    imported = [
        alias.name
        for node in ast.walk(TREE)
        if isinstance(node, ast.ImportFrom) and node.module == "cycles"
        for alias in node.names
    ]
    assert imported and not [name for name in imported if name.startswith("_")]
    # nor through a module object, such as `cycles._power_sum`
    assert not [node for node in ast.walk(TREE) if isinstance(node, ast.Attribute) and node.attr.startswith("_")]


def test_series_never_reads_num_or_den():
    attrs = {node.attr for node in ast.walk(TREE) if isinstance(node, ast.Attribute)}
    assert attrs & {"num", "den"} == set()


def test_poly_compose_multiplies_through_poly_mul():
    defs = {node.name: node for node in TREE.body if isinstance(node, ast.FunctionDef)}
    assert [name for name in defs if "mul" in name] == ["poly_mul"]
    calls = {
        node.func.id
        for node in ast.walk(defs["poly_compose"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "poly_mul" in calls


def test_point_evaluator_convolves_nothing():
    defs = {node.name: node for node in TREE.body if isinstance(node, ast.FunctionDef)}
    names = {node.id for node in ast.walk(defs["poly_eval_at_point"]) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(defs["poly_eval_at_point"]) if isinstance(node, ast.Attribute)}
    assert "pontryagin" not in names | attrs
