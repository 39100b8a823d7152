"""Only ``cycles`` reads packed point keys: ``relations`` imports none of the
key layout's names, and its orbit proof reads multipliers through
``cycles.orbit_forms`` as (a_1, *sorted tail) tuples."""

import ast
import pathlib

import pontcalc

PACKAGE = pathlib.Path(pontcalc.__file__).parent
KEY_LAYOUT = {"_B", "_HALF", "_MASK", "_key", "_points"}


def test_relations_uses_no_key_layout_name():
    tree = ast.parse((PACKAGE / "relations.py").read_text())
    # an import, a bare name or an attribute such as `cycles._key` counts
    used = {
        name
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else []
        )
    }
    assert used & KEY_LAYOUT == set()
    assert "orbit_forms" in used
