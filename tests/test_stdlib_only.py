"""pontcalc has no runtime dependencies: every module imports only the
standard library and its own package."""

import ast
import pathlib
import sys

import pontcalc

PACKAGE = pathlib.Path(pontcalc.__file__).parent


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_stdlib_or_pontcalc():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    foreign = [
        (path.name, name)
        for path in modules
        for name in imported_modules(ast.parse(path.read_text()))
        if name.split(".")[0] not in sys.stdlib_module_names | {"pontcalc"}
    ]
    assert foreign == []
