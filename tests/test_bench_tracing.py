"""The benchmark tracer still finds everything it wraps and counts.

``bench/tracing.py`` rebinds the functions named in ``TRACED`` and reads
some of their arguments by position and name; a rename or a removal in
``src/`` would otherwise only show as a benchmark that no longer runs.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

from pontcalc.cycles import Cycle
from pontcalc.tangent import SearchResult

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = _load_tracing()
    for short, names in tracing.TRACED.items():
        module = importlib.import_module(f"pontcalc.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"pontcalc.{short}.{name}"
    for key in tracing.COUNTERS:
        short, name = key.split(".")
        assert name in tracing.TRACED[short], key


def test_counted_parameters_exist():
    tracing = _load_tracing()
    expected = {
        "linalg.solve_columns": ["columns", "target"],
        "cycles.pontryagin": ["c1", "c2"],
    }
    for key, params in expected.items():
        short, name = key.split(".")
        fn = getattr(importlib.import_module(f"pontcalc.{short}"), name)
        assert list(inspect.signature(fn).parameters)[: len(params)] == params, key
        assert key in tracing.COUNTERS
    assert callable(Cycle.support_size)
    assert "evaluations" in {f.name for f in dataclasses.fields(SearchResult)}
