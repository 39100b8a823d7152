"""The benchmark's exact counts repeat across two runs with the same seed.

    python3 -m pytest bench/test_determinism.py

Each case makes two traced runs of one workload in this process (about a
minute and a half for the three cases on a 2-CPU machine).  Times differ between runs; the counts
below, the certificate and report bytes, and the digest of all reports
must not.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import BUILDERS  # noqa: E402

EXACT = (
    "cycles.pontryagin.pairs",
    "linalg.solve_columns.cells",
    "linalg.solve_columns.nnz",
    "tangent.search.evals",
    "relations.verify_certificate.calls",
    "cli.cert_bytes",
    "cli.report_bytes",
)


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_exact_counts_repeat(workload):
    first = run.measure(workload, seed=7, seconds=0, trace=True)
    second = run.measure(workload, seed=7, seconds=0, trace=True)
    assert first.failed == second.failed == 0, first.summary + second.summary
    assert first.digest == second.digest
    for name in EXACT:
        assert first.values[name] == second.values[name], name

    bypassed = {"convolution": "linalg.", "tangent": "cycles."}.get(workload)
    if bypassed:
        assert not any(v for k, v in first.values.items() if k.startswith(bypassed) and k.endswith(".calls"))

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(first.values)
