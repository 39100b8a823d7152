"""Every benchmark workload still passes its known answers with the same bytes.

``bench/run.py`` hashes each job's exit code, report (minus ``wall_time_s``)
and certificate into one digest per workload.  One untimed pass of each
workload at seed 101 must fail no known-answer check and repeat the pinned
digest, so a change to any report or certificate byte fails here, not only
in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

DIGESTS = {
    "window": "69b1d7bad1e68aba61a0a41366f99edbaf74ac3fb20befc59fa00f3ef2afe7b6",
    "convolution": "307efa4b7bffba51221525ac5f1683048b4d506cf6ee9d8068d749bdeaf86988",
    "tangent": "6a7e48cbf8c1295fdf42dbf4dd647a7eb9222632c94cc06f2598a62527a383ba",
}


def _own(name):
    return name.split(".")[0] in ("pontcalc", "tracing", "workloads", "bench_run")


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` loaded by path.  It imports its sibling modules by
    name and re-imports ``pontcalc`` from the checkout, so the modules it
    loads are swapped out again afterwards and the other tests keep theirs."""
    saved = {name: mod for name, mod in sys.modules.items() if _own(name)}
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path.remove(str(BENCH))
        for name in [name for name in sys.modules if _own(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


@pytest.mark.parametrize("workload", list(DIGESTS))
def test_workload_known_answers_and_digest(bench_run, workload):
    run = bench_run.measure(workload, 101, 0, False)
    assert run.failed == 0, run.summary
    assert run.digest == DIGESTS[workload]


def test_window_work_counts(bench_run):
    """One traced ``window`` pass at seed 101 builds and proves its six
    certificates with no convolution: the nilpotent multiplier is a table in
    closed form, and every certificate is proved on orbit sums."""
    run = bench_run.measure("window", 101, 0, True)
    assert run.failed == 0, run.summary
    assert run.values["cycles.pontryagin.calls"] == 0
    assert run.values["cycles.star_power.calls"] == 0
    assert run.values["relations.verify_certificate.calls"] == run.values["relations.certificates"] == 6


def test_convolution_work_counts(bench_run):
    """One traced ``convolution`` pass at seed 101 does the pinned amount of
    convolution work, so a change to the cycle core that does more or less
    of it fails here, whatever it does to the time."""
    run = bench_run.measure("convolution", 101, 0, True)
    assert run.failed == 0, run.summary
    assert run.values["cycles.pontryagin.calls"] == 694
    assert run.values["cycles.pontryagin.pairs"] == 33150
    assert run.values["cycles.max_support"] == 245


def test_tangent_work_counts(bench_run):
    """One traced ``tangent`` pass at seed 101 runs the pinned number of
    exact eliminations, so a change that adds back work its inputs already
    decide (a complement basis no pair uses, a rank of a zero side) fails
    here, whatever it does to the time."""
    run = bench_run.measure("tangent", 101, 0, True)
    assert run.failed == 0, run.summary
    assert run.values["linalg.nullspace.calls"] == 735
    assert run.values["linalg.rref.calls"] == 742
    assert run.values["linalg.int_rank.calls"] == 3298
    assert run.values["linalg.det.calls"] == 2740
