"""pontcalc benchmark: verification jobs run through ``pontcalc.cli.main``.

    python3 bench/run.py --workload {window,convolution,tangent} \
        --seed N --seconds S --trace {0,1}

Run from a source checkout; ``src/pontcalc`` is imported from it.  The load
is a closed loop with one client: one process, no threads, and the next job
starts only after the previous one has returned its verdict.  Reports are
read from the captured stdout; certificates and input files live in a
scratch directory under ``.bench_work/`` inside the checkout, which is
removed at the end.

``--trace 0`` times whole passes over the workload's job list for about
``--seconds`` and reports the end-to-end metrics.  Times are scaled to a
reference machine speed (see ``Speed``); the raw wall times go to stderr.  ``--trace 1`` runs one
untraced pass and one traced pass, requires their reports and certificates
to be byte-identical, and reports the per-layer metrics.  Every outcome is
checked against its known answer (see ``workloads.py``) outside the timed
spans.  The last line of stdout is the JSON result; a summary goes to
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from tracing import Tracer
from workloads import BUILDERS, WARMUP, check_output

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-up is repeated this many times before each pass, so that its median
# samples the machine at as many moments of the run as the passes do.
SETUPS = 3
# The speed reference is re-measured after at least this much job time.
REF_EVERY_S = 0.1
# Nominal duration of the reference loop: scaled times are the seconds the
# work would take on a machine where the loop takes exactly this long.
REF_NOMINAL_S = 0.0012
_WALL_TIME = re.compile(r'^  "wall_time_s": .*\n', re.MULTILINE)


def reference_s() -> float:
    """Best of three timings of a fixed pure-Python Fraction loop (about
    1.2 ms each on a 2.1 GHz Xeon).  The collector is off and the best run is kept, so the
    figure tracks the machine's speed rather than one-off interruptions."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            acc = Fraction(0)
            for i in range(1, 400):
                acc += Fraction(i, i + 1)
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        gc.enable()


class Speed:
    """Scales wall times to the reference speed.

    On a shared machine the speed of the CPU drifts by tens of percent over
    seconds.  Each stretch of work is bracketed by two runs of
    ``reference_s`` and multiplied by ``REF_NOMINAL_S`` over their mean.
    This removes most of the drift from the reported times, while a change
    in the work itself, which leaves the reference loop alone, shows in full.
    """

    def __init__(self):
        self._last = reference_s()

    def scale(self, walls: list[float]) -> list[float]:
        now = reference_s()
        factor = REF_NOMINAL_S / ((self._last + now) / 2)
        self._last = now
        return [w * factor for w in walls]


@dataclass
class Pass:
    batch_s: float = 0.0
    wall_s: float = 0.0
    # per-job times scaled to the reference speed
    job_s: list[float] = field(default_factory=list)
    codes: list = field(default_factory=list)
    # stdout before the report (tables), and the report without its
    # wall_time_s line, the only field allowed to differ between runs
    stdouts: list[str] = field(default_factory=list)
    reports: list = field(default_factory=list)
    certs: list = field(default_factory=list)
    # per job: outcome identical to the first pass's
    same: list[bool] = field(default_factory=list)

    def outcome(self, i: int):
        return self.codes[i], self.reports[i], self.stdouts[i], self.certs[i]

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.codes)):
            for part in (str(self.codes[i]).encode(), self.reports[i] or b"", self.certs[i] or b""):
                h.update(len(part).to_bytes(8, "little") + part)
        return h.hexdigest()


def import_pontcalc():
    """Import ``pontcalc.cli`` afresh from this checkout's ``src``."""
    for name in [n for n in sys.modules if n == "pontcalc" or n.startswith("pontcalc.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("pontcalc.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: pontcalc was imported from {cli.__file__}, not from {SRC}")


def run_job(argv):
    """Exit code and captured stdout of one in-process CLI run.  An
    exception is a failed job: its code is None and the exception text
    stands in place of the stdout."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = sys.modules["pontcalc.cli"].main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - any exception is a job failure
        return None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def _take(path: str | None):
    if path is None or not os.path.exists(path):
        return None
    data = Path(path).read_bytes()
    os.unlink(path)
    return data


def split_report(stdout: str):
    """(text before the report, report bytes without wall_time_s).  The
    report is the last line ``{`` at column 0 and everything after it."""
    start = 0 if stdout.startswith("{\n") else stdout.rfind("\n{\n") + 1
    if start == 0 and not stdout.startswith("{\n"):
        return stdout, None
    return stdout[:start], _WALL_TIME.sub("", stdout[start:]).encode()


def run_pass(jobs, tracer: Tracer | None = None) -> Pass:
    """Run the job list once.  ``batch_s`` is the sum of the scaled job
    times, ``wall_s`` that of the raw ones; reference runs and reading the
    outputs back lie outside both."""
    gc.collect()
    clock = time.perf_counter
    result = Pass()
    speed = Speed()
    stretch: list[float] = []
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t = clock()
        code, out = run_job(job.argv)
        stretch.append(clock() - t)
        result.codes.append(code)
        text, report = split_report(out)
        result.stdouts.append(text)
        result.reports.append(report)
        if sum(stretch) >= REF_EVERY_S or i == len(jobs) - 1:
            result.job_s += speed.scale(stretch)
            result.wall_s += sum(stretch)
            stretch = []
    result.batch_s = sum(result.job_s)
    result.certs = [_take(job.cert) for job in jobs]
    return result


def setup(workload: str, seed: int, workdir: Path):
    """Import pontcalc, generate the seeded inputs and run one warm-up job;
    returns the jobs and the wall time taken.  Writing the input files is
    left out of the time: it is the benchmark's own I/O, and the speed of
    file creation on a shared disk varies twentyfold over minutes."""
    for path in workdir.iterdir():
        path.unlink()
    start = time.perf_counter()
    import_pontcalc()
    jobs, files = BUILDERS[workload](seed)
    code, out = run_job(WARMUP[workload])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"bench: warm-up job failed with exit {code}: {out[-500:]}")
    for name, text in files.items():
        (workdir / name).write_text(text)
    return jobs, elapsed


def known_answer_problems(jobs, first: Pass) -> list[str | None]:
    problems = []
    for i, job in enumerate(jobs):
        try:
            problems.append(check_output(job, *first.outcome(i)))
        except Exception as exc:  # noqa: BLE001 - a malformed output is a failure
            problems.append(f"{type(exc).__name__}: {exc}")
    return problems


def compare(first: Pass, later: Pass, keep: bool = False):
    """Record which of ``later``'s outcomes equal ``first``'s; unless
    ``keep``, drop its outputs so memory does not grow with the passes."""
    later.same = [first.outcome(i) == later.outcome(i) for i in range(len(first.codes))]
    if not keep:
        later.stdouts, later.reports, later.certs = [], [], []


def percentile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def timed_runs(workload: str, seed: int, workdir: Path, seconds: float):
    """Set-ups and whole passes while the next round is expected to end
    within ``seconds``."""
    setups: list[tuple[float, float]] = []  # (scaled, wall)
    passes: list[Pass] = []
    spent = 0.0
    while not passes or spent + spent / len(passes) <= seconds:
        t = time.perf_counter()
        for _ in range(SETUPS):
            speed = Speed()
            jobs, elapsed = setup(workload, seed, workdir)
            setups.append((speed.scale([elapsed])[0], elapsed))
        passes.append(run_pass(jobs))
        if len(passes) > 1:
            compare(passes[0], passes[-1])
        spent += time.perf_counter() - t
    return jobs, setups, passes


def layer_metrics(tracer: Tracer, untraced: Pass, traced: Pass) -> dict[str, float]:
    out = tracer.summary()
    out["relations.certificates"] = sum(1 for c in traced.certs if c is not None)
    out["cli.cert_bytes"] = sum(len(c) for c in traced.certs if c is not None)
    out["cli.report_bytes"] = sum(len(r) for r in traced.reports if r is not None)
    out["trace.spans"] = len(tracer.spans)
    out["trace.batch_s"] = traced.batch_s
    out["trace.overhead_s"] = traced.batch_s - untraced.batch_s
    return out


@contextlib.contextmanager
def workspace():
    """A fresh working directory under ``.bench_work/``, made the current
    directory for the duration and removed afterwards."""
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=parent))
    home = os.getcwd()
    os.chdir(workdir)
    try:
        yield workdir
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


@dataclass
class Run:
    values: dict[str, float]
    attempted: int
    failed: int
    digest: str
    summary: list[str]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    """One benchmark run: set-up, passes, known-answer checks, metrics."""
    os.environ.pop("CYCLES_MAX_CAP", None)
    with workspace() as workdir:
        if trace:
            jobs, _ = setup(workload, seed, workdir)
            first = run_pass(jobs)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(jobs, tracer)
            finally:
                tracer.uninstall()
            compare(first, traced, keep=True)
            passes = [first, traced]
        else:
            jobs, setups, passes = timed_runs(workload, seed, workdir, seconds)
            first = passes[0]
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems = known_answer_problems(jobs, first)

    summary = [f"FAILED {' '.join(job.argv)}: {p}" for job, p in zip(jobs, problems) if p]
    failed = len(summary)
    for later in passes[1:]:
        failed += sum(1 for p, same in zip(problems, later.same) if p or not same)
    if trace:
        values = layer_metrics(tracer, first, traced)
        if values["relations.verify_certificate.calls"] != values["relations.certificates"]:
            summary.append("FAILED: verify_certificate calls differ from certificates returned")
            failed += 1
    else:
        job_s = [t for p in passes for t in p.job_s]
        values = {
            "batch_s": statistics.median(p.batch_s for p in passes),
            "verdict_s.p50": statistics.median(job_s),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(scaled for scaled, _ in setups),
        }
        # a tail is reported only where at least ten samples lie beyond it
        p90 = f"verdict_s.p90={percentile(job_s, 90):.6f}" if len(job_s) >= 100 else "verdict_s.p90 omitted"
        summary.append(
            f"{workload}: {len(passes)} passes of {len(jobs)} jobs, {len(job_s)} verdict samples, {p90}"
        )
        summary.append(f"pass batch_s={[round(p.batch_s, 4) for p in passes]}")
        summary.append(f"pass wall_s={[round(p.wall_s, 4) for p in passes]}")
        summary.append(f"setup_s={[round(x, 4) for x, _ in setups]}")
        summary.append(f"setup wall_s={[round(w, 4) for _, w in setups]}")
    return Run(values, len(jobs) * len(passes), failed, first.digest(), summary)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "pontcalc" / "__init__.py").is_file():
        print(f"bench: no pontcalc sources under {SRC}", file=sys.stderr)
        return 1

    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in run.summary + [f"attempted={run.attempted} failed={run.failed} digest={run.digest}"]:
        print(f"bench: {line}", file=sys.stderr)
    for name in sorted(run.values):
        print(f"bench:   {name} = {run.values[name]}", file=sys.stderr)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": run.values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
