"""Spans around the calls into each pontcalc layer, recorded from outside.

``Tracer.install`` wraps the public functions listed in ``TRACED`` and
rebinds every name in every loaded ``pontcalc`` module that refers to the
original, so calls made through an imported name (``relations.solve_columns``,
``tangent.rref``, ``cli.verify_relation``) and calls inside the defining
module (``cycles.star_power`` -> ``cycles.pontryagin``) are all seen.
``uninstall`` puts the originals back.  Nothing under ``src/`` is edited.

Each span is ``[name, start, end, parent, job, outer_end, ok]``.  Counts are
taken from public arguments and results after ``end`` is read, and
``outer_end`` marks when that counting finished, so a parent's self time
excludes both its children and the counting done for them.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TRACED = {
    "linalg": ("solve_columns", "rref", "exact_rank", "int_rank", "nullspace", "det"),
    "relations": ("verify_relation", "verify_certificate"),
    "tangent": (
        "pair_lemma_check",
        "random_admissible_pair",
        "check_condition_star",
        "check_condition_doublestar",
        "mu_generic_rank",
        "search_max_total_dimension",
    ),
    "cycles": ("pontryagin", "star_power"),
    "series": ("poly_eval_at_cycle", "exp_after_log"),
    "kernels": ("kernel_table", "derivative_oracle"),
    "cli": ("main",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_pontryagin(counts, args, kwargs, result):
    c1, c2 = _arg(args, kwargs, 0, "c1"), _arg(args, kwargs, 1, "c2")
    counts["cycles.pontryagin.pairs"] += c1.support_size() * c2.support_size()
    counts["cycles.max_support"] = max(counts["cycles.max_support"], result.support_size())


def _count_solve_columns(counts, args, kwargs, result):
    columns, target = _arg(args, kwargs, 0, "columns"), _arg(args, kwargs, 1, "target")
    counts["linalg.solve_columns.cells"] += len(columns) * len(target)
    counts["linalg.solve_columns.nnz"] += sum(1 for col in columns for x in col if x)


def _count_search(counts, args, kwargs, result):
    counts["tangent.search.evals"] += result.evaluations


COUNTERS = {
    "cycles.pontryagin": _count_pontryagin,
    "linalg.solve_columns": _count_solve_columns,
    "tangent.search_max_total_dimension": _count_search,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0.0, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = span[5] = clock()
                stack.pop()
            span[6] = True
            if count is not None:
                count(counts, args, kwargs, result)
                span[5] = clock()
            return result

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "pontcalc" or n.startswith("pontcalc.")]
        for short, names in TRACED.items():
            home = sys.modules[f"pontcalc.{short}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def summary(self) -> dict[str, float]:
        """Per-layer figures: ``<module>.<function>.calls`` and ``.self_s``
        for every traced function, the counters, and the window-solver
        ratios derived from the span tree."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, job, outer_end, ok in self.spans:
            if parent >= 0:
                child_time[parent] += outer_end - start
        out: dict[str, float] = {}
        for short, names in TRACED.items():
            for fname in names:
                out[f"{short}.{fname}.calls"] = 0
                out[f"{short}.{fname}.self_s"] = 0.0
        inclusive = defaultdict(float)
        for i, (name, start, end, parent, job, outer_end, ok) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[i]
            inclusive[name] += end - start
        out.update(self.counts)
        for key in ("cycles.pontryagin.pairs", "cycles.max_support", "linalg.solve_columns.cells",
                    "linalg.solve_columns.nnz", "tangent.search.evals"):
            out.setdefault(key, 0)
        search_s = inclusive["tangent.search_max_total_dimension"]
        out["tangent.search.evals_per_s"] = out["tangent.search.evals"] / search_s if search_s else 0.0

        # A solve_columns call under verify_relation is one window solve; a
        # verify_relation that returned after at least one is a window
        # certificate.
        solves = 0
        window_relations = set()
        for name, start, end, parent, job, outer_end, ok in self.spans:
            if name != "linalg.solve_columns":
                continue
            while parent >= 0 and self.spans[parent][0] != "relations.verify_relation":
                parent = self.spans[parent][3]
            if parent >= 0:
                solves += 1
                window_relations.add(parent)
        window_certs = sum(1 for i in window_relations if self.spans[i][6])
        out["relations.window.solves"] = solves
        out["relations.window.certificates"] = window_certs
        out["relations.window.useful_ratio"] = window_certs / solves if solves else 0.0
        return out
