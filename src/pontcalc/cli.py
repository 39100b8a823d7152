"""Command-line entry point for all verifications.

Every subcommand emits a reproducible JSON run report: identical argv and
seed produce byte-identical reports except for the wall-time field.  Exit
codes are CI-oriented:

    0  pass
    1  usage or input error
    2  inconclusive (a cap was exhausted; not a refutation)
    3  counterexample finding (a witnessed violation; for checks of proven
       facts this demands human review)

Randomized subcommands take ``--seed`` (default 0).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import random
import sys
import time
from fractions import Fraction

from . import bounds as bounds_mod
from .cycles import (
    Cycle,
    GroupPoint,
    RingContext,
    SupportCapExceeded,
    exp_cycle,
    format_rational,
    gamma,
    gamma_factorization,
    log_cycle,
    pontryagin,
    star_power,
)
from .kernels import derivative_oracle, kernel_table
from .relations import (
    NotFoundWithinCaps,
    alpha_coefficients,
    check_recursion_identity,
    verify_relation,
)
from .series import exp_after_log, poly_eval_at_cycle
from .tangent import (
    DimensionMismatch,
    PreconditionViolated,
    check_condition_doublestar,
    check_condition_star,
    mu_generic_rank,
    pair_lemma_check,
    parse_doublestar_file,
    parse_star_file,
    random_admissible_pair,
    search_max_total_dimension,
)

REPORT_VERSION = 1

USAGE_ERROR = 1
# every subcommand returns (verdict, witness); the exit code follows from the verdict
EXIT_CODES = {"pass": 0, "inconclusive": 2, "fail": 3}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the report contract reserves 2
    # for inconclusive runs, so usage errors are remapped to 1, and printed
    # as the one line every other usage error is.
    def error(self, message):
        self.exit(USAGE_ERROR, f"pontcalc: error: {message}\n")


def _emit_report(args, subcommand: str, verdict: str, witness, wall_time: float, table):
    parameters = {
        key: value
        for key, value in sorted(vars(args).items())
        if key not in ("func", "report") and not key.startswith("_")
    }
    report = {
        "report_version": REPORT_VERSION,
        "subcommand": subcommand,
        "parameters": parameters,
        "verdict": verdict,
        "witness": witness,
        "exact_arithmetic": True,
        "wall_time_s": round(wall_time, 6),
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    dest = getattr(args, "report", None)
    with open(dest, "w") if dest else contextlib.nullcontext(sys.stdout) as fh:
        sys.stdout.write(table.getvalue())
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_identities(args):
    kmax, dmax = args.kmax, args.dmax if args.dmax is not None else args.kmax
    values = kernel_table(kmax, dmax)
    header = "k\\d\t" + "\t".join(str(d) for d in range(dmax + 1))
    lines = [header]
    by_k: dict[int, list] = {}
    for v in values:
        by_k.setdefault(v.k, []).append(v)
    for k in range(1, kmax + 1):
        row = [format_rational(Fraction(v.value)) for v in by_k[k]]
        lines.append(f"{k}\t" + "\t".join(row))
    print("\n".join(lines))

    problems = []
    for v in values:
        if 1 <= v.d < v.k and v.value != 0:
            problems.append({"k": v.k, "d": v.d, "value": str(v.value), "expected": "0"})
        if v.d == v.k:
            fact = math.factorial(v.k)
            if v.value != fact:
                problems.append({"k": v.k, "d": v.d, "value": str(v.value), "expected": str(fact)})
        if v.d <= v.k:
            # structural agreement with the derivative path: both vanish
            # below the diagonal and coincide at d = k
            oracle = derivative_oracle(v.k, v.d)
            if v.d == v.k and oracle != v.value:
                problems.append({"k": v.k, "d": v.d, "oracle": str(oracle)})
            if 1 <= v.d < v.k and oracle != 0:
                problems.append({"k": v.k, "d": v.d, "oracle": str(oracle)})
    witness = {"kmax": kmax, "dmax": dmax, "checked": len(values), "problems": problems}
    return ("fail" if problems else "pass"), witness


def _threshold_row(k: int) -> dict:
    table = bounds_mod.thresholds(k)
    return {
        "k": k,
        "g_gonality": table.g_gonality,
        "g_orbit_all": table.g_orbit_all,
        "g_orbit_weierstrass": table.g_orbit_weierstrass,
        "g_orbit_countable": table.g_orbit_countable,
        "induction_G": list(table.induction_G),
        "conjectured_gonality_threshold": {
            "value": bounds_mod.conjectured_gonality_threshold(k),
            "status": "conjecture",
        },
    }


def _cmd_thresholds(args):
    if (args.k is None) == (args.g is None):
        raise ValueError("exactly one of --k or --g is required")
    if args.k is not None:
        row = _threshold_row(args.k)
        if args.format == "json":
            print(json.dumps(row, indent=2, sort_keys=True))
        else:
            keys = ["k", "g_gonality", "g_orbit_all", "g_orbit_weierstrass", "g_orbit_countable"]
            print("\t".join(keys))
            print("\t".join(str(row[key]) for key in keys))
            print("induction_G\t" + "\t".join(str(x) for x in row["induction_G"]))
            print(f"conjectured_gonality_threshold (conjecture, unproven)\t{row['conjectured_gonality_threshold']['value']}")
        return "pass", row
    k = bounds_mod.max_proven_gonality(args.g)
    witness = {
        "g": args.g,
        "max_proven_k": k,
        "statement": f"gonality >= {k + 1}",
    }
    if k >= 2:
        witness["threshold_row"] = _threshold_row(k)
    if args.format == "json":
        print(json.dumps(witness, indent=2, sort_keys=True))
    else:
        print("g\tmax_proven_k\tstatement")
        print(f"{args.g}\t{k}\tgonality >= {k + 1}")
    return "pass", witness


def _cmd_verify_relation(args):
    try:
        cert = verify_relation(args.k, args.g, j_max=args.jmax, cap=args.cap, method=args.method)
    except NotFoundWithinCaps as exc:
        witness = {
            "caps_tried": exc.caps_tried,
            "j_max": exc.j_max,
            "note": "inconclusive: absence of a certificate at these caps is not a refutation",
        }
        return "inconclusive", witness
    with open(args.out, "w") as fh:
        cert.write_json(fh)
    witness = {
        "certificate_path": args.out,
        "generator_terms": len(cert.generators),
        "nilpotent_terms": len(cert.nilpotent_part),
        "pushforward_indices": cert.pushforward_indices(),
        "max_multiplier_height": cert.max_multiplier_height(),
        "re_verified_by_expansion": True,
    }
    return "pass", witness


def _cmd_alpha(args):
    matrix = alpha_coefficients(args.k)
    for l in range(args.k + 1):
        print(f"{l}\t" + "\t".join(format_rational(c) for c in matrix.row(l)))
    witness = {
        "k": args.k,
        "rows": [[format_rational(c) for c in matrix.row(l)] for l in range(args.k + 1)],
        "zero_entries": [list(z) for z in matrix.zero_entries],
    }
    return ("fail" if matrix.zero_entries else "pass"), witness


def _cmd_recursion_check(args):
    if args.k < 2:
        raise ValueError("--k must be at least 2")
    results = {}
    ok = True
    for l in range(1, args.k):
        holds = check_recursion_identity(args.k, l)
        results[str(l)] = holds
        ok = ok and holds
    witness = {"k": args.k, "results": results}
    return ("pass" if ok else "fail"), witness


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _cmd_check_star(args):
    k, n, V = parse_star_file(_read_text(args.file))
    outcome = check_condition_star(V, n, k)
    if outcome is True:
        return "pass", {"k": k, "n": n, "dim": V.dim, "violation": None}
    witness = {
        "k": k,
        "n": n,
        "dim": V.dim,
        "violation": {
            "degree": outcome.degree,
            "basis_indices": list(outcome.basis_indices),
            "multi_index": list(outcome.multi_index),
            "value": format_rational(outcome.value),
        },
    }
    return "fail", witness


def _cmd_check_doublestar(args):
    k, n, spaces = parse_doublestar_file(_read_text(args.file))
    outcome = check_condition_doublestar(spaces)
    dims = [sp.dim for sp in spaces]
    if outcome is True:
        return "pass", {"k": k, "n": n, "dims": dims, "violation": None}
    witness = {
        "k": k,
        "n": n,
        "dims": dims,
        "violation": {
            "components": list(outcome.components),
            "basis_rows": list(outcome.basis_rows),
            "value": format_rational(outcome.value),
        },
    }
    return "fail", witness


def _pair_from_args(args):
    if args.file:
        k, n, spaces = parse_doublestar_file(_read_text(args.file))
        if n != 2 or len(spaces) != 2:
            raise ValueError("pair input file must declare exactly 2 blocks")
        return spaces[0], spaces[1]
    if args.k is None:
        raise ValueError("either --file or --k (random pair) is required")
    return random_admissible_pair(args.k, args.seed)


def _cmd_pair_lemma(args):
    A, B = _pair_from_args(args)
    lhs, rhs, ok = pair_lemma_check(A, B)
    witness = {
        "lhs_dim_product_plus_sum": lhs,
        "rhs_dim_a_plus_dim_b": rhs,
        "ok": ok,
        "A": [[format_rational(x) for x in row] for row in A.rows()],
        "B": [[format_rational(x) for x in row] for row in B.rows()],
    }
    return ("pass" if ok else "fail"), witness


def _cmd_mu_rank(args):
    A, B = _pair_from_args(args)
    rank = mu_generic_rank(A, B, seed=args.seed, samples=args.samples)
    expected = A.dim + B.dim
    witness = {"rank": rank, "expected": expected, "samples": args.samples}
    if rank == expected:
        return "pass", witness
    witness["note"] = "sampled points may have missed the generic locus"
    return "inconclusive", witness


def _cmd_search(args):
    result = search_max_total_dimension(args.k, args.n, budget=args.budget, seed=args.seed)
    witness = {
        "best_sum": result.best_sum,
        "bound": result.bound,
        "evaluations": result.evaluations,
        "nonzero_components": result.nonzero_components,
        "best_config": result.best_config,
    }
    if not result.within_bound:
        artifact = args.artifact or "search_counterexample.json"
        with open(artifact, "w") as fh:
            json.dump(
                {"k": args.k, "n": args.n, "config": result.counterexample},
                fh,
                indent=2,
                sort_keys=True,
            )
            fh.write("\n")
        witness["counterexample_artifact"] = artifact
        return "fail", witness
    return "pass", witness


def _cmd_gamma_check(args):
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    rng = random.Random(args.seed)
    g = args.g
    ctx = RingContext(rank=args.rank, geom_dim=g, support_cap=1_000_000)
    failures = []
    # the univariate model of exp after log, 1 + T up to order g + 1, once per run
    composite = exp_after_log(g)
    if any(composite[j] != (1 if j <= 1 else 0) for j in range(0, g + 2)):
        failures.append({"check": "exp_log_series", "g": g})
    checked = 0
    for _ in range(args.trials):
        coords = [rng.randint(-2, 2) for _ in range(args.rank)]
        if all(c == 0 for c in coords):
            coords[0] = 1
        x = GroupPoint(coords)
        gamma_x = gamma(x, ctx)
        if gamma_x != -log_cycle(Cycle.point(x), ctx):
            failures.append({"check": "gamma_vs_log", "point": coords})
        u = Cycle.point(x) - Cycle.unit(ctx.rank)
        w = gamma_factorization(x, ctx)
        if gamma_x != -pontryagin(u, w, ctx):
            failures.append({"check": "factorization", "point": coords})
        for kk in range(2, args.kmax + 1):
            lhs = star_power(gamma_x, kk, ctx)
            rhs = pontryagin(star_power(u, kk, ctx), star_power(w, kk, ctx), ctx)
            if lhs != rhs.scale(Fraction((-1) ** kk)):
                failures.append({"check": "power_factorization", "point": coords, "k": kk})
        # exp/log composition agrees with its univariate polynomial model
        if exp_cycle(log_cycle(Cycle.point(x), ctx), ctx) != poly_eval_at_cycle(composite, u, ctx):
            failures.append({"check": "exp_log_model", "point": coords})
        checked += 1
    witness = {"trials": checked, "g": g, "rank": args.rank, "failures": failures}
    return ("fail" if failures else "pass"), witness


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="pontcalc", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("identities", help="exact (k,d) kernel table with cross-checks")
    p.add_argument("--kmax", type=int, default=12)
    p.add_argument("--dmax", type=int, default=None)
    p.add_argument("--report", default=None, help="write the run report to this path")
    p.set_defaults(func=_cmd_identities)

    p = sub.add_parser("thresholds", help="dimension thresholds for a degree, or the inverse lookup")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--format", choices=("tsv", "json"), default="tsv")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_thresholds)

    p = sub.add_parser("verify-relation", help="produce a re-verified membership certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--jmax", type=int, default=None)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--method", choices=("auto", "newton", "window"), default="auto")
    p.add_argument("--out", default="cert.json", help="certificate output path")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_verify_relation)

    p = sub.add_parser("alpha", help="exact coefficients of the substituted recursion")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("recursion-check", help="free-ring check of the inductive relation")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_recursion_check)

    p = sub.add_parser("check-star", help="condition (*) on a subspace file")
    p.add_argument("--file", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_check_star)

    p = sub.add_parser("check-doublestar", help="condition (**) on a configuration file")
    p.add_argument("--file", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_check_doublestar)

    p = sub.add_parser("pair-lemma", help="span inequality dim(A.B+A+B) >= dim A + dim B")
    p.add_argument("--file", default=None, help="two-block configuration file")
    p.add_argument("--k", type=int, default=None, help="sample a random admissible pair in Q^k")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_pair_lemma)

    p = sub.add_parser("mu-rank", help="generic rank of the multiplication differential")
    p.add_argument("--file", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=4)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_mu_rank)

    p = sub.add_parser("search", help="budgeted search for max total dimension under (**)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--artifact", default=None, help="counterexample artifact path")
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("gamma-check", help="gamma/log/exp identity battery")
    p.add_argument("--g", type=int, default=3)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--kmax", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_gamma_check)

    return parser


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift Python's limit on int <-> str conversion (3.10.7 and later) for
    the duration: exact values may have any number of digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def main(argv=None) -> int:
    with _unlimited_int_digits():
        parser = _build_parser()
        args = parser.parse_args(argv)
        start = time.perf_counter()
        # a subcommand's table is printed only once its report destination is open
        table = io.StringIO()
        try:
            try:
                with contextlib.redirect_stdout(table):
                    verdict, witness = args.func(args)
            except SupportCapExceeded as exc:
                verdict, witness = "inconclusive", {"error": "support cap exceeded", "detail": str(exc)}
            _emit_report(args, args.subcommand, verdict, witness, time.perf_counter() - start, table)
        except (ValueError, DimensionMismatch, PreconditionViolated, OSError) as exc:
            print(f"pontcalc: error: {exc}", file=sys.stderr)
            return USAGE_ERROR
        return EXIT_CODES[verdict]


if __name__ == "__main__":
    sys.exit(main())
