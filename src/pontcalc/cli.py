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

Each subcommand's options are declared once, in ``_COMMANDS``.  An argv of
the exact form ``SUB --opt VALUE ...`` is read straight from that table
when every flag is an option string of SUB given once, no value starts
with ``-``, every value converts with its option's type and meets its
choices, and every required option and exactly-one-of group is given.
Every other argv goes to argparse, built from the same table on first
use: it alone prints help and usage errors and reads abbreviated flags
and ``--opt=VALUE``.  Both give the same namespace.  ``pair-lemma`` and
``mu-rank`` take ``--seed`` only with ``--k``; with ``--file`` it is a
usage error.  Reports, the search artifact and certificates are all
written by ``cycles.json_text``'s writer, which gives the bytes of
``json.dumps(value, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import io
import math
import random
import sys
import time
from collections.abc import Callable
from fractions import Fraction

from . import bounds as bounds_mod
from .cycles import (
    Cycle,
    RingContext,
    SupportCapExceeded,
    _ratio,
    exp_cycle,
    format_rational,
    gamma,
    gamma_factorization,
    json_text,
    log_cycle,
    pontryagin,
)
from .kernels import derivative_oracle, kernel_table
from .relations import (
    NotFoundWithinCaps,
    alpha_coefficients,
    check_recursion_identities,
    verify_relation,
)
from .series import exp_after_log, poly_compose, poly_eval_at_point
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
    parameters = {key: value for key, value in sorted(vars(args).items()) if key not in ("func", "report")}
    report = {
        "report_version": REPORT_VERSION,
        "subcommand": subcommand,
        "parameters": parameters,
        "verdict": verdict,
        "witness": witness,
        "exact_arithmetic": True,
        "wall_time_s": round(wall_time, 6),
    }
    text = json_text(report)
    with open(args.report, "w") if args.report else contextlib.nullcontext(sys.stdout) as fh:
        sys.stdout.write(table.getvalue())
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_identities(args):
    if args.dmax is not None and args.dmax < 1:
        raise ValueError("--dmax must be at least 1")
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
    # one derivative row per k; every k has a checked entry, as dmax >= 1
    oracle_rows = {k: derivative_oracle(k) for k in range(1, kmax + 1)}
    for v in values:
        if not 1 <= v.d <= v.k:
            continue
        # the kernel vanishes below the diagonal and is k! on it, and the
        # derivative path agrees with it there
        expected = math.factorial(v.k) if v.d == v.k else 0
        if v.value != expected:
            problems.append({"k": v.k, "d": v.d, "value": str(v.value), "expected": str(expected)})
        oracle = oracle_rows[v.k][v.d]
        if oracle != (v.value if v.d == v.k else 0):
            problems.append({"k": v.k, "d": v.d, "oracle": str(oracle)})
    witness = {"kmax": kmax, "dmax": dmax, "checked": len(values), "problems": problems}
    return ("fail" if problems else "pass"), witness


def _threshold_row(k: int) -> dict:
    row = dataclasses.asdict(bounds_mod.thresholds(k))
    row["conjectured_gonality_threshold"] = {
        "value": bounds_mod.conjectured_gonality_threshold(k),
        "status": "conjecture",
    }
    return row


def _closed_form_verdict(witness: dict, row: dict, *extra):
    """Check ``row`` against G_l = induction_closed_form(k, l): induction_G for
    l = 0..k, and g_gonality, g_orbit_all, g_orbit_countable as G_{k-2}, G_k,
    G_0, then each extra (key, value, expected).  The first mismatch fails."""
    k, seq = row["k"], row["induction_G"]
    closed = [bounds_mod.induction_closed_form(k, l) for l in range(k + 1)]
    checks = [(f"induction_G[{l}]", seq[l] if l < len(seq) else None, c) for l, c in enumerate(closed)]
    checks += [(key, row[key], closed[l]) for key, l in (("g_gonality", k - 2), ("g_orbit_all", k), ("g_orbit_countable", 0))]
    mismatch = next(({"k": k, "key": key, "value": v, "expected": e} for key, v, e in [*checks, *extra] if v != e), None)
    witness.update(closed_form_checked=len(checks) + len(extra), closed_form_mismatch=mismatch)
    return ("fail" if mismatch else "pass"), witness


def _cmd_thresholds(args):
    if args.k is not None:
        row = _threshold_row(args.k)
        keys = ["k", "g_gonality", "g_orbit_all", "g_orbit_weierstrass", "g_orbit_countable"]
        print("\t".join(keys))
        print("\t".join(str(row[key]) for key in keys))
        print("induction_G\t" + "\t".join(str(x) for x in row["induction_G"]))
        print(f"conjectured_gonality_threshold (conjecture, unproven)\t{row['conjectured_gonality_threshold']['value']}")
        return _closed_form_verdict(row, row)
    k = bounds_mod.max_proven_gonality(args.g)
    witness = {
        "g": args.g,
        "max_proven_k": k,
        "statement": f"gonality >= {k + 1}",
    }
    if k >= 2:
        witness["threshold_row"] = _threshold_row(k)
    print("g\tmax_proven_k\tstatement")
    print(f"{args.g}\t{k}\tgonality >= {k + 1}")
    # k is the largest proven degree: the row at k + 1 is above g
    above = _threshold_row(k + 1)
    return _closed_form_verdict(witness, above, ("g_gonality > g", above["g_gonality"] > args.g, True))


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
        "generator_terms": len(cert.pushforward_indices()),
        "nilpotent_terms": int(bool(cert.nilpotent.orbits)),
        "pushforward_indices": cert.pushforward_indices(),
        "max_multiplier_height": cert.max_multiplier_height(),
        "re_verified_on_orbits": True,
    }
    return "pass", witness


def _cmd_alpha(args):
    matrix = alpha_coefficients(args.k)
    for l in range(args.k + 1):
        print(f"{l}\t" + "\t".join(format_rational(c) for c in matrix.row(l)))
    # the rows are the t-coefficients of (1 + t)^k / (1 + x t):
    # alpha[l][i] = (-1)^i C(k, l - i); the first entry that differs fails
    closed = [[(-1) ** i * math.comb(args.k, l - i) for i in range(l + 1)] for l in range(args.k + 1)]
    mismatch = next(({"l": l, "i": i, "value": format_rational(matrix.row(l)[i]),
                      "expected": format_rational(Fraction(e))}
                     for l, row in enumerate(closed) for i, e in enumerate(row) if matrix.row(l)[i] != e), None)
    witness = {
        "k": args.k,
        "rows": [[format_rational(c) for c in matrix.row(l)] for l in range(args.k + 1)],
        "zero_entries": [list(z) for z in matrix.zero_entries],
        "closed_form_checked": sum(map(len, closed)),
        "closed_form_mismatch": mismatch,
    }
    return ("fail" if matrix.zero_entries or mismatch else "pass"), witness


def _cmd_recursion_check(args):
    if args.k < 2:
        raise ValueError("--k must be at least 2")
    results = {str(l): ok for l, ok in check_recursion_identities(args.k, range(1, args.k)).items()}
    witness = {"k": args.k, "results": results}
    return ("pass" if all(results.values()) else "fail"), witness


def _read_text(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _require_nonzero(spaces):
    # a run that checks nothing must not report pass; the library checks
    # keep their vacuous True for such input
    if not any(sp.dim for sp in spaces):
        raise ValueError("nothing to check: every block is empty")


def _cmd_check_star(args):
    k, n, V = parse_star_file(_read_text(args.file))
    _require_nonzero([V])
    outcome = check_condition_star(V, n, k)
    witness = {"k": k, "n": n, "dim": V.dim, "violation": None}
    if outcome is True:
        return "pass", witness
    witness["violation"] = {
        "degree": outcome.degree,
        "basis_indices": list(outcome.basis_indices),
        "multi_index": list(outcome.multi_index),
        "value": format_rational(outcome.value),
    }
    return "fail", witness


def _cmd_check_doublestar(args):
    k, n, spaces = parse_doublestar_file(_read_text(args.file))
    _require_nonzero(spaces)
    outcome = check_condition_doublestar(spaces)
    witness = {"k": k, "n": n, "dims": [sp.dim for sp in spaces], "violation": None}
    if outcome is True:
        return "pass", witness
    witness["violation"] = {
        "components": list(outcome.components),
        "basis_rows": list(outcome.basis_rows),
        "value": format_rational(outcome.value),
    }
    return "fail", witness


def _pair_from_args(args):
    # --seed picks the random pair of --k; a run of --file records seed 0
    seed, args.seed = args.seed, args.seed or 0
    if args.file is not None:
        if seed is not None:
            raise ValueError("--seed applies only with --k")
        k, n, spaces = parse_doublestar_file(_read_text(args.file))
        if n != 2 or len(spaces) != 2:
            raise ValueError("pair input file must declare exactly 2 blocks")
        _require_nonzero(spaces)
        return spaces[0], spaces[1]
    return random_admissible_pair(args.k, args.seed)


def _cmd_pair_lemma(args):
    A, B = _pair_from_args(args)
    lhs, rhs, ok = pair_lemma_check(A, B)
    witness = {
        "lhs_dim_product_plus_sum": lhs,
        "rhs_dim_a_plus_dim_b": rhs,
        "ok": ok,
        "A": [[_ratio(x, A.den) for x in row] for row in A.basis],
        "B": [[_ratio(x, B.den) for x in row] for row in B.basis],
    }
    return ("pass" if ok else "fail"), witness


def _cmd_mu_rank(args):
    A, B = _pair_from_args(args)
    rank = mu_generic_rank(A, B)
    expected = A.dim + B.dim
    # over Q the rank at the base point is always dim A + dim B; less is a bug
    return ("pass" if rank == expected else "fail"), {"rank": rank, "expected": expected}


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
            fh.write(json_text({"k": args.k, "n": args.n, "config": result.counterexample}) + "\n")
        witness["counterexample_artifact"] = artifact
        return "fail", witness
    return "pass", witness


def _cmd_gamma_check(args):
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.kmax < 1:
        raise ValueError("--kmax must be at least 1")
    rng = random.Random(args.seed)
    g = args.g
    ctx = RingContext(rank=args.rank, geom_dim=g, support_cap=1_000_000)
    failures = []
    # the univariate model of exp after log, 1 + T up to order g + 1, once per run
    composite = exp_after_log(g)
    if any(composite[j] != (1 if j <= 1 else 0) for j in range(0, g + 2)):
        failures.append({"check": "exp_log_series", "g": g})
    # the same model in S = T + 1, evaluated at {x} without convolution
    shifted = poly_compose(composite, [-1, 1])
    checked = 0
    for _ in range(args.trials):
        coords = [rng.randint(-2, 2) for _ in range(args.rank)]
        if all(c == 0 for c in coords):
            coords[0] = 1
        x = tuple(coords)
        gamma_x = gamma(x, ctx)
        log_x = log_cycle(Cycle.point(x), ctx)
        if gamma_x != -log_x:
            failures.append({"check": "gamma_vs_log", "point": coords})
        u = Cycle.point(x) - Cycle.unit(ctx.rank)
        w = gamma_factorization(x, ctx)
        if gamma_x != -pontryagin(u, w, ctx):
            failures.append({"check": "factorization", "point": coords})
        # the k-th powers, each from the (k-1)-th
        gamma_k, u_k, w_k = gamma_x, u, w
        for kk in range(2, args.kmax + 1):
            gamma_k = pontryagin(gamma_k, gamma_x, ctx)
            u_k = pontryagin(u_k, u, ctx)
            w_k = pontryagin(w_k, w, ctx)
            if gamma_k != pontryagin(u_k, w_k, ctx).scale(Fraction((-1) ** kk)):
                failures.append({"check": "power_factorization", "point": coords, "k": kk})
        # exp/log composition agrees with its univariate polynomial model
        if exp_cycle(log_x, ctx) != poly_eval_at_point(shifted, x, ctx):
            failures.append({"check": "exp_log_model", "point": coords})
        checked += 1
    witness = {"trials": checked, "g": g, "rank": args.rank, "failures": failures}
    return ("fail" if failures else "pass"), witness


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


class _Opt:
    """One option of a subcommand.  argparse is built from these, and
    ``_parse_exact`` reads an exact-form argv straight from them.
    ``one_of`` marks a member of the subcommand's one required
    exactly-one-of group."""

    def __init__(self, flag: str, type: Callable[[str], object] = str, default=None, *,
                 required: bool = False, one_of: bool = False, choices: tuple | None = None,
                 help: str | None = None):
        self.flag, self.type, self.default, self.help = flag, type, default, help
        self.required, self.one_of, self.choices = required, one_of, choices
        # argparse's rule: the flag without its leading dashes
        self.dest = flag[2:].replace("-", "_")


_REPORT = _Opt("--report", help="write the run report to this path")


class _Command:
    def __init__(self, func: Callable, help: str, *options: _Opt):
        self.func, self.help = func, help
        # flag -> option in argparse's order; every subcommand takes --report
        self.options = {opt.flag: opt for opt in (_REPORT, *options)}


# pair-lemma and mu-rank read a pair from a file or sample one in Q^k
_PAIR = (
    _Opt("--file", one_of=True, help="two-block configuration file"),
    _Opt("--k", int, one_of=True, help="sample a random admissible pair in Q^k"),
    # None unless given, so that _pair_from_args can refuse it with --file
    _Opt("--seed", int),
)

_COMMANDS = {
    "identities": _Command(
        _cmd_identities, "exact (k,d) kernel table with cross-checks",
        _Opt("--kmax", int, 12), _Opt("--dmax", int)),
    "thresholds": _Command(
        _cmd_thresholds, "dimension thresholds for a degree, or the inverse lookup",
        _Opt("--k", int, one_of=True), _Opt("--g", int, one_of=True)),
    "verify-relation": _Command(
        _cmd_verify_relation, "produce a re-verified membership certificate",
        _Opt("--k", int, required=True),
        _Opt("--g", int, required=True),
        _Opt("--jmax", int),
        _Opt("--cap", int),
        _Opt("--method", default="auto", choices=("auto", "newton", "window"), help=(
            "newton: the Newton certificate (j = 1..k, height k-1) if --jmax >= k and --cap >= k-1, "
            "else exit 2 with caps_tried [cap]; window: the nilpotent certificate if k > g, else the "
            "Newton one if --jmax >= k, recording --cap, or twice --cap if its height needs it, else "
            "exit 2 with caps_tried [cap, 2 cap]; auto (default): newton if it fits, else window")),
        _Opt("--out", default="cert.json", help="certificate output path")),
    "alpha": _Command(
        _cmd_alpha, "exact coefficients of the substituted recursion",
        _Opt("--k", int, required=True)),
    "recursion-check": _Command(
        _cmd_recursion_check, "free-ring check of the inductive relation",
        _Opt("--k", int, required=True)),
    "check-star": _Command(
        _cmd_check_star, "condition (*) on a subspace file",
        _Opt("--file", required=True)),
    "check-doublestar": _Command(
        _cmd_check_doublestar, "condition (**) on a configuration file",
        _Opt("--file", required=True)),
    "pair-lemma": _Command(
        _cmd_pair_lemma, "span inequality dim(A.B+A+B) >= dim A + dim B", *_PAIR),
    "mu-rank": _Command(
        _cmd_mu_rank,
        "rank of the multiplication differential at the base point (e, e), which over Q is its "
        "generic rank: (**) makes A and B orthogonal, so they meet only in 0",
        *_PAIR),
    "search": _Command(
        _cmd_search, "budgeted search for max total dimension under (**)",
        _Opt("--k", int, required=True),
        _Opt("--n", int, required=True),
        _Opt("--budget", int, 10_000),
        _Opt("--seed", int, 0),
        _Opt("--artifact", help="counterexample artifact path")),
    "gamma-check": _Command(
        _cmd_gamma_check, "gamma/log/exp identity battery",
        _Opt("--g", int, 3),
        _Opt("--rank", int, 2),
        _Opt("--trials", int, 5),
        _Opt("--kmax", int, 3),
        _Opt("--seed", int, 0)),
}

# `pontcalc -h` prints the docstring up to its notes on argv forms (none under -OO)
_DESCRIPTION = __doc__ and __doc__.partition("\n\nEach subcommand's options")[0]


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="pontcalc", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        group = None
        for opt in command.options.values():
            if opt.one_of and group is None:
                group = p.add_mutually_exclusive_group(required=True)
            (group if opt.one_of else p).add_argument(
                opt.flag, type=opt.type, default=opt.default, required=opt.required,
                choices=opt.choices, help=opt.help)
        p.set_defaults(func=command.func)
    return parser


def _parse_exact(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives an argv of the exact form
    ``SUB --opt VALUE ...`` (see the module docstring), read from the
    option table; None for any other argv, which argparse then parses.
    This path only accepts: every argv it declines goes to argparse."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    given = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        opt = command.options.get(flag)
        if opt is None or opt.dest in given or text.startswith("-"):
            return None
        try:
            value = opt.type(text)
        except ValueError:
            return None
        if opt.choices is not None and value not in opt.choices:
            return None
        given[opt.dest] = value
    options = command.options.values()
    if any(opt.required and opt.dest not in given for opt in options):
        return None
    group = [opt.dest in given for opt in options if opt.one_of]
    if group and sum(group) != 1:
        return None
    values = {opt.dest: given.get(opt.dest, opt.default) for opt in options}
    return argparse.Namespace(subcommand=argv[0], func=command.func, **values)


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
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _parse_exact(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
            # argparse stores `--opt=--` as [] without calling the option's type
            for opt in _COMMANDS[args.subcommand].options.values():
                if isinstance(getattr(args, opt.dest), list):
                    _build_parser().error(f"argument {opt.flag}: expected one argument")
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
