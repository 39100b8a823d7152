"""Job lists, seeded inputs and known answers for the three workloads.

A job is one ``pontcalc`` argv plus the answer it must give.  Known answers
come from the construction of the input or from the theory the package
implements, never from the checker under test:

* certificates must reload, pass ``verify_certificate``, and have the
  target u^{*k} = sum_i C(k,i) (-1)^(k-i) {i x_1}, expanded here;
* the ``identities`` table must equal the kernel sum computed here;
* ``search`` must reach the proven maximum k - 1 with no counterexample;
* every ``pair-lemma`` on an admissible pair must report ``ok``;
* subspace files built to satisfy (**) must pass both checkers, and files
  with one row of nonzero sum must fail both (exit 3).

Reports go to stdout.  Certificate and input paths in argv are relative to
the working directory the jobs run in, so the reports of two runs with the
same seed are byte-identical apart from their ``wall_time_s``.
"""

from __future__ import annotations

import importlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

VERDICTS = {0: "pass", 2: "inconclusive", 3: "fail"}


@dataclass
class Job:
    argv: list[str]
    expect: int
    # (report, stdout before the report, certificate bytes or None)
    # -> problem, or None if the outcome is right
    check: Callable[[dict, str, bytes | None], str | None]

    @property
    def cert(self) -> str | None:
        return self.argv[self.argv.index("--out") + 1] if "--out" in self.argv else None


def _target_terms(k: int) -> dict[tuple[int, ...], Fraction]:
    return {
        (i,) + (0,) * (k - 1): Fraction(math.comb(k, i) * (-1) ** (k - i))
        for i in range(k + 1)
    }


def _certificate_check(k: int, g: int, cap: int | None):
    def check(report, stdout, cert):
        if cert is None:
            return "no certificate written"
        relations = importlib.import_module("pontcalc.relations")
        data = json.loads(cert)
        if (data["k"], data["g"]) != (k, g):
            return f"certificate is for (k, g) = ({data['k']}, {data['g']})"
        target = data["target"]
        got = {tuple(t["point"]): Fraction(t["coeff"]) for t in target["terms"]}
        if target["rank"] != k or got != _target_terms(k):
            return "certificate target is not u^{*k}"
        if cap is not None and data["cap"] > 2 * cap:
            return f"certificate cap {data['cap']} exceeds the retry cap {2 * cap}"
        if not relations.verify_certificate(relations.MembershipCertificate.from_json_dict(data)):
            return "reloaded certificate fails verify_certificate"
        return None

    return check


def _verify_relation(i: int, k: int, g: int, method=None, cap=None, jmax=None, expect=0) -> Job:
    argv = ["verify-relation", "--k", str(k), "--g", str(g)]
    if method:
        argv += ["--method", method]
    if cap is not None:
        argv += ["--cap", str(cap)]
    if jmax is not None:
        argv += ["--jmax", str(jmax)]
    argv += ["--out", f"cert{i}.json"]
    if expect == 0:
        return Job(argv, 0, _certificate_check(k, g, cap))

    def inconclusive(report, stdout, cert):
        tried = report["witness"]["caps_tried"]
        return None if tried == [cap, 2 * cap] else f"caps tried {tried}, expected [{cap}, {2 * cap}]"

    return Job(argv, expect, inconclusive)


def window_jobs(seed: int) -> tuple[list[Job], dict[str, str]]:
    jobs = [
        _verify_relation(0, 2, 4, "window"),
        _verify_relation(1, 2, 3, "window"),
        _verify_relation(2, 2, 2, "window"),
        _verify_relation(3, 3, 1, "window", cap=4),
        _verify_relation(4, 4, 1, "window", cap=2),
        _verify_relation(5, 4, 2, "window", cap=1),
    ]
    # No certificate lies in the windows of height 1 and 2 with j <= 3:
    # both exact solves are inconsistent, so the known answer is exit 2.
    jobs.append(_verify_relation(6, 5, 1, "window", cap=1, jmax=3, expect=2))
    return jobs, {}


def _identities_check(kmax: int):
    def check(report, stdout, cert):
        rows = [line.split("\t") for line in stdout.strip().splitlines()[1:]]
        table = {(int(r[0]), d): Fraction(v) for r in rows for d, v in enumerate(r[1:])}
        expected = {
            (k, d): Fraction(sum((-1) ** (k - i) * math.comb(k, i) * (1 if d == 0 else i**d) for i in range(k + 1)))
            for k in range(1, kmax + 1)
            for d in range(kmax + 1)
        }
        return None if table == expected else "kernel table differs from the alternating binomial sums"

    return check


def _battery_check(report, stdout, cert):
    witness = report["witness"]
    bad = witness.get("failures") or witness.get("problems") or witness.get("zero_entries")
    if bad:
        return f"identity battery reported {bad[:3]}"
    if "results" in witness and not all(witness["results"].values()):
        return "recursion identity failed"
    return None


def convolution_jobs(seed: int) -> tuple[list[Job], dict[str, str]]:
    rng = random.Random(seed)
    jobs = []
    for k in (5, 6, 7, 8):
        for g in (1, 2, 3):
            jobs.append(_verify_relation(len(jobs), k, g))
    jobs.append(_verify_relation(len(jobs), 9, 2))
    for extra in (
        ["--g", "4", "--trials", "10"],
        ["--g", "6", "--trials", "5", "--kmax", "5"],
        ["--g", "5", "--rank", "3", "--trials", "5", "--kmax", "4"],
    ):
        argv = ["gamma-check", *extra, "--seed", str(rng.randrange(2**31))]
        jobs.append(Job(argv, 0, _battery_check))
    jobs.append(Job(["identities", "--kmax", "20"], 0, _identities_check(20)))
    jobs.append(Job(["alpha", "--k", "12"], 0, _battery_check))
    jobs.append(Job(["recursion-check", "--k", "8"], 0, _battery_check))
    return jobs, {}


def _pair_lemma_check(report, stdout, cert):
    w = report["witness"]
    A = [[Fraction(x) for x in row] for row in w["A"]]
    B = [[Fraction(x) for x in row] for row in w["B"]]
    if any(sum(row) for row in A + B) or any(sum(a * b for a, b in zip(ra, rb)) for ra in A for rb in B):
        return "sampled pair is not admissible"
    if not w["ok"] or w["rhs_dim_a_plus_dim_b"] != len(A) + len(B) or w["lhs_dim_product_plus_sum"] < len(A) + len(B):
        return f"span inequality reported {w['lhs_dim_product_plus_sum']} < {w['rhs_dim_a_plus_dim_b']}"
    return None


def _search_check(k: int, budget: int):
    def check(report, stdout, cert):
        w = report["witness"]
        if w["best_sum"] != k - 1 or "counterexample_artifact" in w or w["evaluations"] != budget:
            return f"search reported best_sum {w['best_sum']} after {w['evaluations']} evaluations"
        return None

    return check


def _mu_rank_check(report, stdout, cert):
    w = report["witness"]
    return None if w["rank"] == w["expected"] else f"rank {w['rank']} != dim A + dim B = {w['expected']}"


def _doublestar_config(rng: random.Random, k: int, n: int) -> list[list[list[Fraction]]]:
    """n subspaces of Q^k on disjoint coordinate blocks, each spanned by
    independent rows of coordinate sum zero.  Products of rows from two
    or more components vanish identically, so (**) holds."""
    coords = list(range(k))
    rng.shuffle(coords)
    cuts = sorted(rng.sample(range(1, k), n - 1))
    blocks = [coords[a:b] for a, b in zip([0] + cuts, cuts + [k])]
    config = []
    for block in blocks:
        dim = rng.randint(0, len(block) - 1)
        rows = []
        for t in range(dim):
            row = [Fraction(0)] * k
            # upper triangular on the first dim block positions: independent
            row[block[t]] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
            for u in block[t + 1 : -1]:
                row[u] = Fraction(rng.randint(-2, 2))
            row[block[-1]] = -sum(row)
            scale = Fraction(1, rng.choice((1, 1, 2, 3)))
            rows.append([x * scale for x in row])
        config.append(rows)
    return config


def _doublestar_text(k: int, config) -> str:
    lines = [f"{k} {len(config)}"]
    for rows in config:
        lines.append(str(len(rows)))
        lines += [" ".join(str(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _star_text(k: int, config) -> str:
    """The same tuple embedded in (Q^n)^k: functional lam of component i
    becomes the vector whose j-th block is lam_j e_i."""
    n = len(config)
    vectors = []
    for i, rows in enumerate(config):
        for lam in rows:
            vec = [Fraction(0)] * (n * k)
            for j in range(k):
                vec[j * n + i] = lam[j]
            vectors.append(vec)
    lines = [f"{k} {n}", str(len(vectors))] + [" ".join(str(x) for x in v) for v in vectors]
    return "\n".join(lines) + "\n"


def _file_check(expect: int):
    def check(report, stdout, cert):
        violation = report["witness"]["violation"]
        if (violation is None) != (expect == 0):
            return f"violation {violation} where exit {expect} was constructed"
        return None

    return check


def tangent_jobs(seed: int) -> tuple[list[Job], dict[str, str]]:
    rng = random.Random(seed)
    jobs = []
    files = {}
    for k in range(2, 9):
        for _ in range(200):
            argv = ["pair-lemma", "--k", str(k), "--seed", str(rng.randrange(2**31))]
            jobs.append(Job(argv, 0, _pair_lemma_check))
    for k, n in ((4, 2), (5, 3), (6, 2)):
        argv = ["search", "--k", str(k), "--n", str(n), "--budget", "20000", "--seed", str(rng.randrange(2**31))]
        jobs.append(Job(argv, 0, _search_check(k, 20000)))
    for k in range(3, 9):
        for _ in range(10):
            argv = ["mu-rank", "--k", str(k), "--seed", str(rng.randrange(2**31))]
            jobs.append(Job(argv, 0, _mu_rank_check))
    for idx in range(50):
        for expect in (0, 3):
            n = rng.randint(2, 3)
            k = rng.randint(n + 1, 7)
            config = _doublestar_config(rng, k, n)
            while not any(config):
                config = _doublestar_config(rng, k, n)
            if expect:
                rows = rng.choice([rows for rows in config if rows])
                row = rng.choice(rows)
                row[rng.randrange(k)] += rng.choice((-2, -1, 1, 2))
            name = f"cfg{idx}_{expect}"
            files[f"{name}.ds.txt"] = _doublestar_text(k, config)
            files[f"{name}.star.txt"] = _star_text(k, config)
            jobs.append(Job(["check-doublestar", "--file", f"{name}.ds.txt"], expect, _file_check(expect)))
            jobs.append(Job(["check-star", "--file", f"{name}.star.txt"], expect, _file_check(expect)))
    return jobs, files


BUILDERS = {"window": window_jobs, "convolution": convolution_jobs, "tangent": tangent_jobs}

# A small job per workload that runs the same code before timing starts.
WARMUP = {
    "window": ["verify-relation", "--method", "window", "--k", "2", "--g", "1", "--out", "warmup.json"],
    "convolution": ["verify-relation", "--k", "4", "--g", "1", "--out", "warmup.json"],
    "tangent": ["pair-lemma", "--k", "4", "--seed", "1"],
}


def check_output(job: Job, code, report_bytes: bytes | None, stdout: str, cert: bytes | None) -> str | None:
    """Problem with one job's outcome, or None if it matches the known answer."""
    if code != job.expect:
        return f"exit {code}, expected {job.expect}"
    if report_bytes is None:
        return "no report printed"
    report = json.loads(report_bytes)
    if report.get("report_version") != 1 or report.get("subcommand") != job.argv[0]:
        return "report is not a version-1 report of this subcommand"
    if report.get("verdict") != VERDICTS[job.expect]:
        return f"verdict {report.get('verdict')!r} with exit {code}"
    return job.check(report, stdout, cert)
