"""CLI exit codes, report schema, determinism, and file artifacts."""

import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from pontcalc import cli, relations
from pontcalc.cli import main
from pontcalc.cycles import SupportCapExceeded
from pontcalc.tangent import SearchResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def exit_code(argv):
    # main returns the code, or argparse exits with it on a bad flag
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def last_json(text):
    # the report is the last JSON object on stdout (a table may precede it)
    decoder = json.JSONDecoder()
    idx, objs = 0, []
    while True:
        start = text.find("{", idx)
        if start == -1:
            break
        try:
            obj, end = decoder.raw_decode(text[start:])
            objs.append(obj)
            idx = start + end
        except ValueError:
            idx = start + 1
    return objs[-1]


def test_identities_pass(capsys):
    code, out = run(capsys, "identities", "--kmax", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("k\\d")
    report = last_json(out)
    assert report["report_version"] == 1
    assert report["verdict"] == "pass"
    assert report["exact_arithmetic"] is True
    assert report["witness"]["problems"] == []


def test_thresholds_k(capsys):
    code, out = run(capsys, "thresholds", "--k", "2")
    assert code == 0
    assert "g_gonality" in out
    assert re.search(r"^2\t3\t12\t3\t3$", out, re.M)


def test_thresholds_inverse(capsys):
    code, out = run(capsys, "thresholds", "--g", "11")
    assert code == 0
    report = last_json(out)
    assert report["witness"]["max_proven_k"] == 3


def test_thresholds_inverse_table(capsys):
    code, out = run(capsys, "thresholds", "--g", "1")
    assert code == 0
    assert out.splitlines()[:2] == ["g\tmax_proven_k\tstatement", "1\t1\tgonality >= 2"]
    assert last_json(out)["witness"]["statement"] == "gonality >= 2"


def python_m(tmp_path, *argv, timeout=60):
    """``python -m pontcalc argv`` in a subprocess, importing this package."""
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pontcalc", *argv],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=timeout)


def test_python_dash_m_runs_the_cli(tmp_path):
    proc = python_m(tmp_path, "thresholds", "--g", "3")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[:2] == ["g\tmax_proven_k\tstatement", "3\t2\tgonality >= 3"]
    report = last_json(proc.stdout)
    assert (report["subcommand"], report["verdict"]) == ("thresholds", "pass")


def test_check_doublestar_on_many_disjoint_blocks(tmp_path):
    # 30 one-row blocks on disjoint coordinate pairs pass (**): every product
    # of two or more rows is zero, so a walk over all 2^30 subsets would run
    # for hours
    n = 30
    rows = ["0 " * 2 * i + "1 -1" + " 0" * 2 * (n - 1 - i) for i in range(n)]
    f = tmp_path / "pairs.txt"
    f.write_text(f"{2 * n} {n}\n" + "".join(f"1\n{row}\n" for row in rows))
    proc = python_m(tmp_path, "check-doublestar", "--file", str(f), timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert last_json(proc.stdout)["verdict"] == "pass"


def test_thresholds_requires_exactly_one(capsys):
    # --k and --g are one argparse group, which exits instead of returning
    assert exit_code(["thresholds"]) == 1
    assert exit_code(["thresholds", "--k", "2", "--g", "3"]) == 1


def test_verify_relation_writes_certificate(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code, out = run(capsys, "verify-relation", "--k", "2", "--g", "3", "--out", str(cert_path))
    assert code == 0
    report = last_json(out)
    assert report["verdict"] == "pass"
    assert report["witness"]["re_verified_on_orbits"] is True
    data = json.loads(cert_path.read_text())
    assert data["format"] == "pontryagin-membership-certificate"
    assert data["k"] == 2 and data["g"] == 3
    from pontcalc.relations import MembershipCertificate, verify_certificate

    assert verify_certificate(MembershipCertificate.from_json_dict(data))


def test_verify_relation_inconclusive_exit_2(tmp_path, capsys):
    code, out = run(
        capsys,
        "verify-relation", "--k", "2", "--g", "3",
        "--jmax", "1", "--cap", "1", "--method", "window",
        "--out", str(tmp_path / "c.json"),
    )
    assert code == 2
    report = last_json(out)
    assert report["verdict"] == "inconclusive"
    assert report["witness"]["caps_tried"] == [1, 2]
    assert not (tmp_path / "c.json").exists()


def test_alpha(capsys):
    code, out = run(capsys, "alpha", "--k", "3")
    assert code == 0
    report = last_json(out)
    assert report["witness"]["zero_entries"] == []
    assert out.splitlines()[0] == "0\t1/1"


def test_recursion_check(capsys):
    code, out = run(capsys, "recursion-check", "--k", "4")
    assert code == 0
    report = last_json(out)
    assert report["witness"]["results"] == {"1": True, "2": True, "3": True}


def test_check_star_pass_and_violation(tmp_path, capsys):
    ok = tmp_path / "ok.txt"
    ok.write_text("3 1\n2\n1 -1 0\n0 1 -1\n")
    code, out = run(capsys, "check-star", "--file", str(ok))
    assert code == 0

    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n1\n1 0 0 0\n")
    code, out = run(capsys, "check-star", "--file", str(bad))
    assert code == 3
    report = last_json(out)
    assert report["verdict"] == "fail"
    assert report["witness"]["violation"]["degree"] == 1


def test_check_doublestar(tmp_path, capsys):
    f = tmp_path / "cfg.txt"
    f.write_text("3 2\n1\n1 -1 0\n1\n1 1 -2\n")
    code, out = run(capsys, "check-doublestar", "--file", str(f))
    assert code == 0
    f.write_text("3 1\n1\n1 0 0\n")
    code, out = run(capsys, "check-doublestar", "--file", str(f))
    assert code == 3


def test_doublestar_value_past_the_int_digit_limit(tmp_path, capsys):
    # A = B = span((N, -N)) with N = 10^2200 - 1: the pair's product row
    # sums to 2 N^2 = 2*10^4400 - 4*10^2200 + 2, which has 4401 digits,
    # past Python's default limit of 4300 on int <-> str conversion.
    nines = "9" * 2200
    f = tmp_path / "long.txt"
    f.write_text(f"2 2\n1\n{nines} -{nines}\n1\n{nines} -{nines}\n")
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out = run(capsys, "check-doublestar", "--file", str(f))
    assert code == 3
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    violation = last_json(out)["witness"]["violation"]
    assert violation["value"] == "1" + "9" * 2199 + "6" + "0" * 2199 + "2" + "/1"


def test_pair_lemma_file_and_random(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("3 2\n1\n1 -1 0\n1\n1 1 -2\n")
    code, out = run(capsys, "pair-lemma", "--file", str(f))
    assert code == 0
    report = last_json(out)
    assert report["witness"]["lhs_dim_product_plus_sum"] == 2
    code, out = run(capsys, "pair-lemma", "--k", "6", "--seed", "11")
    assert code == 0


def test_pair_lemma_precondition_is_usage_error(tmp_path, capsys):
    f = tmp_path / "bad_pair.txt"
    f.write_text("3 2\n1\n1 0 0\n1\n1 1 -2\n")
    assert main(["pair-lemma", "--file", str(f)]) == 1


def test_mu_rank(tmp_path, capsys):
    f = tmp_path / "pair.txt"
    f.write_text("3 2\n1\n1 -1 0\n1\n1 1 -2\n")
    code, out = run(capsys, "mu-rank", "--file", str(f))
    assert code == 0
    report = last_json(out)
    assert report["witness"]["rank"] == 2 == report["witness"]["expected"]


def test_mu_rank_is_decided_at_the_base_point(tmp_path, capsys):
    # a sampled rank once missed off the generic locus; the rank at (e, e)
    # has no seed, and a file pair takes none
    f = tmp_path / "pair.txt"
    f.write_text("3 2\n1\n1 -1 0\n1\n1 1 -2\n")
    code, out = run(capsys, "mu-rank", "--file", str(f))
    assert code == 0
    report = last_json(out)
    assert report["verdict"] == "pass"
    assert report["witness"] == {"rank": 2, "expected": 2}
    assert report["parameters"]["seed"] == 0
    assert main(["mu-rank", "--file", str(f), "--seed", "4"]) == 1
    assert capsys.readouterr() == ("", "pontcalc: error: --seed applies only with --k\n")


def test_mu_rank_below_dim_a_plus_dim_b_is_a_failure(capsys, monkeypatch):
    # unreachable over Q; the guard reports it as a finding, not a miss
    monkeypatch.setattr(cli, "mu_generic_rank", lambda A, B: A.dim + B.dim - 1)
    code, out = run(capsys, "mu-rank", "--k", "5", "--seed", "3")
    assert code == 3
    report = last_json(out)
    assert report["verdict"] == "fail"
    assert report["witness"]["rank"] == report["witness"]["expected"] - 1


def over_bound_search(k, n, budget, seed):
    config = [[[1, -1, 0]], [[1, 0, -1]], [[0, 1, -1]]]
    return SearchResult(k=k, n=n, best_sum=3, best_config=config, evaluations=budget,
                        bound=k - 1, nonzero_components=3, counterexample=config)


def test_search_counterexample_writes_artifact(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "search_max_total_dimension", over_bound_search)
    artifact = tmp_path / "cx.json"
    argv = ["search", "--k", "3", "--n", "3", "--budget", "5", "--artifact", str(artifact)]
    code, out = run(capsys, *argv)
    assert code == 3
    report = last_json(out)
    assert report["verdict"] == "fail"
    assert report["witness"]["counterexample_artifact"] == str(artifact)
    assert report["witness"]["best_sum"] == 3 > report["witness"]["bound"] == 2
    config = over_bound_search(3, 3, 5, 0).counterexample
    expected = json.dumps({"k": 3, "n": 3, "config": config}, indent=2, sort_keys=True) + "\n"
    assert artifact.read_text() == expected

    unwritable = str(tmp_path / "missing" / "cx.json")
    assert main(argv[:-1] + [unwritable]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("pontcalc: error: ")


def test_search(capsys):
    code, out = run(capsys, "search", "--k", "3", "--n", "2", "--budget", "300", "--seed", "0")
    assert code == 0
    report = last_json(out)
    assert report["witness"]["best_sum"] == 2
    assert report["witness"]["bound"] == 2
    assert report["witness"]["evaluations"] == 300


def test_gamma_check(capsys):
    code, out = run(capsys, "gamma-check", "--g", "2", "--trials", "2", "--seed", "1")
    assert code == 0
    report = last_json(out)
    assert report["witness"]["failures"] == []


def test_usage_errors(capsys):
    # argparse-level errors: a missing, mistyped or unknown flag, an unknown
    # subcommand, no subcommand at all
    for argv in (["search", "--k", "3"], ["search", "--k", "x", "--n", "2"],
                 ["search", "--k", "3", "--n", "2", "--bogus", "1"], ["nosuch"], [],
                 ["verify-relation"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, (argv, captured.err)
        assert captured.err.startswith("pontcalc: error: "), (argv, captured.err)
    assert main(["check-star", "--file", "/nonexistent/path.txt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("pontcalc: error: ")


@pytest.mark.parametrize(
    "argv, text",
    [
        (["check-doublestar", "--file", "{file}"], "3 1\n-1\n"),
        (["check-doublestar", "--file", "{file}"], "3 1\n1\n1/0 -1 1\n"),
        (["check-doublestar", "--file", "{file}"], "2 1\n1\n1e5000 0\n"),
        (["pair-lemma", "--file", "{file}"], "3 2\n1\n1e5000 -1e5000 0\n0\n"),
        (["check-doublestar", "--file", "{file}"], "2 1\n1\n0.5 -1/2\n"),
        (["check-doublestar", "--file", "{file}"], "1_0 1\n0\n"),
        (["check-doublestar", "--file", "{file}"], "\u0663 1\n0\n"),
        (["check-star", "--file", "{file}"], "2 1\n0_1\n1 -1\n"),
        (["check-star", "--file", "{file}"], "3 0\n0\n"),
        (["search", "--k", "3", "--n", "2", "--budget", "-5"], None),
        (["identities", "--kmax", "0"], None),
        (["verify-relation", "--k", "2", "--g", "3", "--cap", "-1", "--out", "{file}"], None),
        (["mu-rank", "--k", "3", "--samples", "1"], None),
        (["pair-lemma", "--file", "{file}", "--k", "7", "--seed", "5"], "3 2\n1\n1 -1 0\n1\n1 1 -2\n"),
        (["mu-rank", "--file", "{file}", "--k", "7", "--seed", "5"], "3 2\n1\n1 -1 0\n1\n1 1 -2\n"),
        (["pair-lemma", "--seed", "5"], None),
        (["mu-rank", "--seed", "5"], None),
        (["pair-lemma", "--file", "{file}", "--seed", "0"], "3 2\n1\n1 -1 0\n1\n1 1 -2\n"),
        (["mu-rank", "--seed=3", "--fi", "{file}"], "3 2\n1\n1 -1 0\n1\n1 1 -2\n"),
        (["gamma-check", "--trials", "0"], None),
        (["gamma-check", "--trials", "-3"], None),
        (["gamma-check", "--kmax", "0"], None),
        (["gamma-check", "--kmax", "-3"], None),
        (["recursion-check", "--k", "1"], None),
        (["recursion-check", "--k", "0"], None),
        (["pair-lemma", "--k", "3", "--report", "{file}/r.json"], None),
        (["pair-lemma", "--k", "3", "--report", "{dir}"], None),
        (["thresholds", "--k", "3", "--report", "{file}/r.json"], None),
        (["identities", "--kmax", "2", "--report", "{file}/r.json"], None),
        (["alpha", "--k", "3", "--report", "{file}/r.json"], None),
        # argparse stores `--opt=--` as [] without calling the option's type
        (["identities", "--kmax=--"], None),
        (["thresholds", "--k=--"], None),
        (["pair-lemma", "--k=--"], None),
        (["mu-rank", "--k=--"], None),
        (["search", "--k", "3", "--n=--", "--budget", "5"], None),
        (["verify-relation", "--k=--", "--g", "1", "--out", "{dir}/x.json"], None),
        (["verify-relation", "--k", "2", "--g", "1", "--out=--"], None),
        (["identities", "--kmax", "4", "--dmax", "0"], None),
        (["thresholds"], None),
        (["thresholds", "--k", "3", "--g", "2"], None),
    ],
    ids=["negative-dim", "zero-denominator", "exponent-entry", "exponent-pair-entry", "decimal-entry",
         "underscore-header", "arabic-indic-header", "underscore-dim",
         "zero-n", "negative-budget", "kmax-0", "negative-cap", "samples-unknown-flag",
         "pair-lemma-file-and-k", "mu-rank-file-and-k", "pair-lemma-no-source", "mu-rank-no-source",
         "pair-lemma-file-and-seed", "mu-rank-file-and-seed", "trials-0", "negative-trials", "gamma-kmax-0", "gamma-negative-kmax", "recursion-k-1", "recursion-k-0",
         "report-missing-dir", "report-is-dir", "thresholds-report-missing-dir",
         "identities-report-missing-dir", "alpha-report-missing-dir",
         "identities-kmax-dashes", "thresholds-k-dashes", "pair-lemma-k-dashes", "mu-rank-k-dashes",
         "search-n-dashes", "verify-relation-k-dashes", "verify-relation-out-dashes",
         "identities-dmax-0", "thresholds-neither", "thresholds-both"],
)
def test_bad_input_is_one_line_usage_error(tmp_path, capsys, argv, text):
    path = tmp_path / "input.txt"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    code = exit_code([arg.replace("{file}", str(path)).replace("{dir}", str(tmp_path)) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("pontcalc: error: ")


def test_identities_fail_verdicts(capsys, monkeypatch):
    # an oracle one off everywhere disagrees on and below the diagonal
    oracle = cli.derivative_oracle
    monkeypatch.setattr(cli, "derivative_oracle", lambda k: [x + 1 for x in oracle(k)])
    code, out = run(capsys, "identities", "--kmax", "3")
    assert code == 3
    assert last_json(out)["verdict"] == "fail"
    assert last_json(out)["witness"]["problems"] == [
        {"k": 1, "d": 1, "oracle": "2"},
        {"k": 2, "d": 1, "oracle": "1"},
        {"k": 2, "d": 2, "oracle": "3"},
        {"k": 3, "d": 1, "oracle": "1"},
        {"k": 3, "d": 2, "oracle": "1"},
        {"k": 3, "d": 3, "oracle": "7"},
    ]
    monkeypatch.setattr(cli, "derivative_oracle", oracle)

    # a table with a wrong diagonal and a nonzero entry below it
    table = cli.kernel_table
    wrong = {(2, 2): 3, (3, 1): 5}

    def bad_table(kmax, dmax):
        return [replace(v, value=wrong.get((v.k, v.d), v.value)) for v in table(kmax, dmax)]

    monkeypatch.setattr(cli, "kernel_table", bad_table)
    code, out = run(capsys, "identities", "--kmax", "3")
    assert code == 3
    assert last_json(out)["witness"]["problems"] == [
        {"k": 2, "d": 2, "value": "3", "expected": "2"},
        {"k": 2, "d": 2, "oracle": "2"},
        {"k": 3, "d": 1, "value": "5", "expected": "0"},
    ]


@pytest.mark.parametrize("kmax, dmax", [(1, None), (5, None), (20, None), (8, 2)])
def test_identities_expands_each_power_once(capsys, monkeypatch, kmax, dmax):
    # one derivative row per k, however many of its entries are checked
    calls = []
    oracle = cli.derivative_oracle
    monkeypatch.setattr(cli, "derivative_oracle", lambda k: calls.append(k) or oracle(k))
    argv = ["identities", "--kmax", str(kmax)] + ([] if dmax is None else ["--dmax", str(dmax)])
    code, out = run(capsys, *argv)
    assert code == 0 and last_json(out)["witness"]["problems"] == []
    assert calls == list(range(1, kmax + 1))


def test_recursion_check_builds_each_cycle_once(capsys, monkeypatch):
    # k = 8: gamma_0..gamma_8 and (m_j)_* gamma_1 for j = 2..8 once each,
    # and the 1 + 2 + ... + 7 = 28 convolutions of the seven identities: the
    # i = l term of each is (m_{l+1})_* gamma_1 itself, as gamma_0 is {0}
    counts = {"subset_sum_cycle": 0, "pushforward": 0, "pontryagin": 0}
    for name in counts:
        original = getattr(relations, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(relations, name, counted)
    code, out = run(capsys, "recursion-check", "--k", "8")
    assert code == 0
    assert last_json(out)["witness"]["results"] == {str(l): True for l in range(1, 8)}
    assert counts == {"subset_sum_cycle": 9, "pushforward": 7, "pontryagin": 28}


def test_gamma_check_fail_verdicts(capsys, monkeypatch):
    argv = ("gamma-check", "--g", "2", "--rank", "2", "--trials", "1", "--kmax", "3", "--seed", "1")
    code, out = run(capsys, *argv)
    assert code == 0 and last_json(out)["witness"]["failures"] == []
    # twice gamma breaks its log identity, its factorization and its powers
    good_gamma = cli.gamma
    monkeypatch.setattr(cli, "gamma", lambda x, ctx: good_gamma(x, ctx).scale(2))
    code, out = run(capsys, *argv)
    assert code == 3
    report = last_json(out)
    assert report["verdict"] == "fail"
    point = report["witness"]["failures"][0]["point"]
    assert report["witness"]["failures"] == [
        {"check": "gamma_vs_log", "point": point},
        {"check": "factorization", "point": point},
        {"check": "power_factorization", "point": point, "k": 2},
        {"check": "power_factorization", "point": point, "k": 3},
    ]
    monkeypatch.setattr(cli, "gamma", good_gamma)

    # a series model 1 + 2T fails its own check and the cycle comparison
    good_series = cli.exp_after_log
    monkeypatch.setattr(cli, "exp_after_log", lambda g: [1, 2] + good_series(g)[2:])
    code, out = run(capsys, *argv)
    assert code == 3
    assert last_json(out)["witness"]["failures"] == [
        {"check": "exp_log_series", "g": 2},
        {"check": "exp_log_model", "point": point},
    ]


def test_support_cap_exceeded_maps_to_inconclusive(capsys, monkeypatch):
    def over_cap(x, ctx):
        raise SupportCapExceeded((3, 0), 2)

    monkeypatch.setattr(cli, "gamma", over_cap)
    code, out = run(capsys, "gamma-check", "--g", "3", "--trials", "1")
    assert code == 2
    report = last_json(out)
    assert report["verdict"] == "inconclusive"
    assert report["witness"] == {
        "error": "support cap exceeded",
        "detail": "product point (3, 0) has height 3 > support cap 2",
    }


def test_report_determinism(tmp_path, capsys):
    def strip_wall(path):
        data = json.loads(path.read_text())
        data.pop("wall_time_s")
        return json.dumps(data, sort_keys=True)

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for path in (r1, r2):
        code = main(["search", "--k", "3", "--n", "2", "--budget", "200",
                     "--seed", "7", "--report", str(path)])
        assert code == 0
        capsys.readouterr()
    assert strip_wall(r1) == strip_wall(r2)


def test_parser_reuse_leaks_no_state(capsys):
    # the parser is built once per process: a later parse must not see
    # values or defaults left by other subcommands or by a failed parse
    search = ["search", "--k", "3", "--n", "2", "--budget", "200", "--seed", "7"]

    def search_report():
        assert main(search) == 0
        report = last_json(capsys.readouterr().out)
        report.pop("wall_time_s")
        return report

    first = search_report()
    assert main(["pair-lemma", "--k", "3", "--seed", "5"]) == 0
    with pytest.raises(SystemExit) as info:
        main(["search", "--k", "3"])  # missing --n
    assert info.value.code == 1
    capsys.readouterr()
    assert search_report() == first


def test_report_file_destination(tmp_path, capsys):
    path = tmp_path / "rep.json"
    code = main(["thresholds", "--k", "4", "--report", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "report_version" not in out  # table only; report went to the file
    from pontcalc.bounds import thresholds

    report = json.loads(path.read_text())
    assert report["subcommand"] == "thresholds"
    assert report["witness"]["g_gonality"] == thresholds(4).g_gonality


# Fixed subspace files with p/q rows, a different denominator in each block.
_FRACTIONAL_BLOCKS = {
    "pair_ok": (4, [[["1/2", "-1/2", "0", "0"], ["1", "1", "-3/2", "-1/2"]],
                    [["1/3", "1/3", "1", "-5/3"]]]),
    "pair_bad": (3, [[["1/2", "1/4", "-1/2"]], [["1/3", "1/3", "-2/3"]]]),
    "pair_orth": (3, [[["1/2", "-1/2", "0"]], [["2/5", "1/5", "-3/5"]]]),
    "ds_bad": (4, [[["1/2", "-1/2", "0", "0"]], [], [["0", "0", "1/3", "-1/3"]],
                   [["1", "1", "-3/7", "-11/7"]]]),
}


def _doublestar_text(k, blocks):
    lines = [f"{k} {len(blocks)}"]
    for rows in blocks:
        lines += [str(len(rows))] + [" ".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _star_text(k, blocks):
    # the split embedding: a row lam of block i puts lam_j at slot i of block j
    n = len(blocks)
    rows = []
    for i, block in enumerate(blocks):
        for lam in block:
            vec = ["0"] * (n * k)
            for j in range(k):
                vec[j * n + i] = lam[j]
            rows.append(" ".join(vec))
    return "\n".join([f"{k} {n}", str(len(rows))] + rows) + "\n"


def _report_sha256(out):
    kept = [line for line in out.splitlines(keepends=True) if '"wall_time_s"' not in line]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


# SHA-256 of each report with its wall_time_s line removed, or the exact
# one-line stderr of a rejected pair.  The file cases were recorded when
# Subspace still stored Fraction rows, so they pin that p/q input is
# reported exactly as given (the mu-rank pin since --file stopped taking
# --seed, so its report records seed 0); the --k cases are bench-style
# random pairs, recorded while each subcommand still declared its own
# --file, --k and --seed.
@pytest.mark.parametrize(
    "argv, code, pinned",
    [
        (["pair-lemma", "--file", "pair_ok.ds.txt"], 0,
         "7967109e561d9649f69ce046c304d94c07dc5c92ab8fed9c70b6ae3b877a979f"),
        (["mu-rank", "--file", "pair_ok.ds.txt"], 0,
         "87191b5354303b7e1af981b2efcc388578171aef3ee271c253ff0db881874471"),
        (["check-doublestar", "--file", "pair_ok.ds.txt"], 0,
         "815469cc979d8dff13df56b333953d4fe4878899bf89a3ec29ce6ae6fad7e688"),
        (["pair-lemma", "--k", "2", "--seed", "0"], 0,
         "fbdcce5167643620d19cb8a38eff43770074621f8a88ff92f650cfcf3341d680"),
        (["pair-lemma", "--k", "5", "--seed", "1234567890"], 0,
         "e5d8a0f1010335bd93f561662f343e526e9d23f848ce1c164907a82026746021"),
        (["pair-lemma", "--k", "8", "--seed", "2147483647"], 0,
         "e0f591e0f5701b5c57d60383f15cb2a9842ed2ace4fef6187dac73d5e619d2cb"),
        (["check-star", "--file", "pair_ok.star.txt"], 0,
         "785b18822fdc6edb6ba35197f040d8d3ab65a9714dff2983e4251c43061e0ba0"),
        (["check-doublestar", "--file", "pair_bad.ds.txt"], 3,
         "91fbb7fdc4b9e7cee7591d6c04f71aae39547510682d1bc224f5be364b6280b6"),
        (["check-star", "--file", "pair_bad.star.txt"], 3,
         "df0368ce89bbc850ebe65c3fd00d96707f2f5e29b9920f55138cd6913f5efdaa"),
        (["check-doublestar", "--file", "ds_bad.ds.txt"], 3,
         "501183983e01f78d58c28c5d714a6d7b71b14d2c34130009d91da1320951b429"),
        (["check-star", "--file", "ds_bad.star.txt"], 3,
         "71f6deed36dd244c70bdf5e6d2030e40e056c1a47f8543c0fbe659d82479884f"),
        (["pair-lemma", "--file", "pair_bad.ds.txt"], 1,
         "pontcalc: error: A basis row 0 has nonzero sum 1/4\n"),
        (["mu-rank", "--file", "pair_bad.ds.txt"], 1,
         "pontcalc: error: A basis row 0 has nonzero sum 1/4\n"),
        (["pair-lemma", "--file", "pair_orth.ds.txt"], 1,
         "pontcalc: error: A basis row 0 and B basis row 0 are not orthogonal, pairing 1/10\n"),
    ],
    ids=["pair-lemma", "mu-rank", "doublestar-pass", "pair-lemma-k2", "pair-lemma-k5", "pair-lemma-k8",
         "star-pass", "doublestar-sum", "star-sum",
         "doublestar-pairing", "star-pairing", "pair-lemma-sum", "mu-rank-sum",
         "pair-lemma-pairing"],
)
def test_fractional_input_reports_are_pinned(tmp_path, monkeypatch, capsys, argv, code, pinned):
    monkeypatch.chdir(tmp_path)  # relative paths keep the reports byte-identical
    for name, (k, blocks) in _FRACTIONAL_BLOCKS.items():
        (tmp_path / f"{name}.ds.txt").write_text(_doublestar_text(k, blocks))
        (tmp_path / f"{name}.star.txt").write_text(_star_text(k, blocks))
    assert main(argv) == code
    captured = capsys.readouterr()
    if code == 1:
        assert (captured.out, captured.err) == ("", pinned)
    else:
        assert captured.err == ""
        assert _report_sha256(captured.out) == pinned


@pytest.mark.parametrize("argv, text", [
    (["check-star", "--file", "{file}"], "3 1\n0\n"),
    (["check-doublestar", "--file", "{file}"], "3 2\n0\n0\n"),
    (["pair-lemma", "--file", "{file}"], "3 2\n0\n0\n"),
    (["mu-rank", "--file", "{file}"], "3 2\n0\n0\n"),
], ids=["check-star", "check-doublestar", "pair-lemma", "mu-rank"])
def test_input_with_nothing_to_check_is_a_usage_error(tmp_path, capsys, argv, text):
    # every library check holds vacuously here, but a run that checked
    # nothing does not pass
    path = tmp_path / "empty.txt"
    path.write_text(text)
    assert main([arg.replace("{file}", str(path)) for arg in argv]) == 1
    assert capsys.readouterr() == ("", "pontcalc: error: nothing to check: every block is empty\n")


def test_one_empty_block_is_still_checked(tmp_path, capsys):
    path = tmp_path / "half.txt"
    path.write_text("3 2\n1\n1 -1 0\n0\n")
    for sub, code in (("check-doublestar", 0), ("pair-lemma", 0), ("mu-rank", 0)):
        assert main([sub, "--file", str(path)]) == code, sub
        assert last_json(capsys.readouterr().out)["verdict"] == "pass"
    path.write_text("3 2\n0\n1\n1 0 0\n")
    assert main(["check-doublestar", "--file", str(path)]) == 3
