"""Contract fuzzing of the CLI: every argv ends in a report or a one-line
usage error.

Argv of the cheap subcommands is generated with small values, some of them
out of range, and (**)/pair/(*) files with p/q entries and malformed
tokens, now and then replaced by a (**) file whose violation value has
more digits than Python converts to a string by default.  A run must
either exit 0, 2 or 3 with a JSON report that repeats byte for byte (minus
``wall_time_s``) when the same argv runs again, or exit 1 with empty
stdout and one stderr line ``pontcalc: error: ...``.
The same argv with a required flag dropped, an int value mistyped or an
unknown flag added must end in that one-line error.  With ``--report`` to
a writable file, the report goes to the file and stdout keeps only the
table; with ``--report`` to a directory or into a missing one, every run
ends in the one-line error with empty stdout.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pontcalc.cli import main

small = st.integers(min_value=-1, max_value=4)

entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
bad_token = st.sampled_from(["1/0", "0/0", "x", "3/-2", "1//2", "--"])


@st.composite
def subspace_file(draw, star: bool):
    """Text of a (*) file (one block in (Q^n)^k) or a (**) file (n blocks
    in Q^k): small or out-of-range header values, blocks of small
    dimension, p/q entries with rows summing to zero in half the files,
    and now and then a token dropped, one too many or one malformed."""
    k, n = draw(st.integers(-1, 4)), draw(st.integers(-1, 3))
    width = max(k, 0) * (max(n, 0) if star else 1)
    sum_zero = draw(st.booleans())
    tokens = [str(k), str(n)]
    for _ in range(1 if star else max(n, 0)):
        dim = draw(st.integers(-1, 2))
        tokens.append(str(dim))
        for _ in range(max(dim, 0)):
            row = [draw(entry) for _ in range(width)]
            if sum_zero and row:
                row[-1] = -sum(row[:-1])
            tokens += [str(x) for x in row]
    edit = draw(st.sampled_from(["none", "none", "none", "drop", "extra", "malformed"]))
    at = draw(st.integers(0, len(tokens) - 1))
    if edit == "drop":
        del tokens[at]
    elif edit == "extra":
        tokens.append(str(draw(entry)))
    elif edit == "malformed":
        tokens[at] = draw(bad_token)
    return " ".join(tokens) + "\n"


# A (**) file of legal integer entries whose violation value 2 N^2 has 4401
# digits, past Python's default limit on int <-> str conversion.
NINES = "9" * 2200
LONG_VALUE_FILE = f"2 2\n1\n{NINES} -{NINES}\n1\n{NINES} -{NINES}\n"


def input_file(star: bool):
    """A generated subspace file, or now and then the long-value file."""
    return st.integers(0, 4).flatmap(lambda i: st.just(LONG_VALUE_FILE) if i == 0 else subspace_file(star))


def flag(name, values):
    return values.map(lambda v: [name, str(v)])


def optional(name, values):
    return st.one_of(st.just([]), flag(name, values))


def argv_of(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command] + [a for p in ps for a in p])


FILE = ["--file", "{file}"]
# a file pair takes no --seed; only the random pair of --k does
K_AND_SEED = st.tuples(flag("--k", st.integers(-1, 6)), optional("--seed", st.integers(0, 3))).map(
    lambda ps: ps[0] + ps[1])

ARGVS = {
    "identities": argv_of("identities", optional("--kmax", small), optional("--dmax", st.integers(-1, 5))),
    "thresholds": argv_of("thresholds", optional("--k", st.integers(-1, 6)),
                          optional("--g", st.integers(-1, 30))),
    "alpha": argv_of("alpha", flag("--k", small)),
    "recursion-check": argv_of("recursion-check", flag("--k", small)),
    "verify-relation": argv_of("verify-relation", flag("--k", st.integers(-1, 3)),
                               flag("--g", st.integers(-1, 2)), optional("--jmax", st.integers(-1, 3)),
                               optional("--cap", st.integers(-1, 3)),
                               optional("--method", st.sampled_from(["auto", "newton", "window"])),
                               st.just(["--out", "{dir}/cert.json"])),
    "search": argv_of("search", flag("--k", small), flag("--n", st.integers(-1, 3)),
                      flag("--budget", st.integers(-1, 30)), optional("--seed", st.integers(0, 3)),
                      st.just(["--artifact", "{dir}/found.json"])),
    "gamma-check": argv_of("gamma-check", optional("--g", st.integers(-1, 2)),
                           optional("--rank", st.integers(-1, 2)), optional("--trials", st.integers(-1, 2)),
                           optional("--kmax", st.integers(-1, 3)), optional("--seed", st.integers(0, 3))),
    "pair-lemma": argv_of("pair-lemma", st.one_of(st.just(FILE), K_AND_SEED, st.just([]))),
    "mu-rank": argv_of("mu-rank", st.one_of(st.just(FILE), K_AND_SEED)),
    "check-star": argv_of("check-star", st.just(FILE)),
    "check-doublestar": argv_of("check-doublestar", st.just(FILE)),
}


# flags argparse itself requires; dropping one must be a usage error
REQUIRED = {
    "alpha": ["--k"],
    "recursion-check": ["--k"],
    "verify-relation": ["--k", "--g"],
    "search": ["--k", "--n"],
    "check-star": ["--file"],
    "check-doublestar": ["--file"],
}

# neither a flag of any subcommand nor a prefix of one (argparse accepts prefixes)
unknown_flag = st.sampled_from(["--bogus", "--workers", "--profile", "--kk"])
not_an_int = st.sampled_from(["x", "1.5", "3/2", "0x1", "", "one", "2e3"])


@st.composite
def broken_argv(draw, command):
    """A well-typed argv of ``command`` with one argparse-level fault: a
    required flag dropped, an int value mistyped, or an unknown flag added."""
    argv = draw(ARGVS[command])
    int_values = [i for i in range(2, len(argv), 2) if argv[i].lstrip("-").isdigit()]
    edits = ["unknown"]
    edits += ["drop"] if command in REQUIRED else []
    edits += ["mistype"] if int_values else []
    edit = draw(st.sampled_from(edits))
    if edit == "drop":
        at = argv.index(draw(st.sampled_from(REQUIRED[command])))
        del argv[at:at + 2]
    elif edit == "mistype":
        argv[draw(st.sampled_from(int_values))] = draw(not_an_int)
    else:
        at = draw(st.sampled_from(range(1, len(argv) + 1, 2)))
        argv[at:at] = [draw(unknown_flag), str(draw(small))]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits instead of returning
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_one_line_error(argv, code, out, err):
    assert code == 1, (argv, code)
    assert out == "", (argv, out)
    assert len(err.splitlines()) == 1 and err.startswith("pontcalc: error: "), (argv, err)


def without_wall_time(report_text):
    return [line for line in report_text.splitlines() if '"wall_time_s"' not in line]


def with_input(argv, text, tmp):
    """``argv`` with ``{file}`` naming a file in ``tmp`` that holds ``text``
    and ``{dir}`` naming ``tmp``."""
    path = os.path.join(tmp, "input.txt")
    with open(path, "w") as fh:
        fh.write(text)
    return [a.replace("{file}", path).replace("{dir}", tmp) for a in argv]


def read_text(path):
    with open(path) as fh:
        return fh.read()


@pytest.mark.parametrize("command", list(ARGVS))
@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_ends_in_a_report_or_one_line_error(command, data):
    argv = data.draw(ARGVS[command])
    text = data.draw(input_file(star=command == "check-star"))
    with tempfile.TemporaryDirectory() as tmp:
        argv = with_input(argv, text, tmp)
        code, out, err = run(argv)
        if code == 1:
            assert_one_line_error(argv, code, out, err)
            return
        assert code in (0, 2, 3), (argv, code)
        assert err == "", (argv, err)
        start = out.rfind("\n{\n") + 1
        report = json.loads(out[start:])
        assert report["verdict"] == {0: "pass", 2: "inconclusive", 3: "fail"}[code]
        again = run(argv)
        assert again[0] == code and again[2] == ""
        assert without_wall_time(again[1]) == without_wall_time(out), argv


@pytest.mark.parametrize("command", list(ARGVS))
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_argparse_errors_are_one_line_errors(command, data):
    argv = data.draw(broken_argv(command))
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{file}", os.path.join(tmp, "input.txt")).replace("{dir}", tmp) for a in argv]
        assert_one_line_error(argv, *run(argv))


REPORT_DESTINATIONS = {
    "file": "{dir}/report.json",
    "missing-dir": "{dir}/missing/report.json",
    "dir": "{dir}",
}


@pytest.mark.parametrize("dest", list(REPORT_DESTINATIONS))
@pytest.mark.parametrize("command", list(ARGVS))
@settings(max_examples=10, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_report_destinations(command, dest, data):
    argv = data.draw(ARGVS[command])
    text = data.draw(input_file(star=command == "check-star"))
    with tempfile.TemporaryDirectory() as tmp:
        argv = with_input(argv, text, tmp)
        report = REPORT_DESTINATIONS[dest].replace("{dir}", tmp)
        code, out, err = run(argv + ["--report", report])
        if dest != "file" or code == 1:
            assert_one_line_error(argv, code, out, err)
            assert dest != "file" or not os.path.exists(report), argv
            return
        assert err == "", (argv, err)
        written = read_text(report)
        # stdout holds the table alone: with the report it is the plain run's output
        plain = run(argv)
        assert plain[0] == code, argv
        assert without_wall_time(out + written) == without_wall_time(plain[1]), argv
        again = run(argv + ["--report", report])
        assert again[:2] == (code, out) and again[2] == "", argv
        assert without_wall_time(read_text(report)) == without_wall_time(written), argv
