"""The CLI's fixed cost per run: the option table and the report writer.

``cli._parse_exact`` reads an argv of the exact form ``SUB --opt VALUE ...``
from the option table and must give argparse's namespace whenever it
accepts; it may never accept an argv that argparse rejects.  The bench's
argv all take that path, so argparse is never built for them.
``cycles.json_text``, which writes reports, must give the bytes of
``json.dumps(indent=2, sort_keys=True)`` for every value a report can
hold, and raise for any other.
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pontcalc import cli, cycles

# ---------------------------------------------------------------------------
# the report writer
# ---------------------------------------------------------------------------

# quotes, backslashes, control characters, non-ASCII and astral characters
special_text = st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\r\bé €\U0001f600ab '), max_size=6)
text = st.one_of(special_text, st.text(max_size=6))
# ints past Python's default limit of 4300 digits on int <-> str conversion
huge_int = st.builds(lambda sign, n, tail: sign * (10**n + tail), st.sampled_from([1, -1]),
                     st.integers(4300, 4400), st.integers(0, 10**6))
scalar = st.one_of(
    st.none(),
    st.sampled_from([True, 1, False, 0]),
    st.integers(),
    huge_int,
    st.floats(allow_nan=False, allow_infinity=False),
    text,
)
json_value = st.recursive(
    scalar,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(text, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(value=json_value)
def test_json_text_matches_the_stdlib(value):
    with cli._unlimited_int_digits():
        assert cycles.json_text(value) == json.dumps(value, indent=2, sort_keys=True)


def test_json_text_matches_the_stdlib_on_mixed_bools_and_empties():
    value = {"b": [True, 1, False, 0, None], "a": {}, "c": [[], (), {"": ()}], "é": {"x": [{}]}}
    assert cycles.json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), [1.0, float("nan")], {"a": {"b": float("inf")}},
    Fraction(1, 2), b"x", {1, 2}, object(), {1: "a"}, {"a": 1, None: 2}, [{"a": complex(1, 2)}],
], ids=lambda value: "object()" if type(value) is object else repr(value))
def test_json_text_rejects_values_reports_do_not_hold(value):
    with pytest.raises((TypeError, ValueError)):
        cycles.json_text(value)


# ---------------------------------------------------------------------------
# the option table against argparse
# ---------------------------------------------------------------------------

FLAGS = sorted({flag for command in cli._COMMANDS.values() for flag in command.options})
VALUES = ["0", "1", "3", "12", "-1", "-3", "-", "--", "", "1_0", "٣", " 4", "+2", "x", "2.0",
          "auto", "newton", "window", "Auto", "f.txt", "-h"]
VALID = {"--method": "window", "--file": "f.txt", "--out": "f.txt", "--artifact": "f.txt", "--report": "f.txt"}


@st.composite
def argv(draw):
    """An argv around the exact form: a subcommand, now and then an unknown
    one or ``-h``, its required options and group member in three
    draws of four, then option strings of any subcommand and their prefixes, with
    values, ``--opt=value``, bare flags, help flags and repeats."""
    name = draw(st.sampled_from([*cli._COMMANDS, "nosuch", "-h", "--report"]))
    command = cli._COMMANDS.get(name)
    own = list(command.options) if command else FLAGS
    out = [name]
    if command is not None and draw(st.integers(0, 3)):
        group = [opt for opt in command.options.values() if opt.one_of]
        for opt in [opt for opt in command.options.values() if opt.required] + group[:1]:
            out += [opt.flag, VALID.get(opt.flag, draw(st.sampled_from(["2", "3"])))]
    for _ in range(draw(st.integers(0, 3))):
        flag = draw(st.sampled_from(own) if draw(st.integers(0, 7)) else st.sampled_from(FLAGS))
        value = VALID.get(flag, "2") if draw(st.integers(0, 2)) else draw(st.sampled_from(VALUES))
        form = draw(st.sampled_from(["pair"] * 15 + ["prefix", "equals", "bare", "help", "value"]))
        if form == "pair":
            out += [flag, value]
        elif form == "prefix":
            out += [flag[:draw(st.integers(2, len(flag) - 1))], value]
        elif form == "equals":
            out += [f"{flag}={value}"]
        elif form == "bare":
            out += [flag]
        elif form == "help":
            out += [draw(st.sampled_from(["-h", "--help", "--he"]))]
        else:
            out += [value]
    return out


def argparse_outcome(args):
    """argparse's namespace as a dict, or the exit code it stopped with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(args))
        except SystemExit as exc:
            return exc.code


@settings(max_examples=1500, derandomize=True, database=None, deadline=None)
@given(args=argv())
def test_table_path_agrees_with_argparse(args):
    fast = cli._parse_exact(args)
    if fast is not None:
        assert argparse_outcome(args) == vars(fast), args


@pytest.mark.parametrize("name", list(cli._COMMANDS))
def test_every_option_of_every_subcommand_takes_the_table_path(name):
    # each option once, a group member alone, values of the option's type
    command = cli._COMMANDS[name]
    values = {int: "2", str: "f.txt"}
    seen_group = False
    args = [name]
    for opt in command.options.values():
        if opt.one_of and seen_group:
            continue
        seen_group |= opt.one_of
        args += [opt.flag, opt.choices[-1] if opt.choices else values[opt.type]]
    fast = cli._parse_exact(args)
    assert fast is not None, args
    assert vars(fast) == argparse_outcome(args)


# ---------------------------------------------------------------------------
# the bench's argv never build argparse
# ---------------------------------------------------------------------------

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads(monkeypatch):
    # its dataclass looks itself up in sys.modules while it is defined
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _jobs_by_shape(workloads):
    """The warm-up argv and one job of each argv shape (the subcommand and
    its flags in order) of every workload at one seed, with the files."""
    shapes, files = {}, {}
    for name, build in workloads.BUILDERS.items():
        jobs, inputs = build(7)
        files.update(inputs)
        warmup = workloads.Job(workloads.WARMUP[name], 0, lambda *_: None)
        for job in [warmup, *jobs]:
            shapes.setdefault((job.argv[0], *job.argv[1::2]), job)
    return list(shapes.values()), files


def test_bench_argv_run_without_argparse(tmp_path, monkeypatch, capsys):
    workloads = _load_workloads(monkeypatch)
    jobs, files = _jobs_by_shape(workloads)
    assert len(jobs) >= 14

    def no_argparse():
        raise AssertionError("argparse built for an exact-form argv")

    monkeypatch.setattr(cli, "_build_parser", no_argparse)
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(content)
    for job in jobs:
        code = cli.main(job.argv)
        out = capsys.readouterr().out
        report = out[out.rfind("\n{\n") + 1:].encode()
        cert = (tmp_path / job.cert).read_bytes() if job.cert and os.path.exists(job.cert) else None
        assert workloads.check_output(job, code, report, out, cert) is None, job.argv
