"""End-to-end command line coverage with frozen outputs."""

import contextlib
import io
import json
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exocone import ExoticVector, SuiteReport
from exocone.cli import _build_parser, main
from exocone.verify import suite_names


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "2")
    assert code == 0
    assert out.splitlines() == [
        "lambda=2 a=2 mu=2 nu=-",
        "lambda=2 a=1 mu=1 nu=1",
        "lambda=2 a=- mu=- nu=2",
        "lambda=1,1 a=0,1 mu=1,1 nu=-",
        "lambda=1,1 a=- mu=- nu=1,1",
    ]


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == [
        {"lambda": [1], "a": [1], "mu": [1], "nu": []},
        {"lambda": [1], "a": [], "mu": [], "nu": [1]},
    ]


def test_convert_both_directions(capsys):
    code, out, _ = run(capsys, "convert", "--lambda", "2", "--a", "1")
    assert (code, out) == (0, "mu=1 nu=1\n")
    code, out, _ = run(
        capsys, "convert", "--mu", "1", "--nu", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"lambda": [2], "a": [1]}


def test_convert_requires_a_side(capsys):
    code, _, err = run(capsys, "convert")
    assert code == 2
    assert "either --lambda/--a or --mu/--nu" in err


def _one_line_error(code, out, err):
    lines = err.strip().splitlines()
    return (code, out, len(lines)) == (2, "", 1) and lines[0].startswith(
        "error: "
    )


def test_convert_rejects_both_sides(capsys):
    for argv in (
        ("--lambda", "1", "--a", "1", "--mu", "1"),
        ("--lambda", "1", "--nu", "1"),
        ("--a", "1", "--mu", "1"),
    ):
        assert _one_line_error(*run(capsys, "convert", *argv))


def test_dpoly(capsys):
    code, out, _ = run(capsys, "dpoly", "--mu", "1,1", "--nu", "")
    assert (code, out) == (0, "e1^2 - e2^2\n")
    code, out, _ = run(
        capsys, "dpoly", "--mu", "", "--nu", "1,1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "vars": 2,
        "terms": [{"c": "1", "e": [3, 1]}, {"c": "-1", "e": [1, 3]}],
    }


def test_joseph(capsys):
    code, out, _ = run(
        capsys, "joseph", "--n", "2", "--ambient", "exotic",
        "--span", "1,1;1,-1",
    )
    assert (code, out) == (0, "e1*e2\n")
    code, out, _ = run(capsys, "joseph", "--n", "2", "--ambient", "ordinary")
    assert (code, out) == (0, "4*e1^3*e2 - 4*e1*e2^3\n")
    code, out, _ = run(capsys, "joseph", "--n", "2", "--span", "all")
    assert (code, out) == (0, "1\n")


def test_dim(capsys):
    code, out, _ = run(capsys, "dim", "--lambda", "2", "--a", "1")
    assert (code, out) == (0, "6\n")
    code, out, _ = run(capsys, "dim", "--n", "3")
    assert (code, out) == (0, "18\n")


def test_dim_rejects_bad_mark(capsys):
    code, _, err = run(capsys, "dim", "--lambda", "2", "--a", "3")
    assert code == 2
    assert "mark 3 out of range for part 2" in err


def test_dim_rejects_bad_rank(capsys):
    assert _one_line_error(*run(capsys, "dim", "--n", "-1"))
    assert _one_line_error(*run(capsys, "dim", "--lambda", "2", "--n", "2"))


@pytest.mark.parametrize(
    "stdin",
    [
        '{"n": 1}',
        "[1]",
        '{"n": 1, "x1": ["0", "0"], "x2_upper": [[1, 5, "1"]]}',
        "not json",
        '{"n": 1, "x1": [1e400, 0], "x2_upper": []}',
        pytest.param("[" * 200000, id="deeply-nested"),
    ],
)
def test_invariant_rejects_bad_input(capsys, monkeypatch, stdin):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert _one_line_error(*run(capsys, "invariant"))


def test_special(capsys):
    code, out, _ = run(capsys, "special", "--lambda", "2", "--a", "1")
    assert (code, out) == (0, "e1 -> e2, e2 -> -e1\n")
    code, out, _ = run(
        capsys, "special", "--lambda", "1,1", "--a", "0,1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == {"image": [[1, -1], [2, 1]]}


def test_rep(capsys):
    code, out, _ = run(capsys, "rep", "--lambda", "1,1", "--a", "0,1")
    assert code == 0
    assert json.loads(out) == {
        "n": 2, "x1": ["0", "1", "0", "0"], "x2_upper": [],
    }


def test_rep_prints_the_same_point_in_both_formats(capsys):
    argv = ("rep", "--lambda", "2,1", "--a", "1,0")
    code, text, _ = run(capsys, *argv, "--format", "text")
    assert code == 0
    code, as_json, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert text == as_json
    point = ExoticVector.from_json(json.loads(text))
    assert point.n == 3 and point.to_json() == json.loads(as_json)


def test_rep_invariant_round_trip(capsys, monkeypatch):
    code, out, _ = run(capsys, "rep", "--lambda", "2", "--a", "1")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "invariant")
    assert (code, out) == (0, "lambda=2 a=1\n")


def test_count(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--q", "2")
    assert (code, out) == (0, "exotic=256 nilpotent=256 ml_bijective=true\n")
    code, out, _ = run(
        capsys, "count", "--n", "1", "--q", "4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {
        "n": 1, "q": 4, "exotic": 16, "nilpotent": 16, "ml_bijective": True,
    }


def test_count_needs_long_flag(capsys):
    code, _, err = run(capsys, "count", "--n", "2", "--q", "4")
    assert code == 2
    assert "pass long=True" in err


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "table-n2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines[:10])
    assert lines[-1] == "suite table-n2: PASS"


def test_verify_suite_json(capsys, monkeypatch):
    _build_parser()  # the run_suite patch below must reach a cached parser
    code, text, _ = run(capsys, "verify", "--suite", "table-n2")
    code_json, out, _ = run(
        capsys, "verify", "--suite", "table-n2", "--format", "json"
    )
    assert code == code_json == 0
    assert json.loads(out) == {
        "suite": "table-n2", "ok": True, "lines": text.splitlines()[:-1],
    }
    failing = SuiteReport("charp", False, ("FAIL transport n=1 q=2",))
    monkeypatch.setattr("exocone.cli.run_suite", lambda name, long: failing)
    code, out, _ = run(capsys, "verify", "--suite", "charp")
    assert (code, out) == (1, "FAIL transport n=1 q=2\nsuite charp: FAIL\n")
    code, out, _ = run(capsys, "verify", "--suite", "charp", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "suite": "charp", "ok": False, "lines": ["FAIL transport n=1 q=2"],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--n", "21"),
        ("enumerate", "--n", "-1"),
        ("joseph", "--n", "8"),
        ("joseph", "--n", "8", "--ambient", "ordinary"),
        ("dpoly", "--mu", "1,1,1,1,1", "--nu", "2,2"),
        ("convert", "--mu", "11", "--nu", "10"),
        ("rep", "--lambda", "21"),
        ("invariant",),
        ("dim", "--lambda", "21"),
        ("special", "--lambda", "21"),
    ],
)
def test_size_guards(capsys, monkeypatch, argv):
    # read only by invariant: a point of rank 13
    point = json.dumps(ExoticVector.zero(13).to_json())
    monkeypatch.setattr("sys.stdin", io.StringIO(point))
    assert _one_line_error(*run(capsys, *argv))


def test_argparse_failures(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["badcmd"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2
    capsys.readouterr()


def _request(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_holds_no_state_between_requests():
    assert _build_parser() is _build_parser()
    point = json.dumps(ExoticVector.zero(2).to_json())
    requests = [
        (["dim", "--n", "3"], ""),
        # a leaked --n would make this dim request exit 2
        (["dim", "--lambda", "2", "--a", "1"], ""),
        (["dim", "--n"], ""),  # argparse rejects it
        (["enumerate", "--n", "2"], ""),
        (["convert", "--lambda", "2", "--a", "1", "--mu", "1"], ""),  # exit 2
        (["convert", "--mu", "1", "--nu", "1"], ""),
        (["dpoly", "--mu", "1,1"], ""),
        (["joseph", "--n", "2", "--ambient", "ordinary"], ""),
        (["rep", "--lambda", "2", "--a", "1"], ""),
        (["invariant"], point),
        (["special", "--lambda", "2", "--a", "1"], ""),
        (["count", "--n", "1", "--q", "2"], ""),
        (["dim", "--n", "3"], ""),
    ]
    requests += [(argv + ["--format", "json"], stdin) for argv, stdin in requests]
    cached = [_request(argv, stdin) for argv, stdin in requests]
    with mock.patch(
        "exocone.cli._build_parser", lambda: _build_parser.__wrapped__()
    ):
        fresh = [_request(argv, stdin) for argv, stdin in requests]
    assert cached == fresh
    codes = [code for code, _, _ in cached]
    assert codes.count(2) == 4 and codes.count(0) == len(codes) - 4


def test_deterministic_output(capsys):
    first = run(capsys, "enumerate", "--n", "3", "--format", "json")
    second = run(capsys, "enumerate", "--n", "3", "--format", "json")
    assert first == second


def test_console_script_pipe():
    rep = subprocess.run(
        [sys.executable, "-c",
         "from exocone.cli import main; raise SystemExit(main())",
         "rep", "--lambda", "2", "--a", "2"],
        capture_output=True, text=True,
    )
    assert rep.returncode == 0
    inv = subprocess.run(
        [sys.executable, "-c",
         "from exocone.cli import main; raise SystemExit(main())",
         "invariant"],
        input=rep.stdout, capture_output=True, text=True,
    )
    assert inv.returncode == 0
    assert inv.stdout == "lambda=2 a=2\n"


# Fuzzed command lines (every subcommand, verify with only its fastest
# suites, with option values argparse accepts, passed as --opt=value so a
# leading "-" is a value) and fuzzed points on the stdin of invariant.
_junk = st.text(max_size=8)
_parts = st.one_of(
    st.lists(st.integers(-3, 25), max_size=6).map(
        lambda xs: ",".join(map(str, xs))
    ),
    st.lists(st.integers(), min_size=1, max_size=3).map(
        lambda xs: ",".join(map(str, xs))
    ),
    st.from_regex(r"[0-9]{20,60}", fullmatch=True),
    _junk,
)
_weights = st.one_of(
    st.lists(_parts, max_size=4).map(";".join), st.just("all"), _junk
)
_number = st.one_of(
    st.integers(-2, 2),
    st.integers(),
    st.floats(),
    st.sampled_from(
        [1e400, -1e400, float("nan"), "1/3", "1e400", "1e999999999", "-0.5"]
    ),
)
_scalar = st.one_of(_number, _number, st.none(), st.booleans(), _junk)
_json = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=10,
)


@st.composite
def _shaped_point(draw):
    # mostly numbers, so that one bad entry is often the only one
    entry = st.one_of(_number, _number, _number, _scalar)
    n = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(1, 2 * n + 1) for j in range(i + 1, 2 * n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=4))
    return {
        "n": n,
        "x1": draw(st.lists(entry, min_size=2 * n, max_size=2 * n)),
        "x2_upper": [[i, j, draw(entry)] for i, j in chosen],
    }


def _options(draw, names):
    argv = []
    for name in names:
        if draw(st.booleans()):
            argv.append(f"{name}={draw(_parts)}")
    return argv


@st.composite
def _argv(draw):
    command = draw(
        st.sampled_from(
            ["enumerate", "convert", "dpoly", "joseph", "rep", "dim",
             "special", "count", "invariant", "verify"]
        )
    )
    argv = [command, f"--format={draw(st.sampled_from(['json', 'text']))}"]
    rank = st.one_of(st.integers(-3, 12), st.integers(21, 10**30))
    if command == "enumerate":
        argv.append(f"--n={draw(rank)}")
    elif command == "convert":
        argv += _options(draw, ["--lambda", "--a", "--mu", "--nu"])
    elif command == "dpoly":
        argv += _options(draw, ["--mu", "--nu"])
    elif command == "joseph":
        argv.append(f"--n={draw(st.integers(-2, 4))}")
        argv.append(f"--ambient={draw(st.sampled_from(['exotic', 'ordinary']))}")
        for name in ("--span", "--eqs"):
            if draw(st.booleans()):
                argv.append(f"{name}={draw(_weights)}")
    elif command in ("rep", "special"):
        argv.append(f"--lambda={draw(_parts)}")
        argv += _options(draw, ["--a"])
    elif command == "dim":
        argv += _options(draw, ["--lambda", "--a"])
        if draw(st.booleans()):
            argv.append(f"--n={draw(rank)}")
    elif command == "count":
        argv.append(f"--n={draw(st.integers(-2, 1))}")
        argv.append(f"--q={draw(st.integers(-2, 6))}")
    elif command == "verify":
        # each of these suites takes a few ms; a junk name exits 2 in argparse
        suite = st.sampled_from(["table-n2", "macdonald", "dconvention"])
        junk = _junk.filter(lambda s: s not in suite_names())
        argv.append(f"--suite={draw(st.one_of(suite, junk))}")
        if draw(st.booleans()):
            argv.append("--long")
    return argv


def _assert_exit_contract(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's own rejection, as in test_argparse_failures
            assert exc.code == 2
            return
    assert code in (0, 1, 2)
    if code == 2:
        assert _one_line_error(code, out.getvalue(), err.getvalue())


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_argv(), _json)
def test_cli_fuzz_argv_keeps_the_exit_contract(argv, data):
    _assert_exit_contract(argv, json.dumps(data))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(["json", "text"]), st.one_of(_shaped_point(), _json))
def test_cli_fuzz_stdin_keeps_the_exit_contract(fmt, data):
    _assert_exit_contract(["invariant", f"--format={fmt}"], json.dumps(data))
