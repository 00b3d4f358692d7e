"""CLI behavior: output shapes, exit codes, determinism."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthk import genfun, perm, stats, verify
from widthk.cli import FORMATS, _emit_kv, _factored_g, main
from widthk.errors import EnumerationCapError, InvalidInputError
from widthk.poly import LaurentPoly
from widthk.verify import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stat_des_plain(capsys):
    code, out, _ = run(
        capsys, "stat", "--perm", "4136572", "--widths", "2,3", "--stat", "des"
    )
    assert code == 0
    assert out.splitlines() == [
        "des_{2,3}(4136572) = 3",
        "Des_2 = {1,5}",
        "Des_3 = {4}",
        "Des_{2,3} = {1,4,5}",
    ]


def test_stat_inv_json(capsys):
    code, out, _ = run(
        capsys,
        "stat", "--perm", "4136572", "--widths", "2,3", "--stat", "inv",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 5
    assert data["inv"] == [[1, 3], [1, 7], [3, 7], [4, 7], [5, 7]]
    assert data["inv_by_width"]["3"] == [[1, 7], [4, 7]]


_WORKED = {"perm": "4136572", "widths": [2, 3]}


@pytest.mark.parametrize(
    "name, fields",
    [
        ("des", {"des": {"2": [1, 5], "3": [4]}, "multiset": [1, 4, 5], "count": 3}),
        (
            "inv",
            {
                "inv_by_width": {"2": [[1, 3], [1, 7], [3, 7], [5, 7]], "3": [[1, 7], [4, 7]]},
                "inv": [[1, 3], [1, 7], [3, 7], [4, 7], [5, 7]],
                "count": 5,
            },
        ),
    ],
)
def test_stat_json_layout_is_exact(capsys, name, fields):
    # keys, their order and their values, byte for byte
    code, out, _ = run(
        capsys,
        "stat", "--perm", "4136572", "--widths", "2,3", "--stat", name,
        "--format", "json",
    )
    assert code == 0
    assert out == json.dumps({**_WORKED, "statistic": name, **fields}) + "\n"


def test_stat_exc_and_maj(capsys):
    code, out, _ = run(
        capsys, "stat", "--perm", "4136572", "--widths", "2,3", "--stat", "maj"
    )
    assert code == 0
    assert out.splitlines()[0] == "maj_{2,3}(4136572) = 6"
    code, out, _ = run(
        capsys,
        "stat", "--perm", "4136572", "--widths", "2,3", "--stat", "exc",
        "--format", "csv",
    )
    assert code == 0
    assert "value,4" in out.splitlines()


@given(
    word=st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n + 1))),
    widths=st.sets(st.integers(1, 11), min_size=1, max_size=4),
    name=st.sampled_from(["exc", "maj"]),
)
@settings(max_examples=200, deadline=None)
def test_stat_value_is_the_sum_of_the_width_values(word, widths, name):
    # `stat` prints the width set's value as the sum of the per-width values;
    # the library computes it in one scan over the whole width set
    widths = sorted(k for k in widths if k <= max(len(word) - 1, 1)) or [1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([
            "stat", "--perm", ",".join(map(str, word)), "--stat", name,
            "--widths", ",".join(map(str, widths)), "--format", "json",
        ])
    assert code == 0
    data = json.loads(out.getvalue())
    fn = stats.exc if name == "exc" else stats.maj
    assert data["value"] == fn(word, widths)
    assert data["by_width"] == {str(k): fn(word, k) for k in widths}


def test_stat_rejects_bad_input(capsys):
    code, _, err = run(capsys, "stat", "--perm", "4106", "--stat", "des")
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys, "stat", "--perm", "123", "--widths", "0", "--stat", "des"
    )
    assert code == 2
    code, _, err = run(
        capsys, "stat", "--perm", "123", "--widths", "5", "--stat", "des"
    )
    assert code == 2  # width sets live inside [1, n-1]
    code, out, _ = run(capsys, "stat", "--perm", "1", "--stat", "des")
    assert code == 0 and out.splitlines()[0] == "des_{1}(1) = 0"


def test_gf_brute_matches_closed(capsys):
    code, out, _ = run(
        capsys, "gf", "--n", "6", "--stat", "des", "--width", "3", "--method", "all"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "brute: 90 + 270*q + 270*q^2 + 90*q^3"
    assert lines[1] == "closed: 90 + 270*q + 270*q^2 + 90*q^3"
    assert lines[2] == "agreement: yes"


def test_gf_recursion_route(capsys):
    code, out, _ = run(
        capsys,
        "gf", "--n", "5", "--stat", "des", "--width", "2", "--avoid", "312",
        "--method", "recursion",
    )
    assert code == 0
    assert out.strip() == "recursion: 8 + 21*q + 11*q^2 + 2*q^3"


def test_gf_width_set_product(capsys):
    code, out, _ = run(
        capsys,
        "gf", "--n", "4", "--stat", "des", "--widths", "1,2",
        "--avoid", "132,231", "--method", "all", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is True
    assert data["widths"] == [1, 2]
    methods = {r["method"] for r in data["results"]}
    assert methods == {"brute", "closed"}
    for r in data["results"]:
        assert r["poly"]["terms"] == [[0, 1], [1, 1], [2, 2], [3, 2], [4, 1], [5, 1]]


@pytest.mark.parametrize(
    "method, keys",
    [
        ("all", ["n", "statistic", "widths", "patterns", "results", "agree"]),
        ("closed", ["n", "statistic", "widths", "patterns", "results"]),
    ],
)
def test_gf_json_key_order(capsys, method, keys):
    code, out, _ = run(
        capsys,
        "gf", "--n", "5", "--stat", "inv", "--width", "2", "--avoid", "132,312",
        "--method", method, "--format", "json",
    )
    assert code == 0 and list(json.loads(out)) == keys


def test_gf_csv(capsys):
    code, out, _ = run(
        capsys,
        "gf", "--n", "4", "--stat", "des", "--width", "2", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines() == [
        "method,exponent,coefficient",
        "brute,0,6",
        "brute,1,12",
        "brute,2,6",
    ]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("stat", "--perm", "312", "--stat", "des", "--widths", "1,x"),
         "cannot parse widths from '1,x'"),
        (("gf", "--n", "5", "--stat", "des", "--widths", "2,0"),
         "widths must be positive integers, got '2,0'"),
        (("gtable", "--n", "4,"), "cannot parse sizes from '4,'"),
        (("gtable", "--n=3,-1"), "sizes must be nonnegative integers, got '3,-1'"),
    ],
)
def test_bad_comma_lists_exit_2_with_one_line(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_closed_des_runs_past_the_recursion_limit(capsys):
    # the Eulerian rows are built by a loop, not one frame per level
    code, out, err = run(
        capsys, "gf", "--n", "600", "--stat", "des", "--width", "1", "--method", "closed"
    )
    assert code == 0 and err == "" and out.startswith("closed: 1 + ")


def test_gf_inapplicable_method_exits_2(capsys):
    code, _, err = run(
        capsys, "gf", "--n", "5", "--stat", "exc", "--method", "closed"
    )
    assert code == 2 and "no closed formula" in err
    code, _, err = run(
        capsys, "gf", "--n", "5", "--stat", "des", "--method", "recursion"
    )
    assert code == 2
    code, out, err = run(
        capsys,
        "gf", "--n", "5", "--stat", "des", "--widths", "1,2", "--avoid", "312",
        "--method", "recursion",
    )
    # the recursion handles one width at a time, so the message names the widths
    assert code == 2 and out == ""
    assert err == (
        "error: no recursion formula applies to statistic 'des' at widths {1,2} "
        "with patterns '312'\n"
    )
    code, out, err = run(
        capsys, "gf", "--n", "5", "--stat", "inv", "--width", "2", "--avoid", "123",
        "--method", "closed",
    )
    assert code == 2 and out == ""
    assert err == (
        "error: no closed formula applies to statistic 'inv' at widths {2} "
        "with patterns '123'\n"
    )


def test_gf_width_beyond_n_exits_2(capsys):
    # a single width is bounded by n like a width set, whatever the route
    for method in ("all", "closed", "brute"):
        code, out, err = run(
            capsys, "gf", "--n", "5", "--stat", "des", "--width", "9", "--method", method
        )
        assert code == 2 and out == ""
        assert err == "error: width 9 not contained in [1, 4]\n"
    code, out, _ = run(capsys, "gf", "--n", "1", "--stat", "des")
    assert code == 0 and out == "brute: 1\n"
    code, out, _ = run(capsys, "gf", "--n", "1", "--stat", "des", "--widths", "1")
    assert code == 0 and out == "brute: 1\n"


def test_gf_brute_over_sn_beyond_a_byte_exits_2(capsys, monkeypatch):
    # S_n's brute batches hold one letter per byte: with the cap raised,
    # n = 256 is refused with one error line before a word is built, while
    # a class of 256 still counts from the walk's lists
    monkeypatch.setenv("WIDTHK_MAX_N", "300")
    monkeypatch.setattr(perm, "_BYTES", None)  # building a batch would fail
    for n in ("256", "300"):
        code, out, err = run(capsys, "gf", "--n", n, "--stat", "inv", "--method", "brute")
        assert code == 2 and out == ""
        assert err == f"error: brute-force counting over S_n takes n <= 255, got n={n}\n"
    code, out, _ = run(capsys, "gf", "--n", "256", "--stat", "des", "--avoid", "21")
    assert code == 0 and out == "brute: 1\n"


def test_gf_route_disagreement_exits_1(capsys, monkeypatch):
    # force the registered recursion to emit garbage: 'all' must flag it
    monkeypatch.setitem(
        genfun.RECURSIONS, ((3, 1, 2),), lambda n, k: LaurentPoly({0: 1})
    )
    code, out, _ = run(
        capsys,
        "gf", "--n", "4", "--stat", "des", "--width", "1", "--avoid", "312",
        "--method", "all",
    )
    assert code == 1
    assert "agreement: NO" in out


def test_gf_cache_dir_option_is_gone(capsys):
    code, out, err = run(
        capsys,
        "gf", "--n", "5", "--stat", "des", "--width", "2", "--avoid", "312",
        "--method", "recursion", "--cache-dir", "D",
    )
    assert code == 2 and out == ""
    assert "unrecognized arguments: --cache-dir D" in err
    assert "Traceback" not in err


def test_tpoly(capsys):
    code, out, _ = run(capsys, "tpoly", "--n", "3")
    assert code == 0
    assert out.strip() == "1 + 2*t1 + 2*t1*t2 + t1^2*t2"
    code, out, _ = run(capsys, "tpoly", "--n", "3", "--format", "csv")
    assert out.splitlines() == [
        "t1,t2,coefficient",
        "0,0,1",
        "1,0,2",
        "1,1,2",
        "2,1,1",
    ]


@pytest.mark.parametrize("n", range(4))
def test_tpoly_csv_rows_match_the_header(capsys, n):
    # n <= 1 has no variable, so each row is the coefficient alone
    code, out, _ = run(capsys, "tpoly", "--n", str(n), "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == [f"t{g}" for g in range(1, n)] + ["coefficient"]
    assert rows and all(len(row) == len(header) for row in rows)
    assert sum(int(row[-1]) for row in rows) == math.factorial(n)


def test_tpoly_answers_up_to_the_cap(capsys):
    code, out, _ = run(capsys, "tpoly", "--n", "9", "--format", "json")
    assert code == 0
    assert sum(c for _, c in json.loads(out)["terms"]) == math.factorial(9)


def test_gtable_plain_and_csv(capsys):
    code, out, _ = run(capsys, "gtable", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "G[4,1] = 4*A_3(q) = 4 + 16*q + 4*q^2",
        "G[4,2] = 24",
        "G[4,3] = 4*q^-2*A_3(q) = 4*q^-2 + 16*q^-1 + 4",
    ]
    code, out, _ = run(capsys, "gtable", "--n", "4", "--format", "csv")
    assert out.splitlines()[0] == "n,k,exponent,coefficient"
    assert "4,3,-2,4" in out.splitlines()


def test_gtable_json_matches_polynomials(capsys):
    code, out, _ = run(capsys, "gtable", "--n", "5,6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [(r["n"], r["k"]) for r in rows] == [
        (5, k) for k in range(1, 5)
    ] + [(6, k) for k in range(1, 6)]
    for r in rows:
        expected = genfun.closed_g(r["n"], r["k"])
        assert LaurentPoly(map(tuple, r["poly"]["terms"])) == expected


def test_factored_g_labels_only_a_matching_row():
    assert _factored_g(genfun.closed_g(10, 2), 10, 2) == "6300*A_4(q)^2"
    assert _factored_g(genfun.closed_g(10, 4), 10, 4) == "6300*q^-2*A_4(q)^2"
    assert _factored_g(genfun.closed_g(10, 5), 10, 5) == "3628800"
    assert _factored_g(genfun.closed_g(10, 2) + 1, 10, 2) is None


def test_gtable_prints_a_mismatched_row_unlabelled(capsys, monkeypatch):
    def off_by_one(n):
        return {k: genfun.closed_g(n, k) + (k == 1) for k in range(1, n)}

    monkeypatch.setattr(genfun, "g_table", off_by_one)
    code, out, _ = run(capsys, "gtable", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "G[4,1] = 5 + 16*q + 4*q^2",
        "G[4,2] = 24",
        "G[4,3] = 4*q^-2*A_3(q) = 4*q^-2 + 16*q^-1 + 4",
    ]


def test_verify_example_plain(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "example")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "[verified] example[des]  (sigma=4136572, K={2,3})"
    assert lines[-1] == "4 verified, 0 mismatched, 0 informational of 4 identity families"


def test_verify_json_stream(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "theorem", "--nmax", "5", "--format", "json"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [r["identity"] for r in reports] == ["theorem[des]", "theorem[inv]"]
    assert all(r["status"] == "verified" for r in reports)


def test_verify_csv_rows_parse_to_the_json_reports(capsys):
    # identities such as avoidance[rec:123,132] hold commas, so they are quoted
    code, out, _ = run(capsys, "verify", "--nmax", "4", "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["identity", "status", "range"]
    code, out, _ = run(capsys, "verify", "--nmax", "4", "--format", "json")
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert rows == [[r["identity"], r["status"], r["range"]] for r in reports]


def test_verify_rejects_bad_arguments(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 2 and "unknown suite" in err
    code, _, err = run(capsys, "verify", "--nmax", "12")
    assert code == 2 and "enumeration cap" in err
    code, _, err = run(capsys, "verify", "--nmax", "-1")
    assert code == 2 and err == "error: nmax must be >= 0, got -1\n"


def test_verify_empty_range_is_not_applicable(capsys):
    # a family that checked no case must never read as verified
    code, out, _ = run(capsys, "verify", "--suite", "theorem", "--nmax", "1")
    assert code == 0
    assert out.splitlines() == [
        "[not-applicable] theorem[des]  (2<=n<=1, 1<=k<=n-1)",
        "    note: no cases in 2<=n<=1, 1<=k<=n-1",
        "[not-applicable] theorem[inv]  (2<=n<=1, 1<=k<=n-1)",
        "    note: no cases in 2<=n<=1, 1<=k<=n-1",
        "0 verified, 0 mismatched, 2 informational of 2 identity families",
    ]
    code, out, _ = run(
        capsys, "verify", "--suite", "gtable", "--nmax", "5", "--format", "json"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.splitlines()]
    assert [(r["identity"], r["status"]) for r in reports] == [
        ("gtable[n=6]", "not-applicable"),
        ("gtable[n=8]", "not-applicable"),
        ("gtable[n=9]", "not-applicable"),
    ]


def test_verify_mismatch_exits_1(capsys, monkeypatch):
    bad = VerificationReport(
        "fake[x]", "n=1", "mismatch", {"params": {"n": 1}, "lhs": 0, "rhs": 1}
    )
    monkeypatch.setitem(verify.SUITES, "example", lambda n_max=None, caches=None: [bad])
    code, out, _ = run(capsys, "verify", "--suite", "example")
    assert code == 1
    assert "[mismatch] fake[x]" in out
    assert 'counterexample: {"params": {"n": 1}, "lhs": 0, "rhs": 1}' in out


def test_verify_streams_each_suite(capsys, monkeypatch):
    # a suite's reports are out before the next suite starts
    def fail(n_max=None, caches=None):
        raise RuntimeError("theorem suite failed")

    monkeypatch.setitem(verify.SUITES, "theorem", fail)
    with pytest.raises(RuntimeError):
        main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [
        "example[des]", "example[inv]", "example[exc]", "example[maj]",
    ]


def test_verify_is_deterministic(capsys):
    args = ("verify", "--suite", "inclusion-exclusion", "--nmax", "5")
    code1, first, _ = run(capsys, *args)
    code2, second, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert first == second


def test_avoid(capsys):
    code, out, _ = run(capsys, "avoid", "--n", "5", "--patterns", "132")
    assert code == 0 and out.strip() == "42"
    code, out, _ = run(
        capsys, "avoid", "--n", "4", "--patterns", "123,312", "--members"
    )
    lines = out.splitlines()
    assert lines[0] == "7"
    assert lines[1:] == ["1432", "2143", "2431", "3214", "3241", "3421", "4321"]
    code, out, _ = run(
        capsys, "avoid", "--n", "3", "--patterns", "", "--format", "json"
    )
    assert json.loads(out) == {"n": 3, "patterns": [], "count": 6}


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "stat", "--perm", "123")[0] == 2  # missing --stat
    assert run(capsys, "gf", "--n", "4")[0] == 2
    assert run(capsys, "frobnicate")[0] == 2
    assert run(capsys)[0] == 2
    assert run(capsys, "gf", "--n", "11", "--stat", "des")[0] == 2  # over cap


# Random argv over every subcommand, under an unset, lowered, negative or
# malformed WIDTHK_MAX_N.  Sizes stay at n <= 6 (and verify always gets
# --nmax), so no drawn case enumerates much; the values mix valid input with
# the malformed and out-of-range kinds the parsers must reject.
_TEXT = st.text(alphabet="0123456789,- x", max_size=6)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _choice(*values):
    return st.sampled_from(values)


_N = st.one_of(st.integers(-2, 6).map(str), _choice("", "x", "3,4", "1e3"))
_FORMAT = _opt("--format", _choice(*FORMATS, "xml"))
_PATTERNS = st.one_of(
    _choice("", "312", "123,132", "132,213", "132,231", "123,321", "1", "21", "1234", "11"),
    _TEXT,
)
_N_LIST = st.one_of(_choice("2", "4,5", "6", "1", "0", "-3"), _TEXT)
_WIDTHS = st.one_of(_choice("1", "2,3", "1,1", "0", "-1", "5", ""), _TEXT)


def _argv(name, *parts):
    return st.tuples(*parts).map(lambda chunks: [name] + [a for c in chunks for a in c])


def _req(flag, values):
    return values.map(lambda v: [flag, v])


_STAT = _req("--stat", _choice("des", "inv", "exc", "maj", "foo"))
_ARGV = st.one_of(
    _argv(
        "stat",
        _req("--perm", st.one_of(_choice("4136572", "", "1", "21", "10,3,1,2,4,5,6,7,8,9"), _TEXT)),
        _opt("--widths", _WIDTHS),
        _STAT,
        _FORMAT,
    ),
    _argv(
        "gf",
        _req("--n", _N),
        _STAT,
        _opt("--width", st.integers(-2, 8).map(str)),
        _opt("--widths", _WIDTHS),
        _opt("--avoid", _PATTERNS),
        _opt("--method", _choice("brute", "closed", "recursion", "all", "magic")),
        _FORMAT,
    ),
    _argv("tpoly", _req("--n", _N), _opt("--avoid", _PATTERNS), _FORMAT),
    _argv("gtable", _req("--n", _N_LIST), _FORMAT),
    _argv(
        "verify",
        _opt("--suite", _choice(*verify.SUITES, "all", "nope")),
        _req("--nmax", st.integers(-1, 5).map(str)),
        _FORMAT,
    ),
    _argv(
        "avoid",
        _req("--n", _N),
        _opt("--patterns", _PATTERNS),
        _choice([], ["--members"]),
        _FORMAT,
    ),
    # argument soup: missing, repeated and unknown flags
    st.lists(_choice("stat", "gf", "--n", "3", "--stat", "des", "--help", "-x", ""), max_size=4),
)


@settings(max_examples=150, deadline=None)
@given(argv=_ARGV, cap=_choice(None, "3", "6", "-1", "x"))
def test_fuzzed_argv_exits_cleanly(argv, cap):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        os.environ.pop("WIDTHK_MAX_N", None)
        if cap is not None:
            os.environ["WIDTHK_MAX_N"] = cap
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), (argv, cap, code)
    assert "Traceback" not in err.getvalue()


def test_verify_under_a_lowered_cap_exits_2(capsys, monkeypatch):
    # the default bounds reach n = 9, and the cap refuses before any output
    monkeypatch.setenv("WIDTHK_MAX_N", "8")
    for fmt in FORMATS:
        code, out, err = run(capsys, "verify", "--format", fmt)
        assert code == 2 and out == ""
        assert err == "error: n=9 exceeds enumeration cap 8\n"


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_each_suite_runs_at_its_declared_bound(capsys, monkeypatch, name):
    # example enumerates nothing, so it runs at WIDTHK_MAX_N=0
    bound = verify.SUITE_NMAX[name]
    monkeypatch.setenv("WIDTHK_MAX_N", str(bound))
    code, out, err = run(capsys, "verify", "--suite", name)
    assert code == 0 and err == ""
    assert " 0 mismatched" in out
    if bound:
        monkeypatch.setenv("WIDTHK_MAX_N", str(bound - 1))
        # the bound is tight: the suite itself reaches n = bound (run_suite
        # refuses before calling it, so the suite is called directly);
        # inclusion-exclusion, like example, enumerates nothing, so only
        # run_suite and verify refuse it
        if name != "inclusion-exclusion":
            with pytest.raises(EnumerationCapError):
                verify.SUITES[name](bound, verify.SweepCaches())
        with pytest.raises(EnumerationCapError):
            verify.run_suite(name)
        code, out, err = run(capsys, "verify", "--suite", name)
        assert code == 2 and out == ""
        assert err == f"error: n={bound} exceeds enumeration cap {bound - 1}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("gf", "--n", "11", "--stat", "des"),
        ("tpoly", "--n", "11"),
        ("gtable", "--n", "11"),
        ("avoid", "--n", "11"),
        ("verify", "--nmax", "11"),
    ],
)
def test_above_the_cap_exits_2_before_enumerating(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated above the cap")

    # every walk over a class, and every DP or walk over S_n
    monkeypatch.setattr(perm, "enumerate_sn", refuse)
    monkeypatch.setattr(perm, "_sn_dp", refuse)
    monkeypatch.setattr(perm, "_sn_row", refuse)
    monkeypatch.setattr(perm, "_class_walk", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("avoid", "--n", "8", "--patterns", "4321", "--members"),
        ("verify", "--format", "csv"),
        # one write of about 92 KB, more than a 64 KiB pipe buffer holds
        ("gf", "--n", "80", "--stat", "inv", "--width", "1", "--avoid", "132,312",
         "--method", "closed", "--format", "csv"),
    ],
)
def test_a_reader_that_stops_early_gets_exit_1_and_no_traceback(argv):
    # as under `| head -1`: the pipe closes after the first line
    with subprocess.Popen(
        [sys.executable, "-m", "widthk", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 1
    assert err == b""


def test_parser_is_reused_across_calls(capsys):
    # main parses every call with one parser; two different argvs in turn
    # must each get their own answer
    for _ in range(2):
        code, out, _ = run(capsys, "stat", "--perm", "4136572", "--widths", "2,3", "--stat", "maj")
        assert code == 0 and out.splitlines()[0] == "maj_{2,3}(4136572) = 6"
        code, out, _ = run(capsys, "gf", "--n", "3", "--stat", "des", "--format", "csv")
        assert code == 0 and out == "method,exponent,coefficient\nbrute,0,1\nbrute,1,4\nbrute,2,1\n"


_EVERY_SUBCOMMAND = (
    ("stat", "--perm", "4136572", "--widths", "2,3", "--stat", "inv"),
    ("stat", "--perm", "4136572", "--widths", "2,3", "--stat", "exc"),
    ("gf", "--n", "5", "--stat", "des", "--width", "2", "--avoid", "312", "--method", "all"),
    ("tpoly", "--n", "4", "--avoid", "132"),
    ("gtable", "--n", "4,5"),
    ("verify", "--suite", "all", "--nmax", "4"),
    ("avoid", "--n", "5", "--patterns", "123,4321", "--members"),
)


def test_main_leaves_no_garbage():
    # every successful call, in every format, frees all it made without the
    # cyclic collector; so does the csv writer of nested values
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["stat", "--perm", "21", "--stat", "des"])  # builds the parser
        # cmd_verify imports these lazily; a first import inside the window
        # leaves pickle's pure-Python exception classes, which _pickle's
        # replace, as cycles for the collector
        import pickle  # noqa: F401
        import threading  # noqa: F401

        gc.collect()
        gc.disable()
        try:
            for argv in _EVERY_SUBCOMMAND:
                for fmt in FORMATS:
                    assert main([*argv, "--format", fmt]) == 0, (argv, fmt)
            _emit_kv({"a": {"b": [1, 2], "c": {"d": "x"}}})
            assert gc.collect() == 0
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# verify --suite all in two processes: a forked worker runs the suites of
# verify._WORKER_SUITES while the parent runs the ones before them

def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _suites_printed(out):
    # the suites named by a plain report's status lines
    return {line.split()[1].split("[")[0] for line in out.splitlines() if line.startswith("[")}


def _forked(monkeypatch):
    # forking is decided by the host's CPUs; two are granted here, and every
    # fork is counted (the worker's own count is never read)
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    _cpus(monkeypatch, 0, 1)
    return forks


def _cpus(monkeypatch, *cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def _both(capsys, monkeypatch, *argv):
    # (code, out, err) forked, then in-process
    forks = _forked(monkeypatch)
    forked = run(capsys, *argv)
    assert forks == [os.getpid()]
    _assert_no_child_left()
    _cpus(monkeypatch, 0)
    alone = run(capsys, *argv)
    assert len(forks) == 1
    return forked, alone


def test_worker_suites_are_the_tail_of_the_registry():
    tail = list(verify.SUITES)[-len(verify._WORKER_SUITES):]
    assert tail == list(verify._WORKER_SUITES) == ["duality", "avoidance", "counting"]


@pytest.mark.parametrize("nmax", [None, "5"])
@pytest.mark.parametrize("fmt", FORMATS)
def test_forked_verify_prints_the_in_process_bytes(capsys, monkeypatch, fmt, nmax):
    argv = ("verify", "--suite", "all", "--format", fmt, *(("--nmax", nmax) if nmax else ()))
    forked, alone = _both(capsys, monkeypatch, *argv)
    assert forked == alone
    assert forked[0] == 0 and forked[2] == ""


def test_single_suites_and_one_cpu_never_fork(capsys, monkeypatch):
    def refuse():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", refuse)
    _cpus(monkeypatch, 0, 1)
    code, out, _ = run(capsys, "verify", "--suite", "avoidance", "--nmax", "5")
    assert code == 0 and " 0 mismatched" in out
    _cpus(monkeypatch, 0)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--nmax", "4")
    assert code == 0 and " 0 mismatched" in out


def test_a_failed_fork_runs_in_process(capsys, monkeypatch):
    def no_fork():
        raise OSError("no more processes")

    _cpus(monkeypatch, 0, 1)
    monkeypatch.setattr(os, "fork", no_fork)
    failed = run(capsys, "verify", "--suite", "all", "--nmax", "4")
    _cpus(monkeypatch, 0)
    assert failed == run(capsys, "verify", "--suite", "all", "--nmax", "4")


def test_an_error_in_a_worker_suite_is_raised_where_it_would_be(capsys, monkeypatch):
    # the duality reports come first, then the one error line and exit 2
    def fail(top, caches):
        raise InvalidInputError("planted failure in avoidance")

    monkeypatch.setitem(verify.SUITES, "avoidance", fail)
    forked, alone = _both(capsys, monkeypatch, "verify", "--suite", "all", "--nmax", "5")
    assert forked == alone
    code, out, err = forked
    assert code == 2 and err == "error: planted failure in avoidance\n"
    assert out.splitlines()[-1].split()[1].startswith("duality[")


def test_a_worker_that_dies_gives_one_line_and_exit_1(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "avoidance", lambda top, caches: os._exit(3))
    forks = _forked(monkeypatch)
    code, out, err = run(capsys, "verify", "--suite", "all", "--nmax", "5")
    assert forks == [os.getpid()]
    _assert_no_child_left()
    assert code == 1
    assert err == "error: verification worker exited (status 3) before reporting avoidance\n"
    # every suite before avoidance printed its reports
    assert _suites_printed(out) == set(verify.SUITES) - {"avoidance", "counting"}


@pytest.mark.parametrize("stop", [RuntimeError, KeyboardInterrupt])
def test_a_failing_head_suite_leaves_no_worker(capsys, monkeypatch, stop):
    def fail(top, caches):
        raise stop("planted")

    monkeypatch.setitem(verify.SUITES, "gtable", fail)
    forks = _forked(monkeypatch)
    with pytest.raises(stop):
        main(["verify", "--suite", "all", "--nmax", "5"])
    assert forks == [os.getpid()]
    _assert_no_child_left()
    assert _suites_printed(capsys.readouterr().out) == {
        "example", "theorem", "equidistribution", "inclusion-exclusion",
    }


class _ClosesAfterOneLine(io.StringIO):
    # a stdout whose reader leaves after the first line; its file descriptor
    # is a devnull of the test's own, so main may redirect it
    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError
        return super().write(text)

    def fileno(self):
        return self.fd


def test_a_reader_that_leaves_early_stops_the_worker(monkeypatch):
    forks = _forked(monkeypatch)
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        out = _ClosesAfterOneLine(fd)
        with contextlib.redirect_stdout(out):
            code = main(["verify", "--suite", "all", "--nmax", "5"])
    finally:
        os.close(fd)
    assert code == 1
    assert forks == [os.getpid()]
    _assert_no_child_left()
    assert out.getvalue() == "[verified] example[des]  (sigma=4136572, K={2,3})\n"


def test_a_planted_defect_in_a_worker_suite_crosses_the_pipe(capsys, monkeypatch):
    # one count added at q^1 of rec_312(6, 2): the recursion's family names
    # (6, 2), and so does the q = 1 Catalan check, which reads the same
    # function; every other family stays verified
    def nudged(n, k, rec=genfun.rec_312):
        counts = rec(n, k)
        if (n, k) == (6, 2):
            counts += LaurentPoly({1: 1})
        return counts

    monkeypatch.setattr(genfun, "rec_312", nudged)
    monkeypatch.setitem(genfun.RECURSIONS, ((3, 1, 2),), nudged)
    for fmt in ("plain", "json"):
        forked, alone = _both(capsys, monkeypatch, "verify", "--suite", "all", "--format", fmt)
        assert forked == alone
    code, out, _ = forked
    assert code == 1
    broken = {
        r["identity"]: r["counterexample"]["params"]
        for r in map(json.loads, out.splitlines())
        if r["status"] == "mismatch"
    }
    assert broken == {
        "avoidance[rec:312]": {"n": 6, "k": 2},
        "avoidance[catalan@1]": {"n": 6, "k": 2},
    }
