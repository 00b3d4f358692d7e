"""CLI behavior: output shapes, exit codes, determinism."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthk import genfun, perm
from widthk.cli import FORMATS, _factored_g, main
from widthk.genfun import VerificationReport
from widthk.poly import LaurentPoly


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


def test_gf_inapplicable_method_exits_2(capsys):
    code, _, err = run(
        capsys, "gf", "--n", "5", "--stat", "exc", "--method", "closed"
    )
    assert code == 2 and "no closed formula" in err
    code, _, err = run(
        capsys, "gf", "--n", "5", "--stat", "des", "--method", "recursion"
    )
    assert code == 2
    code, _, err = run(
        capsys,
        "gf", "--n", "5", "--stat", "des", "--widths", "1,2", "--avoid", "312",
        "--method", "recursion",
    )
    assert code == 2  # the recursion handles one width at a time


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
        assert LaurentPoly.from_json(r["poly"]) == expected


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
    monkeypatch.setitem(genfun.SUITES, "example", lambda n_max=None, caches=None: [bad])
    code, out, _ = run(capsys, "verify", "--suite", "example")
    assert code == 1
    assert "[mismatch] fake[x]" in out
    assert 'counterexample: {"params": {"n": 1}, "lhs": 0, "rhs": 1}' in out


def test_verify_streams_each_suite(capsys, monkeypatch):
    # a suite's reports are out before the next suite starts
    def fail(n_max=None, caches=None):
        raise RuntimeError("theorem suite failed")

    monkeypatch.setitem(genfun.SUITES, "theorem", fail)
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


# Random argv over every subcommand.  Sizes stay at n <= 6 (and verify always
# gets --nmax), so no drawn case enumerates much; the values mix valid input
# with the malformed and out-of-range kinds the parsers must reject.
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
        _opt("--suite", _choice(*genfun.SUITES, "all", "nope")),
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
@given(argv=_ARGV)
def test_fuzzed_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ("gf", "--n", "11", "--stat", "des"),
        ("tpoly", "--n", "9"),
        ("gtable", "--n", "11"),
        ("avoid", "--n", "11"),
        ("verify", "--nmax", "11"),
    ],
)
def test_above_the_cap_exits_2_before_enumerating(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated above the cap")

    monkeypatch.setattr(perm, "enumerate_sn", refuse)
    monkeypatch.setattr(genfun, "enumerate_sn", refuse)
    monkeypatch.setattr(genfun, "_sn_joint_descents", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "cap" in err
