"""
Command-line driver: compute statistics, build distributions by any route,
print the signed-difference tables, and run the verification suites.

Exit codes: 0 on success (all identities verified), 1 when routes or
identities disagree, 2 on usage, parse, or enumeration-cap errors.  Output
is deterministic, so repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import genfun, stats
from .errors import EnumerationCapError, InvalidInputError
from .perm import avoidance_class, enumeration_cap, format_perm, parse_patterns, parse_perm
from .poly import LaurentPoly

FORMATS = ("plain", "json", "csv")


def _parse_widths(text: str) -> tuple[int, ...]:
    try:
        widths = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidInputError(f"cannot parse widths from {text!r}") from None
    if not widths or any(k < 1 for k in widths):
        raise InvalidInputError(f"widths must be positive integers, got {text!r}")
    return widths


def _parse_n_list(text: str) -> tuple[int, ...]:
    try:
        ns = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidInputError(f"cannot parse sizes from {text!r}") from None
    if not ns or any(n < 0 for n in ns):
        raise InvalidInputError(f"sizes must be nonnegative integers, got {text!r}")
    return ns


def _widths_label(widths: tuple[int, ...]) -> str:
    return "{" + ",".join(str(k) for k in widths) + "}"


def _emit_kv(data: dict) -> None:
    # generic key,value CSV: nested values are serialized compactly
    print("key,value")
    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for kk, vv in value.items():
                walk(f"{prefix}.{kk}" if prefix else str(kk), vv)
        else:
            cell = value if isinstance(value, (int, str)) else json.dumps(value)
            print(f"{prefix},{cell}")
    walk("", data)


def _emit_poly_csv(poly: LaurentPoly, prefix: str = "") -> None:
    for e, c in poly.terms():
        print(f"{prefix}{e},{c}")


# ---------------------------------------------------------------------------
# stat

def cmd_stat(args: argparse.Namespace) -> int:
    word = parse_perm(args.perm)
    widths = stats.normalize_widths(_parse_widths(args.widths), len(word))
    name = args.stat
    data: dict = {
        "perm": format_perm(word),
        "widths": list(widths),
        "statistic": name,
    }
    lines: list[str] = []
    label = _widths_label(widths)

    if name == "des":
        rec = stats.descent_record(word, widths)
        data.update(rec.to_json())
        lines.append(f"des_{label}({data['perm']}) = {rec.count}")
        for k in widths:
            lines.append(
                f"Des_{k} = {{{','.join(str(i) for i in rec.per_width[k])}}}"
            )
        lines.append(f"Des_{label} = {{{','.join(str(i) for i in rec.multiset)}}}")
    elif name == "inv":
        rec = stats.inversion_record(word, widths)
        data.update(rec.to_json())
        lines.append(f"inv_{label}({data['perm']}) = {rec.count}")
        def pairs(ps):
            return "{" + ",".join(f"({i},{j})" for i, j in ps) + "}"
        for k in widths:
            lines.append(f"Inv_{k} = {pairs(sorted(rec.per_width[k]))}")
        lines.append(f"Inv_{label} = {pairs(rec.pairs)}")
    else:
        fn = stats.exc if name == "exc" else stats.maj
        per = {k: fn(word, k) for k in widths}
        total = fn(word, widths)
        data.update({"by_width": {str(k): v for k, v in per.items()}, "value": total})
        lines.append(f"{name}_{label}({data['perm']}) = {total}")
        for k in widths:
            lines.append(f"{name}_{k} = {per[k]}")

    if args.format == "json":
        print(json.dumps(data))
    elif args.format == "csv":
        _emit_kv(data)
    else:
        print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# gf

def _single_width(widths) -> int | None:
    if isinstance(widths, int):
        return widths
    return widths[0] if len(widths) == 1 else None


def _formula_routes(n, statistic, widths, patterns):
    # every applicable non-enumerative route, tagged "closed" or "recursion"
    routes = []
    k = _single_width(widths)
    if not patterns:
        if k is not None and 1 <= k <= n - 1:
            if statistic == "des":
                routes.append(("closed", genfun.closed_des_k(n, k)))
            elif statistic == "inv":
                routes.append(("closed", genfun.closed_inv_k(n, k)))
        return routes
    if statistic == "des":
        fn = genfun.RECURSIONS.get(patterns)
        if fn is not None and k is not None:
            routes.append(("recursion", fn(n, k)))
        fn = genfun.PRODUCTS.get(patterns)
        if fn is not None:
            routes.append(("closed", fn(n, widths)))
    elif statistic == "inv":
        fn = genfun.CLOSED_INV.get(patterns)
        if fn is not None and k is not None and 1 <= k <= n - 1:
            routes.append(("closed", fn(n, k)))
    return routes


def cmd_gf(args: argparse.Namespace) -> int:
    n = args.n
    statistic = args.stat
    patterns = parse_patterns(args.avoid)
    if args.widths is not None:
        widths: int | tuple[int, ...] = stats.normalize_widths(
            _parse_widths(args.widths), n
        )
    else:
        widths = args.width
        top = max(n - 1, 1)  # a word of length <= 1 keeps the classical width 1
        if not 1 <= widths <= top:
            raise InvalidInputError(f"width {widths} not contained in [1, {top}]")

    routes: list[tuple[str, LaurentPoly]] = []
    if args.method in ("brute", "all"):
        routes.append(
            ("brute", genfun.brute_distribution(n, statistic, widths, patterns))
        )
    if args.method != "brute":
        formulas = _formula_routes(n, statistic, widths, patterns)
        if args.method in ("closed", "recursion"):
            formulas = [r for r in formulas if r[0] == args.method]
            if not formulas:
                raise InvalidInputError(
                    f"no {args.method} formula applies to statistic {statistic!r} "
                    f"with patterns {args.avoid!r}"
                )
        routes.extend(formulas)

    agree = all(poly == routes[0][1] for _, poly in routes)
    data = {
        "n": n,
        "statistic": statistic,
        "widths": list(widths) if not isinstance(widths, int) else widths,
        "patterns": [format_perm(p) for p in patterns],
        "results": [{"method": m, "poly": p.to_json()} for m, p in routes],
    }
    if args.method == "all":
        data["agree"] = agree

    if args.format == "json":
        print(json.dumps(data))
    elif args.format == "csv":
        print("method,exponent,coefficient")
        for method, poly in routes:
            _emit_poly_csv(poly, prefix=f"{method},")
    else:
        for method, poly in routes:
            print(f"{method}: {poly}")
        if args.method == "all":
            print(f"agreement: {'yes' if agree else 'NO'}")
    return 0 if agree else 1


# ---------------------------------------------------------------------------
# tpoly

def cmd_tpoly(args: argparse.Namespace) -> int:
    patterns = parse_patterns(args.avoid)
    poly = genfun.t_polynomial(args.n, patterns)
    if args.format == "json":
        print(json.dumps(poly.to_json()))
    elif args.format == "csv":
        print(",".join(poly.vars + ("coefficient",)))
        for exps, c in poly.terms():
            print(",".join(str(e) for e in exps) + f",{c}")
    else:
        print(poly)
    return 0


# ---------------------------------------------------------------------------
# gtable

def _factored_g(poly: LaurentPoly, n: int, k: int) -> str | None:
    # the label is printed only when the closed form matches the enumerated row
    shape = genfun.g_shape(n, k)
    if genfun.factored_form(*shape) == poly:
        return genfun.format_factored(*shape)
    return None


def cmd_gtable(args: argparse.Namespace) -> int:
    ns = _parse_n_list(args.n)
    rows = []
    for n in ns:
        if n < 2:
            raise InvalidInputError(f"the table needs n >= 2, got {n}")
        table = genfun.g_table(n)
        for k in range(1, n):
            rows.append((n, k, table[k], _factored_g(table[k], n, k)))

    if args.format == "json":
        print(
            json.dumps(
                [
                    {"n": n, "k": k, "factored": factored, "poly": poly.to_json()}
                    for n, k, poly, factored in rows
                ]
            )
        )
    elif args.format == "csv":
        print("n,k,exponent,coefficient")
        for n, k, poly, _ in rows:
            _emit_poly_csv(poly, prefix=f"{n},{k},")
    else:
        for n, k, poly, factored in rows:
            if factored is None or factored == str(poly):
                print(f"G[{n},{k}] = {poly}")
            else:
                print(f"G[{n},{k}] = {factored} = {poly}")
    return 0


# ---------------------------------------------------------------------------
# verify

def cmd_verify(args: argparse.Namespace) -> int:
    if args.nmax is not None and args.nmax < 0:
        raise InvalidInputError(f"nmax must be >= 0, got {args.nmax}")
    if args.nmax is not None and args.nmax > enumeration_cap():
        raise EnumerationCapError(
            f"nmax={args.nmax} exceeds enumeration cap {enumeration_cap()} "
            "(raise WIDTHK_MAX_N to override)"
        )
    # Print each suite's reports as soon as it returns.  The csv header waits
    # for the first suite, so an unknown suite name prints nothing.
    caches = genfun.SweepCaches()
    names = list(genfun.SUITES) if args.suite == "all" else [args.suite]
    tally: Counter[str] = Counter()
    for index, name in enumerate(names):
        reports = genfun.run_suite(name, args.nmax, caches)
        if index == 0 and args.format == "csv":
            print("identity,status,range")
        for report in reports:
            tally[report.status] += 1
            if args.format == "json":
                print(json.dumps(report.to_json()))
            elif args.format == "csv":
                print(f'{report.identity},{report.status},"{report.range}"')
            else:
                print(f"[{report.status}] {report.identity}  ({report.range})")
                for note in report.notes:
                    print(f"    note: {note}")
                if report.counterexample is not None:
                    print(f"    counterexample: {json.dumps(report.counterexample)}")
        sys.stdout.flush()
    if args.format == "plain":
        print(
            f"{tally['verified']} verified, {tally['mismatch']} mismatched, "
            f"{tally['not-applicable']} informational of {sum(tally.values())} "
            "identity families"
        )
    return 1 if tally["mismatch"] else 0


# ---------------------------------------------------------------------------
# avoid

def cmd_avoid(args: argparse.Namespace) -> int:
    patterns = parse_patterns(args.patterns)
    members = list(avoidance_class(args.n, patterns))
    data: dict = {
        "n": args.n,
        "patterns": [format_perm(p) for p in patterns],
        "count": len(members),
    }
    if args.members:
        data["members"] = [format_perm(w) for w in members]
    if args.format == "json":
        print(json.dumps(data))
    elif args.format == "csv":
        _emit_kv(data)
    else:
        print(data["count"])
        if args.members:
            for w in data["members"]:
                print(w)
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="widthk",
        description=(
            "Width-k permutation statistics, their exact distributions, and "
            "a verification suite for the identities relating them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=FORMATS, default="plain", help="output format"
        )

    p = sub.add_parser("stat", help="statistics of a single permutation")
    p.add_argument("--perm", required=True, help="one-line notation, e.g. 4136572")
    p.add_argument("--widths", default="1", help="comma-separated widths, e.g. 2,3")
    p.add_argument("--stat", required=True, choices=("des", "inv", "exc", "maj"))
    add_format(p)
    p.set_defaults(func=cmd_stat)

    p = sub.add_parser("gf", help="distribution polynomial of a statistic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", required=True, choices=("des", "inv", "exc", "maj"))
    group = p.add_mutually_exclusive_group()
    group.add_argument("--width", type=int, default=1, help="single width k")
    group.add_argument("--widths", default=None, help="width set, e.g. 1,3")
    p.add_argument("--avoid", default="", help="patterns to avoid, e.g. 132,231")
    p.add_argument(
        "--method",
        choices=("brute", "closed", "recursion", "all"),
        default="brute",
        help="computation route; 'all' cross-checks every applicable route",
    )
    add_format(p)
    p.set_defaults(func=cmd_gf)

    p = sub.add_parser("tpoly", help="joint distribution of all width descents")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avoid", default="")
    add_format(p)
    p.set_defaults(func=cmd_tpoly)

    p = sub.add_parser("gtable", help="signed descent-difference table")
    p.add_argument("--n", default="6,8,9", help="comma-separated sizes")
    add_format(p)
    p.set_defaults(func=cmd_gtable)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        default="all",
        help="suite name (see README) or 'all'",
    )
    p.add_argument("--nmax", type=int, default=None, help="override the sweep bound")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("avoid", help="size (and members) of an avoidance class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--patterns", default="")
    p.add_argument("--members", action="store_true", help="list the class")
    add_format(p)
    p.set_defaults(func=cmd_avoid)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.func(args)
    except (InvalidInputError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
