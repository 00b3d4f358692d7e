"""
Command-line driver: compute statistics, build distributions by any route,
print the signed-difference tables, and run the verification suites.

Exit codes: 0 on success (all identities verified), 1 when routes or
identities disagree, when stdout closes before the output is written (as
under `| head`, with nothing on stderr), or when verify's forked worker exits
before it has reported, 2 on usage, parse, or enumeration-cap errors.
Output is deterministic, so repeated runs are byte-identical.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from itertools import chain, islice, starmap
from typing import Iterable

from . import genfun, stats
from .errors import EnumerationCapError, InvalidInputError
from .perm import avoidance_class, format_perm, parse_patterns, parse_perm
from .poly import LaurentPoly

FORMATS = ("plain", "json", "csv")


def _parse_ints(text: str, what: str, least: int) -> tuple[int, ...]:
    # a comma list of integers >= least; `what` names them in the messages
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidInputError(f"cannot parse {what} from {text!r}") from None
    if min(values) < least:
        kind = "positive" if least else "nonnegative"
        raise InvalidInputError(f"{what} must be {kind} integers, got {text!r}")
    return values


def _widths_label(widths: tuple[int, ...]) -> str:
    return "{" + ",".join(str(k) for k in widths) + "}"


def _emit_kv(data: dict) -> None:
    # generic key,value CSV: nested values are serialized compactly
    print("key,value")
    _emit_kv_rows("", data)


def _emit_kv_rows(prefix: str, value) -> None:
    # a module-level recursion, so no call leaves a self-referencing closure
    if isinstance(value, dict):
        for key, item in value.items():
            _emit_kv_rows(f"{prefix}.{key}" if prefix else str(key), item)
    else:
        cell = value if isinstance(value, (int, str)) else json.dumps(value)
        print(f"{prefix},{cell}")


def _emit_poly_csv(header: str, polys: Iterable[tuple[str, LaurentPoly]]) -> None:
    # the header, then a "prefix,exponent,coefficient" row per nonzero term
    # of each polynomial, in one write
    rows = [header]
    for prefix, poly in polys:
        rows += starmap(f"{prefix},{{}},{{}}".format, poly.terms())
    print("\n".join(rows))


# ---------------------------------------------------------------------------
# stat

def cmd_stat(args: argparse.Namespace) -> int:
    word = parse_perm(args.perm)
    widths = stats.normalize_widths(_parse_ints(args.widths, "widths", 1), len(word))
    name = args.stat
    data: dict = {
        "perm": format_perm(word),
        "widths": list(widths),
        "statistic": name,
    }
    lines: list[str] = []
    label = _widths_label(widths)

    if name in ("des", "inv"):
        # des joins indices as a multiset, inv joins pairs as a set
        if name == "des":
            fn, keys, show = stats.des_set, ("des", "multiset"), str
        else:
            fn, keys, show = stats.inv_set, ("inv_by_width", "inv"), "({0[0]},{0[1]})".format
        per = {k: fn(word, k) for k in widths}
        union = fn(word, widths)
        data.update(
            {keys[0]: {str(k): v for k, v in per.items()}, keys[1]: union, "count": len(union)}
        )
        def braces(items) -> str:
            return "{" + ",".join(map(show, items)) + "}"
        title = name.capitalize()
        lines.append(f"{name}_{label}({data['perm']}) = {len(union)}")
        lines.extend(f"{title}_{k} = {braces(per[k])}" for k in widths)
        lines.append(f"{title}_{label} = {braces(union)}")
    else:
        fn = stats.exc if name == "exc" else stats.maj
        per = {k: fn(word, k) for k in widths}
        total = sum(per.values())  # both statistics sum over the widths
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
            _parse_ints(args.widths, "widths", 1), n
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
                label = _widths_label((widths,) if isinstance(widths, int) else widths)
                raise InvalidInputError(
                    f"no {args.method} formula applies to statistic {statistic!r} "
                    f"at widths {label} with patterns {args.avoid!r}"
                )
        routes.extend(formulas)

    agree = all(poly == routes[0][1] for _, poly in routes)
    if args.format == "json":
        data = {
            "n": n,
            "statistic": statistic,
            "widths": list(widths) if not isinstance(widths, int) else widths,
            "patterns": [format_perm(p) for p in patterns],
            "results": [{"method": m, "poly": p.to_json()} for m, p in routes],
        }
        if args.method == "all":
            data["agree"] = agree
        print(json.dumps(data))
    elif args.format == "csv":
        _emit_poly_csv("method,exponent,coefficient", routes)
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
        header = ",".join(poly.vars + ("coefficient",))
        rows = (",".join(map(str, (*exps, c))) for exps, c in poly.terms())
        print("\n".join([header, *rows]))
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
    ns = _parse_ints(args.n, "sizes", 0)
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
        _emit_poly_csv("n,k,exponent,coefficient", ((f"{n},{k}", poly) for n, k, poly, _ in rows))
    else:
        for n, k, poly, factored in rows:
            text = str(poly)
            if factored is None or factored == text:
                print(f"G[{n},{k}] = {text}")
            else:
                print(f"G[{n},{k}] = {factored} = {text}")
    return 0


# ---------------------------------------------------------------------------
# verify

class _WorkerLost(Exception):
    """The verification worker ended before it sent every report list."""


class _Worker:
    """
    A forked process that runs verify._WORKER_SUITES with a memo of its own
    while this process runs the suites before them.  Through a pipe it
    pickles each suite's report list in turn, or the exception that stopped
    it, and it leaves by os._exit, so it never flushes stdout buffered here
    nor runs exit handlers.
    """

    def __init__(self, pid: int, pipe) -> None:
        self.pid = pid
        self.pipe = pipe
        self.reaped = False

    @classmethod
    def start(cls, n_max: int | None) -> _Worker | None:
        # Fork only where a second CPU is free, and never beside another
        # thread, whose held locks the worker would inherit locked.  A
        # forked worker starts with the package loaded; a spawned one would
        # import and compile it again, which costs most of what it saves.
        affinity = getattr(os, "sched_getaffinity", None)
        if not (hasattr(os, "fork") and affinity is not None and len(affinity(0)) >= 2):
            return None
        import threading

        if threading.active_count() != 1:
            return None
        import pickle  # here, not at the top: loading it slows every command's start

        from . import verify

        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            return None
        if pid == 0:
            status = 1
            try:
                os.close(read)
                with os.fdopen(write, "wb") as out:
                    try:
                        for reports in verify._run_suites(verify._WORKER_SUITES, n_max):
                            pickle.dump(reports, out)
                            out.flush()
                    except Exception as exc:
                        pickle.dump(exc, out)
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        return cls(pid, os.fdopen(read, "rb"))

    def reports(self) -> Iterable[list]:
        """Each worker suite's report list; a raised exception is raised here."""
        import pickle

        from . import verify

        for name in verify._WORKER_SUITES:
            try:
                reports = pickle.load(self.pipe)
            except (EOFError, pickle.UnpicklingError):
                status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
                self.reaped = True
                raise _WorkerLost(
                    f"verification worker exited (status {status}) before reporting {name}"
                ) from None
            if isinstance(reports, BaseException):
                raise reports
            yield reports

    def stop(self) -> None:
        """Close the pipe, then kill and reap the worker unless it was reaped."""
        import signal

        self.pipe.close()
        if not self.reaped:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)


def cmd_verify(args: argparse.Namespace) -> int:
    import csv  # here, not at the top: loading it adds 0.4 MB of peak RSS to every command

    from . import verify  # here, not at the top: no other command compiles the engine

    # the engine checks the name, the bounds and the cap before any suite
    # runs; each suite's reports are printed as soon as it returns.  With
    # a second CPU free, "all" hands its tail suites to a forked worker and
    # prints their reports after its own, in SUITES order.
    suites = verify.suite_reports(args.suite, args.nmax)
    worker = _Worker.start(args.nmax) if args.suite == "all" else None
    try:
        if worker is not None:
            head = len(verify.SUITES) - len(verify._WORKER_SUITES)
            suites = chain(islice(suites, head), worker.reports())
        tally: Counter[str] = Counter()
        rows = csv.writer(sys.stdout, lineterminator="\n")
        if args.format == "csv":
            rows.writerow(("identity", "status", "range"))
        for reports in suites:
            for report in reports:
                tally[report.status] += 1
                if args.format == "json":
                    print(json.dumps(report.to_json()))
                elif args.format == "csv":
                    rows.writerow((report.identity, report.status, report.range))
                else:
                    print(f"[{report.status}] {report.identity}  ({report.range})")
                    for note in report.notes:
                        print(f"    note: {note}")
                    if report.counterexample is not None:
                        print(f"    counterexample: {json.dumps(report.counterexample)}")
            sys.stdout.flush()
    except _WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if worker is not None:
            worker.stop()
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
    # without --members the class is only counted, never held
    members = avoidance_class(args.n, patterns)
    if args.members:
        members = list(map(format_perm, members))
        count = len(members)
    else:
        count = sum(1 for _ in members)
    data: dict = {
        "n": args.n,
        "patterns": [format_perm(p) for p in patterns],
        "count": count,
    }
    if args.members:
        data["members"] = members
    if args.format == "json":
        print(json.dumps(data))
    elif args.format == "csv":
        _emit_kv(data)
    else:
        print("\n".join([str(count), *data.get("members", ())]))
    return 0


# ---------------------------------------------------------------------------
# parser

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: building it costs more than most small calls,
    # and parse_args leaves it as it was.
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
    p.add_argument("--stat", required=True, choices=stats.STATISTICS)
    add_format(p)
    p.set_defaults(func=cmd_stat)

    p = sub.add_parser("gf", help="distribution polynomial of a statistic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", required=True, choices=stats.STATISTICS)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except (InvalidInputError, EnumerationCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader has gone; send what is still buffered to devnull so the
        # interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
