"""
Outside-in layer trace for the widthk benchmark.

`Tracer.install()` wraps the public functions of each widthk module (the
layers: perm, stats, poly, genfun, cli) and rebinds every place the package
looks them up: module globals, aliases imported into other modules (such as
`genfun.avoidance_class` and `cli.avoidance_class`), class attributes, and
the module-level registries (`genfun._STAT_FUNCS`, `RECURSIONS`, `PRODUCTS`,
`CLOSED_INV`, `SUITES`).  Nothing under `src/` is edited.

Each call is a span.  A generator layer (`avoidance_class`, the iterator of
`enumerate_sn`) is timed per `next()`, so the consumer's loop body is not
charged to it.  Self time is a span's duration minus the durations of its
child spans.  Spans stay in memory (aggregated per function, plus a bounded
log of individual spans) and are written out by the caller when the run ends.

The trace changes timings, so end-to-end numbers never come from a traced run.
"""
from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("perm", "stats", "poly", "genfun", "cli")

# Arithmetic dunders count as public poly API; other dunders (__init__,
# __eq__, __hash__, __repr__) stay inside their caller's self time.
_POLY_DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__pow__", "__call__", "__str__",
)

# Functions whose results are iterated lazily; they are timed per next().
_ITERATORS = {"perm.avoidance_class", "perm.enumerate_sn"}

# The nine suites of `verify --suite all`, named as `genfun.SUITES` keys.
SUITE_NAMES = (
    "example", "theorem", "equidistribution", "inclusion-exclusion", "gtable",
    "conjecture", "duality", "avoidance", "counting",
)

SPAN_LOG_CAP = 20000

# Metrics that are ratios; every other metric is reported per traced pass.
RATIOS = ("genfun.sweep.hit_ratio", "trace.coverage", "trace.overhead")


class Tracer:
    """Wraps the widthk layers, records spans, and turns them into metrics."""

    def __init__(self) -> None:
        self.stack: list[list] = []  # frames: [child seconds, span id, layer, start]
        # name -> [calls, inclusive seconds, self seconds]
        self.agg: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.spans_dropped = 0
        self._next_id = 1
        self._restore: list[tuple] = []
        self._suite_names: dict[str, str] = {}

    # -- span bookkeeping -------------------------------------------------

    def _push(self, layer: str) -> list:
        stack = self.stack
        if not stack or stack[-1][2] != layer:
            self.counts[layer + ".entries"] += 1
        frame = [0.0, self._next_id, layer, perf_counter()]
        self._next_id += 1
        stack.append(frame)
        return frame

    def _pop(self, name: str, frame: list, log: bool = True) -> None:
        end = perf_counter()
        self.stack.pop()
        incl = end - frame[3]
        rec = self.agg[name]
        rec[1] += incl
        rec[2] += incl - frame[0]
        if self.stack:
            self.stack[-1][0] += incl
        if log:
            parent = self.stack[-1][1] if self.stack else 0
            self._log(frame[1], parent, name, frame[3], end)

    def _log(self, span_id: int, parent: int, name: str, start: float, end: float) -> None:
        if len(self.spans) < SPAN_LOG_CAP:
            self.spans.append((span_id, parent, name, start, end))
        else:
            self.spans_dropped += 1

    def _bookkeeping(self, seconds: float) -> None:
        # Time spent computing counters is nobody's self time.
        self.agg["trace.bookkeeping"][2] += seconds
        if self.stack:
            self.stack[-1][0] += seconds

    # -- wrappers ----------------------------------------------------------

    def _wrap_call(self, name: str, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._push(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.agg[name][0] += 1
                tracer._pop(name, frame)

        return traced

    def _wrap_iterator(self, name: str, layer: str, fn):
        tracer = self

        def iterate(it, span: tuple):
            members = 0
            try:
                while True:
                    frame = tracer._push(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._pop(name, frame, log=False)
                    members += 1
                    yield item
            finally:
                tracer.counts[name + ".members"] += members
                span_id, parent, start = span
                tracer._log(span_id, parent, name, start, perf_counter())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1][1] if tracer.stack else 0
            frame = tracer._push(layer)
            try:
                it = fn(*args, **kwargs)
            finally:
                tracer.agg[name][0] += 1
                tracer._pop(name, frame, log=False)
            return iterate(iter(it), (frame[1], parent, frame[3]))

        return traced

    def _wrap_mul(self, name: str, fn, terms):
        tracer = self
        traced_call = self._wrap_call(name, "poly", fn)

        @functools.wraps(fn)
        def traced(a, b):
            result = traced_call(a, b)
            t0 = perf_counter()
            size_b = len(terms(b)) if hasattr(b, "terms") else 1
            tracer.counts["poly.mul.term_products"] += len(terms(a)) * size_b
            tracer.counts["poly.mul.result_bits"] += sum(
                abs(c).bit_length() for _, c in terms(result)
            )
            tracer._bookkeeping(perf_counter() - t0)
            return result

        return traced

    def _wrap_sweep(self, name: str, fn):
        # A sweep call that starts no enumeration walk was served from the memo.
        tracer = self
        traced_call = self._wrap_call(name, "genfun", fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = tracer.agg["perm.avoidance_class"][0] + tracer.agg["perm.enumerate_sn"][0]
            result = traced_call(*args, **kwargs)
            after = tracer.agg["perm.avoidance_class"][0] + tracer.agg["perm.enumerate_sn"][0]
            tracer.counts["genfun.sweep.calls"] += 1
            if after == before:
                tracer.counts["genfun.sweep.hits"] += 1
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer of `package` (the imported widthk package)."""
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrapped: dict[int, object] = {}

        def wrap(layer: str, qualname: str, fn, members=None):
            name = f"{layer}.{qualname}"
            if name in _ITERATORS:
                new = self._wrap_iterator(name, layer, fn)
            elif qualname in ("LaurentPoly.__mul__", "LaurentPoly.__rmul__"):
                new = self._wrap_mul(name, fn, members["terms"])
            elif qualname.startswith("SweepCaches."):
                new = self._wrap_sweep(name, fn)
            else:
                new = self._wrap_call(name, layer, fn)
            wrapped[id(fn)] = new
            return new

        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value) and not attr.startswith("_"):
                    wrap(layer, attr, value)
                elif inspect.isclass(value):
                    members = dict(vars(value))
                    for meth, fn in members.items():
                        public = not meth.startswith("_") or (
                            layer == "poly" and meth in _POLY_DUNDERS
                        )
                        if inspect.isfunction(fn) and public:
                            new = wrapped.get(id(fn)) or wrap(
                                layer, f"{value.__name__}.{meth}", fn, members
                            )
                            self._set(value, meth, new)

        # Rebind every module-level reference, including aliases and registries.
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    self._set(module, attr, wrapped[id(value)])
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if id(item) in wrapped:
                            self._set_item(value, key, wrapped[id(item)])

        for suite, fn in modules["genfun"].SUITES.items():
            self._suite_names[suite] = f"genfun.{fn.__name__}"

    def _set(self, holder, attr: str, value) -> None:
        self._restore.append((setattr, holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def _set_item(self, mapping: dict, key, value) -> None:
        self._restore.append((dict.__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self) -> None:
        """Put back every original binding, newest first."""
        while self._restore:
            setter, holder, key, original = self._restore.pop()
            setter(holder, key, original)

    # -- metrics ------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.agg.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self_s
        return out

    def metrics(self, passes: int, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics, averaged over `passes` traced passes."""
        agg, counts = self.agg, self.counts

        def self_s(*names: str) -> float:
            return sum(agg[n][2] for n in names if n in agg)

        def calls(*names: str) -> int:
            return sum(agg[n][0] for n in names if n in agg)

        def with_prefix(prefix: str) -> list[str]:
            return [n for n in agg if n.startswith(prefix)]

        layers = self.layer_self()
        sweep_calls = counts.get("genfun.sweep.calls", 0)
        mul = ("poly.LaurentPoly.__mul__", "poly.LaurentPoly.__rmul__")
        m = {
            "perm.s": layers["perm"],
            "perm.avoid.s": self_s("perm.avoidance_class"),
            "perm.avoid.members": counts.get("perm.avoidance_class.members", 0),
            "perm.avoid.walks": calls("perm.avoidance_class"),
            "perm.enum_sn.s": self_s("perm.enumerate_sn"),
            "perm.enum_sn.members": counts.get("perm.enumerate_sn.members", 0),
            "stats.calls": counts.get("stats.entries", 0),
            "stats.s": layers["stats"],
            "poly.s": layers["poly"],
            "poly.mul.calls": calls(*mul),
            "poly.mul.s": self_s(*mul),
            "poly.mul.term_products": counts.get("poly.mul.term_products", 0),
            "poly.mul.result_bits": counts.get("poly.mul.result_bits", 0),
            "poly.pow.calls": calls("poly.LaurentPoly.__pow__"),
            "poly.pow.s": self_s("poly.LaurentPoly.__pow__"),
            "genfun.s": layers["genfun"],
            "genfun.sweep.s": self_s(*with_prefix("genfun.SweepCaches.")),
            "genfun.sweep.calls": sweep_calls,
            "genfun.sweep.hit_ratio": counts.get("genfun.sweep.hits", 0) / sweep_calls
            if sweep_calls else 0.0,
            "genfun.g_table.s": self_s("genfun.g_table"),
            "genfun.t_polynomial.s": self_s("genfun.t_polynomial"),
            "genfun.brute.s": self_s("genfun.brute_distribution"),
            "genfun.rec.s": self_s(*with_prefix("genfun.rec_")),
            "genfun.closed.s": self_s(
                *with_prefix("genfun.closed_"), *with_prefix("genfun.product_")
            ),
        }
        for suite in SUITE_NAMES:
            name = self._suite_names.get(suite)
            m[f"genfun.suite.{suite}.s"] = agg[name][1] if name in agg else 0.0
        m["cli.calls"] = calls("cli.main")
        m["cli.s"] = layers["cli"]
        out = {k: v if k in RATIOS else v / passes for k, v in m.items()}
        out["trace.coverage"] = sum(layers.values()) / traced_wall
        out["trace.overhead"] = traced_wall / passes / untraced_wall
        return out

    def dump(self) -> dict:
        """Everything recorded, in a JSON-ready form."""
        return {
            "functions": {
                name: {"calls": c, "inclusive_s": i, "self_s": s}
                for name, (c, i, s) in sorted(self.agg.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "spans": {
                "fields": ["id", "parent", "name", "start", "end"],
                "rows": self.spans,
                "dropped": self.spans_dropped,
            },
        }
