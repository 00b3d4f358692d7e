"""
The widthk benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload queries --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` (nothing is installed).  `--trace 0` measures the end-to-end metrics;
`--trace 1` makes a separate run that wraps every layer and reports the
per-layer metrics (see README.md).  End-to-end times are in reference
seconds: wall time corrected for the host's speed of the moment, which a
calibration kernel samples alongside the program (calib.py).  Every output
is checked, the last line of stdout is the JSON result, and a full record
(run context, raw wall times, and in traced runs the spans) goes to
`bench/out/`.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import ops as ops_mod  # noqa: E402
from layers import RATIOS, Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_REPEATS = 7
SUBPROCESS_TIMEOUT_S = 150
CHILD = BENCH / "child.py"


def per_layer_unit(name: str) -> str:
    if name.endswith(".s"):
        return "s"
    if name in RATIOS:
        return "ratio"
    return "count"


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "WIDTHK_MAX_N"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def import_widthk():
    """Import widthk from this checkout's src/, never from an installed copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import widthk
    import widthk.cli

    if Path(widthk.__file__).resolve().parent != SRC / "widthk":
        raise RuntimeError(f"widthk imported from {widthk.__file__}, not from {SRC}")
    return widthk


def load_expected() -> dict:
    with open(BENCH / "expected.json") as fh:
        return json.load(fh)


def run_child(argv: tuple[str, ...]) -> tuple[int, str, dict]:
    """Run child.py; returns exit code, stdout and the child's clock report."""
    proc = subprocess.run(
        [sys.executable, str(CHILD), *argv], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    lines = proc.stderr.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child exited with {proc.returncode} and no clock report")
    return proc.returncode, proc.stdout, json.loads(lines[-1])


def measure_setup(workload: str, seed: int, small: bool):
    """Median over repeats of a fresh interpreter's import plus input generation."""
    samples = []
    for _ in range(SETUP_REPEATS):
        code, _, report = run_child(("--import-only",))
        if code:
            raise RuntimeError(f"importing widthk.cli in a child exited with {code}")
        with calib.SpeedClock() as clock:
            t0 = perf_counter()
            op_list = ops_mod.build_ops(workload, seed, small)
            expected = load_expected()
            t1 = perf_counter()
        samples.append(report["reference_s"] + clock.reference_s(t0, t1))
    return statistics.median(samples), op_list, expected


class InProcess:
    """Calls `cli.main` in this process; a SpeedClock runs while it is active."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.clock = calib.SpeedClock()

    def __call__(self, argv: tuple[str, ...]) -> tuple[int, str, None]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(list(argv))
        return code, out.getvalue(), None

    def latency(self, start: float, end: float, _report: None) -> float:
        return self.clock.reference_s(start, end)


class Subprocess:
    """Runs each op in a fresh interpreter, which samples the host speed itself."""

    clock = contextlib.nullcontext()

    def __call__(self, argv: tuple[str, ...]) -> tuple[int, str, dict]:
        return run_child(argv)

    @staticmethod
    def latency(start: float, end: float, report: dict) -> float:
        # Interpreter start and exit, outside the child's clocked span, run at
        # the speed the child measured inside it.
        program_s = report["wall_s"] - report["kernel_s"]
        return (end - start - report["kernel_s"]) * report["reference_s"] / program_s


class Loop:
    """Runs whole passes over the op list, one op at a time, checking each."""

    def __init__(self, op_list, expected: dict) -> None:
        self.ops = op_list
        self.expected = expected
        self.passes: list[list[tuple]] = []  # per pass, (start, end, report) of each op
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self, call) -> float:
        """One pass; returns its wall time."""
        previous = None
        spans = []
        for op in self.ops:
            self.attempted += 1
            report = None
            try:
                t0 = perf_counter()
                code, stdout, report = call(op.argv)
                t1 = perf_counter()
                reason = ops_mod.check(op, code, stdout, self.expected, previous)
            except Exception:  # an op that crashes is a failed op; keep measuring
                t1, stdout = perf_counter(), None
                reason = traceback.format_exc().strip().splitlines()[-1]
            if reason:
                self.failures.append(f"{op.key}: {reason}")
            previous = stdout
            spans.append((t0, t1, report))
        self.passes.append(spans)
        return spans[-1][1] - spans[0][0]

    def run_for(self, call, seconds: float) -> int:
        """Whole passes while another one fits in `seconds`; at least one."""
        start = perf_counter()
        passes = 0
        while True:
            last = self.run_pass(call)
            passes += 1
            if perf_counter() - start + last > seconds:
                return passes

    def wall_s(self, pass_index: int) -> float:
        return sum(end - start for start, end, _ in self.passes[pass_index])

    def latencies(self, caller) -> list[float]:
        """Each op's median latency over the passes, in reference seconds."""
        per_pass = [[caller.latency(*span) for span in spans] for spans in self.passes]
        return [statistics.median(samples) for samples in zip(*per_pass)]


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def run_context(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "loadavg": list(os.getloadavg()),
        "src_lines": {
            p.name: len(p.read_text().splitlines())
            for p in sorted((SRC / "widthk").glob("*.py"))
        },
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False, expected: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    widthk = import_widthk()
    setup_s, op_list, frozen = measure_setup(workload, seed, small)
    loop = Loop(op_list, frozen if expected is None else expected)
    record = {"context": run_context(workload, seed, seconds, trace)}

    if not trace:
        caller = Subprocess() if workload == "verify-all" else InProcess(widthk.cli)
        with caller.clock:
            loop.run_for(caller, seconds)
        latencies = loop.latencies(caller)
        metrics = {
            "setup_s": setup_s,
            "pass_s": sum(latencies),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_p95_ms": percentile(latencies, 95) * 1000,
            "ops_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    else:
        # No clock here: its kernel would run inside traced spans.
        call = InProcess(widthk.cli)
        loop.run_pass(call)
        untraced = loop.wall_s(0)
        tracer = Tracer()
        tracer.install(widthk)
        try:
            passes = loop.run_for(call, seconds)
        finally:
            tracer.uninstall()
        traced_wall = sum(loop.wall_s(i) for i in range(1, len(loop.passes)))
        metrics = tracer.metrics(passes, traced_wall, untraced)
        units = {name: per_layer_unit(name) for name in metrics}
        record["trace"] = tracer.dump()

    failed = len(loop.failures)
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record.update(
        result=result,
        passes=len(loop.passes),
        pass_wall_s=[loop.wall_s(i) for i in range(len(loop.passes))],
        ops_per_pass=len(op_list),
        failures=loop.failures,
        named=named_metrics(workload, result),
    )
    return result, record


# The end-to-end metrics under the names each workload's users know them by.
NAMED = {
    "verify-all": {"verify_s": "pass_s"},
    "formula-large": {"formula_s": "pass_s"},
    "queries": {
        "query_p50_ms": "op_p50_ms", "query_p95_ms": "op_p95_ms",
        "queries_per_s": "ops_per_s",
    },
}


def named_metrics(workload: str, result: dict) -> dict:
    metrics = result["metrics"]
    out = {"failed_frac": result["failed"] / result["attempted"]}
    if "pass_s" in metrics:
        for name, source in {"setup_s": "setup_s", "peak_rss_mb": "peak_rss_mb",
                             **NAMED[workload]}.items():
            out[name] = metrics[source]["value"]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=ops_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "widthk" / "__init__.py").is_file():
        print(f"error: no widthk sources under {SRC}", file=sys.stderr)
        return 2

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))

    ctx = record["context"]
    print(f"workload {args.workload}, seed {args.seed}: {record['passes']} passes "
          f"of {record['ops_per_pass']} ops on {ctx['nproc']} CPUs ({ctx['cpu_model']})")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in record["named"].items():
        print(f"  [{name}] = {value:.6g}")
    print("pass wall s " + " ".join(f"{w:.3f}" for w in record["pass_wall_s"]))
    print("context " + json.dumps(ctx))
    for failure in record["failures"][:10]:
        print(f"failed: {failure}", file=sys.stderr)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
