"""
Self-test of the benchmark, at a tiny size:

    python3 -m pytest bench/tests -q
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: bool = False, expected: dict | None = None) -> dict:
    result, _ = run.run(workload, seed=7, seconds=0.01, trace=trace, small=True,
                        expected=expected)
    return result


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", ["queries", "formula-large"])
def test_a_corrupted_expected_hash_counts_as_a_failure(workload):
    expected = run.load_expected()
    victim = ops.build_ops(workload, 7, small=True)[0]
    expected["outputs"][victim.key] = "0" * 64
    result = tiny_run(workload, expected=expected)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_a_changed_verify_status_counts_as_a_failure():
    expected = run.load_expected()
    expected["verify"]["example"][0][1] = "mismatch"
    result = tiny_run("verify-all", expected=expected)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("small", [False, True])
@pytest.mark.parametrize("workload", ops.WORKLOADS)
def test_the_same_seed_yields_the_same_operations(workload, small):
    assert ops.build_ops(workload, 3, small) == ops.build_ops(workload, 3, small)


@pytest.mark.parametrize("workload", ["queries", "formula-large"])
def test_another_seed_yields_other_operations(workload):
    assert ops.build_ops(workload, 3) != ops.build_ops(workload, 4)


def test_every_operation_has_a_frozen_output():
    frozen = run.load_expected()["outputs"]
    for workload in ("queries", "formula-large"):
        for small in (False, True):
            for variants in ops.universe(workload, small):
                for op_list in variants:
                    assert all(op.key in frozen for op in op_list)


def test_reference_time_scales_by_kernel_speed_and_skips_the_kernel():
    clock = calib.SpeedClock()
    ref = calib.REFERENCE_S
    # Kernel runs of 2x the reference time (a host at half speed) at 0, 1, 2, 3 s.
    clock.starts = [0.0, 1.0, 2.0, 3.0]
    clock.ends = [t + 2 * ref for t in clock.starts]
    program_s = 3.0 - 3 * 2 * ref
    assert clock.reference_s(0.0, 3.0 + 2 * ref) == pytest.approx(program_s / 2)
    assert clock.kernel_s(0.0, 3.0 + 2 * ref) == pytest.approx(4 * 2 * ref)
    # Inside one gap, a span counts its own length at that gap's speed.
    assert clock.reference_s(1.2, 1.6) == pytest.approx(0.2)


def test_a_clock_samples_while_active():
    with calib.SpeedClock() as clock:
        ops.build_ops("queries", 1)
    assert len(clock.starts) >= 2 * (calib.WINDOW // 2 + 1)
    assert all(end > start for start, end in zip(clock.starts, clock.ends))
