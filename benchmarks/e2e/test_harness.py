"""The benchmark's own arithmetic, and that it emits what it declares."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import spans
import stats

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def span(sid, parent, name, start, end, attrs=None):
    return (sid, parent, name, float(start), float(end), attrs)


def test_self_time_nested_sibling_and_cross_thread():
    tree = [
        span(1, 0, "root", 0, 10),
        span(2, 1, "a", 1, 4),          # nested child
        span(3, 2, "a.inner", 2, 3),    # grandchild: only a's self shrinks
        span(4, 1, "b", 3, 6),          # sibling overlapping a by [3, 4]
        span(5, 1, "late", 9, 12),      # child outliving its parent
        # Linked across threads: the queue wait is a child of the root
        # and ends where the handler starts; the handler runs after the
        # wait, so it covers nothing of it.
        span(6, 1, "gateway.queue_wait", 6, 8),
        span(7, 6, "gateway.handle", 8, 20),
    ]
    own = spans.self_times(tree)
    # root: 10 - union([1,4] [3,6] [6,8] [9,10]) = 10 - 8
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(3.0)
    assert own[5] == pytest.approx(3.0)
    assert own[6] == pytest.approx(2.0)
    assert own[7] == pytest.approx(12.0)
    # An orphan (its parent fell outside the timed window) is a root.
    assert spans.self_times([span(9, 8, "orphan", 0, 1)])[9] == pytest.approx(1.0)


def test_per_op_layer_metrics_from_spans():
    program = [
        span(1, 0, "gateway.handle", 0.000, 0.010),
        span(2, 1, "persist.append", 0.002, 0.006, {"bytes": 120}),
        span(3, 2, "persist.fsync", 0.003, 0.005),
        span(4, 0, "infer.cache_lookup", 0.020, 0.021, {"rows": 8, "hits": 6}),
    ]
    out = layers.compute(ops=2, mean_latency_ms=10.0, program=program)
    assert out["gateway.handle.calls"] == pytest.approx(0.5)
    assert out["gateway.handle.self_ms"] == pytest.approx(3.0)
    assert out["persist.append.self_ms"] == pytest.approx(1.0)
    assert out["persist.fsync.self_ms"] == pytest.approx(1.0)
    assert out["persist.bytes_per_op"] == pytest.approx(60.0)
    assert out["infer.cache_hit_ratio"] == pytest.approx(0.75)
    # 10 ms per op at the client, (10 + 1) ms / 2 ops attributed to spans
    assert out["transport.unattributed_ms"] == pytest.approx(4.5)
    assert out["core.step.calls"] == 0.0
    assert set(out) == {entry["name"] for entry in layers.declared()}


def test_recorder_folds_recursion_and_links_queued_handles():
    recorder = spans.Recorder()

    def fit(depth):
        return depth if depth == 0 else wrapped_fit(depth - 1)

    wrapped_fit = recorder.wrap(fit, "ml.fit")
    wrapped_fit(3)
    assert [s[2] for s in recorder.spans] == ["ml.fit"]

    class Gateway:
        def submit_command(self, request):
            return request

        def handle(self, request):
            return "ok"

    Gateway.submit_command = recorder._wrap_submit(Gateway.submit_command)
    Gateway.handle = recorder.wrap(Gateway.handle, "gateway.handle")
    gateway, request = Gateway(), object()
    gateway.submit_command(request)
    gateway.handle(request)
    gateway.handle(object())  # called directly: no queue wait, a root
    names = {s[0]: s[2] for s in recorder.spans}
    waits = [s for s in recorder.spans if s[2] == "gateway.queue_wait"]
    handles = [s for s in recorder.spans if s[2] == "gateway.handle"]
    assert len(waits) == 1 and len(handles) == 2
    assert names[handles[0][1]] == "gateway.queue_wait"
    assert waits[0][4] == handles[0][3]  # the wait ends where the handler starts
    assert handles[1][1] == 0


def test_percentiles_need_ten_samples_beyond():
    assert stats.tail_percentile(list(range(50))) == (50.0, 24)
    assert stats.tail_percentile(list(range(100)))[0] == 90.0
    assert stats.tail_percentile(list(range(999)))[0] == 90.0
    assert stats.tail_percentile(list(range(1000))) == (99.0, 989)
    assert stats.tail_percentile(list(range(10_000)))[0] == 99.9
    assert not stats.supported(999, 99.0) and stats.supported(1000, 99.0)
    # p99 of too small a sample falls back to what the sample supports
    assert stats.capped_percentile(list(range(100)), 99.0) == 89
    assert stats.capped_percentile(list(range(1000)), 99.0) == 989


def test_reference_speed_cancels_a_slow_host():
    import reference

    step_s = [0.001, 0.002, 0.003, 0.010]
    kernel_s = [reference.KERNEL_REFERENCE_S] * 3
    rate, latencies_ms, factor = reference.at_reference_speed(step_s, kernel_s)
    assert factor == pytest.approx(1.0)
    assert rate == pytest.approx(4 / 0.016)
    assert latencies_ms == pytest.approx([1.0, 2.0, 3.0, 10.0])
    # The same trial on a host 1.6 times slower, kernel included.
    slow = reference.at_reference_speed(
        [1.6 * s for s in step_s], [1.6 * k for k in kernel_s]
    )
    assert slow[0] == pytest.approx(rate)
    assert slow[1] == pytest.approx(latencies_ms)
    assert slow[2] == pytest.approx(1.6)


def test_benchmark_json_declares_what_the_code_emits():
    import run
    import workloads

    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert {
        e["name"]: e["unit"] for e in SPEC["end_to_end"]
    } == run.END_TO_END
    assert SPEC["per_layer"] == layers.declared()
    for entry in SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", entry["name"])


def test_smoke_emits_exactly_the_declared_names():
    """All five workloads, traced, at tiny counts, through the real
    launcher: servers start, load runs, checks pass, names match."""
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7"],
        cwd=str(REPO_ROOT), capture_output=True, text=True, timeout=120,
    )
    assert process.returncode == 0, process.stdout + process.stderr
    result = json.loads(process.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert list(result["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, emitted in result["workloads"].items():
        assert list(emitted["end_to_end"]) == [
            e["name"] for e in SPEC["end_to_end"]
        ], name
        assert list(emitted["per_layer"]) == [
            e["name"] for e in SPEC["per_layer"]
        ], name
        assert all(v > 0 for v in emitted["end_to_end"].values()), name
    layer = {n: e["per_layer"] for n, e in result["workloads"].items()}
    # Each layer shows up where the README says it should, and only there.
    assert layer["sched_sim"]["core.step.calls"] == 1.0
    assert layer["sched_sim"]["gateway.handle.calls"] == 0.0
    assert layer["http_read"]["gateway.handle.calls"] == 1.0
    assert layer["http_read"]["persist.append.calls"] == 0.0
    assert layer["infer_unique"]["persist.append.calls"] == 0.0
    assert layer["infer_repeat"]["persist.append.calls"] == 0.0
    assert layer["http_mutate"]["persist.append.calls"] >= 4.0
    assert layer["http_mutate"]["ml.fit.calls"] >= 1.0
    assert layer["http_mutate"]["persist.recover.calls"] >= 2.0
    assert layer["http_mutate"]["replica.seed.calls"] == 1.0
    assert layer["infer_unique"]["infer.cache_hit_ratio"] < 0.05
    assert layer["infer_repeat"]["infer.cache_hit_ratio"] > 0.8
    assert not (REPO_ROOT / ".bench_e2e").exists()
