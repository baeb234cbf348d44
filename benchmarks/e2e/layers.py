"""Per-layer metrics: which exist, and how spans turn into them.

Every span name ``S`` yields ``S.calls`` (calls per op) and
``S.self_ms`` (self time per op, milliseconds); the layer is the part
of ``S`` before the dot and is the name of the ``repro`` module the
callable lives in.  A metric whose layer a workload never enters reads
0 there.  ``persist.recover`` and ``replica.seed`` happen in the
restart phase, not in the timed section: their ``calls`` is the number
of recoveries in the run and their ``self_ms`` the mean per recovery.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import spans
import stats

#: Spans of the timed section, in request order.
TIMED_SPANS = (
    "client.request",
    "api.from_wire",
    "api.to_wire",
    "http.decode",
    "http.route",
    "gateway.handle",
    "gateway.queue_wait",
    "platform.feed",
    "runtime.submit",
    "runtime.step",
    "ml.fit",
    "ml.predict",
    "core.step",
    "core.user_pick",
    "core.model_select",
    "core.observe",
    "gp.update",
    "gp.posterior",
    "persist.append",
    "persist.commit",
    "persist.fsync",
    "persist.snapshot",
    "infer.predict",
    "infer.queue_wait",
    "infer.cache_lookup",
    "infer.cache_store",
    "obs.trace",
    "obs.slo_record",
)
#: Spans of the restart phase.
RESTART_SPANS = ("persist.recover", "replica.seed")

#: name -> (unit, better) for everything that is not ``.calls`` / ``.self_ms``.
DERIVED: Dict[str, Tuple[str, str]] = {
    "transport.unattributed_ms": ("ms/op", "lower"),
    "gateway.queue_wait_p99_ms": ("ms", "lower"),
    "persist.snapshot_max_ms": ("ms", "lower"),
    "persist.bytes_per_op": ("B/op", "lower"),
    "infer.cache_hit_ratio": ("ratio", "higher"),
    "infer.rows_per_flush": ("rows", "higher"),
    "infer.requests_per_flush": ("count", "higher"),
    "restart_to_ready_s": ("s", "lower"),
    "sched.loss_auc": ("loss", "lower"),
    "trace_overhead_pct": ("%", "lower"),
}


def declared() -> List[Dict[str, str]]:
    """The ``per_layer`` list of ``BENCHMARK.json``."""
    out = []
    for name in TIMED_SPANS + RESTART_SPANS:
        out.append({"name": f"{name}.calls", "unit": "1/op", "better": "lower"})
        out.append({"name": f"{name}.self_ms", "unit": "ms/op", "better": "lower"})
    for name, (unit, better) in DERIVED.items():
        out.append({"name": name, "unit": unit, "better": better})
    return out


def compute(
    *,
    ops: int,
    mean_latency_ms: float,
    program: Sequence[spans.Span],
    client: Sequence[spans.Span] = (),
    restart_sets: Sequence[Sequence[spans.Span]] = (),
) -> Dict[str, float]:
    """All span-derived metrics of one traced run.

    ``program`` holds the timed-section spans of the program under
    test (the server; the benchmark process for ``sched_sim``),
    ``client`` the load generator's, and each element of
    ``restart_sets`` the spans of one process of the restart phase.
    ``restart_to_ready_s``, ``sched.loss_auc`` and
    ``trace_overhead_pct`` are not derived from spans; the caller fills
    them in.
    """
    out = {entry["name"]: 0.0 for entry in declared()}
    program_names = spans.by_name(program)
    merged: Dict[str, Dict[str, float]] = {}
    for source in (program_names, spans.by_name(client)):
        for name, entry in source.items():
            into = merged.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0.0) + value
    for name in TIMED_SPANS:
        entry = merged.get(name)
        if entry:
            out[f"{name}.calls"] = entry["calls"] / ops
            out[f"{name}.self_ms"] = entry["self_s"] * 1e3 / ops

    attributed_ms = (
        sum(entry["self_s"] for entry in program_names.values()) * 1e3 / ops
    )
    out["transport.unattributed_ms"] = mean_latency_ms - attributed_ms
    waits = spans.durations(program, "gateway.queue_wait")
    if waits:
        out["gateway.queue_wait_p99_ms"] = (
            stats.capped_percentile(waits, 99.0) * 1e3
        )

    def get(name: str, key: str) -> float:
        return merged.get(name, {}).get(key, 0.0)

    out["persist.snapshot_max_ms"] = get("persist.snapshot", "max_s") * 1e3
    out["persist.bytes_per_op"] = get("persist.append", "bytes") / ops
    looked_up = get("infer.cache_lookup", "rows")
    if looked_up:
        out["infer.cache_hit_ratio"] = (
            get("infer.cache_lookup", "hits") / looked_up
        )
    flushes = get("ml.predict", "calls")
    if flushes and get("infer.predict", "calls"):
        out["infer.rows_per_flush"] = get("ml.predict", "rows") / flushes
        out["infer.requests_per_flush"] = (
            get("infer.queue_wait", "calls") / flushes
        )

    restarts = [spans.by_name(restart) for restart in restart_sets]
    for name in RESTART_SPANS:
        entries = [r[name] for r in restarts if name in r]
        calls = sum(entry["calls"] for entry in entries)
        if calls:
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = (
                sum(entry["self_s"] for entry in entries) * 1e3 / calls
            )
    return out
