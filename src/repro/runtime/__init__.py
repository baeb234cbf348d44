"""Discrete-event cluster runtime: the one cluster substrate.

Every training job — trace-driven experiments and the live
:class:`~repro.platform.server.EaseMLServer` alike — executes on this
event-driven runtime over the :mod:`repro.engine` building blocks.
Under ``single`` placement it is the paper's discipline (the whole pool
trains one model at a time); the other placements model the cluster
dynamics the paper's Section 5.3.2 discussion only gestures at (and
that Dorm, arXiv:1704.06738, and "No DNN Left Behind",
arXiv:1901.06887, argue multi-tenant ML systems need):

* :mod:`repro.runtime.queue` — the heap-based discrete-event kernel
  queue, ordered by ``(time, seq)`` with deterministic FIFO
  tie-breaking;
* :mod:`repro.runtime.placement` — pluggable device-placement
  policies: single-device (the paper), per-user dedicated devices, and
  Dorm-style dynamic equal-share partitioning;
* :mod:`repro.runtime.kernel` — :class:`ClusterRuntime`, a
  preemption-capable executor multiplexing concurrent jobs over the
  shared :class:`~repro.engine.cluster.GPUPool`;
* :mod:`repro.runtime.workload` — Poisson/deterministic tenant
  arrival/departure generation and JSONL trace record/replay;
* :mod:`repro.runtime.oracle` — :class:`AsyncClusterOracle`, which
  lets the :class:`~repro.core.multitenant.MultiTenantScheduler` keep
  dispatching while jobs complete out of order;
* :mod:`repro.runtime.trace` — execution-log JSONL serialisation plus
  makespan / time-averaged-regret metrics for the placement benchmark.
"""

from repro.runtime.kernel import ClusterRuntime
from repro.runtime.oracle import AsyncClusterOracle
from repro.runtime.placement import (
    PLACEMENT_POLICIES,
    DedicatedDevicePlacement,
    DynamicPartitionPlacement,
    PlacementPolicy,
    SingleDevicePlacement,
    make_placement,
)
from repro.runtime.queue import EventQueue, ScheduledEvent
from repro.runtime.trace import (
    TraceDivergence,
    diff_event_files,
    diff_event_logs,
    events_to_jsonl,
    first_divergence,
    makespan,
    read_events_jsonl,
    time_averaged_regret,
    write_events_jsonl,
)
from repro.runtime.workload import (
    WorkloadGenerator,
    WorkloadItem,
    WorkloadTrace,
    replay_trace,
)

__all__ = [
    "EventQueue",
    "ScheduledEvent",
    "PlacementPolicy",
    "SingleDevicePlacement",
    "DedicatedDevicePlacement",
    "DynamicPartitionPlacement",
    "PLACEMENT_POLICIES",
    "make_placement",
    "ClusterRuntime",
    "AsyncClusterOracle",
    "WorkloadGenerator",
    "WorkloadItem",
    "WorkloadTrace",
    "replay_trace",
    "events_to_jsonl",
    "write_events_jsonl",
    "read_events_jsonl",
    "makespan",
    "time_averaged_regret",
    "TraceDivergence",
    "first_divergence",
    "diff_event_logs",
    "diff_event_files",
]
