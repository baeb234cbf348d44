"""Simulated execution engine: building blocks of the cluster ease.ml runs on.

The paper's deployment trains each selected model on a pool of 24
TITAN X GPUs treated as a *single device* (Sections 2 and 4.5).  This
subpackage holds the pieces that simulation is made of:

* :mod:`repro.engine.clock` — a virtual wall clock;
* :mod:`repro.engine.events` — a typed, queryable event log;
* :mod:`repro.engine.cluster` — the GPU pool with single-device
  discipline and a data-parallel scaling model;
* :mod:`repro.engine.jobs` — training-job lifecycle records;
* :mod:`repro.engine.trainer` — trainer interfaces (trace replay and
  live training against :mod:`repro.ml` models);
* :mod:`repro.engine.simulator` — the dedicated-device simulation
  used by the single- vs multi-device discussion (Section 5.3.2).

Jobs execute on the event-driven :mod:`repro.runtime`, which composes
these pieces; :class:`repro.runtime.AsyncClusterOracle` is the oracle
the scheduler drives.
"""

from repro.engine.clock import SimClock
from repro.engine.cluster import GPUPool
from repro.engine.events import Event, EventKind, EventLog
from repro.engine.jobs import Job, JobState
from repro.engine.simulator import (
    DedicatedDeviceResult,
    simulate_dedicated_devices,
)
from repro.engine.trainer import CallableTrainer, TraceTrainer, Trainer

__all__ = [
    "SimClock",
    "GPUPool",
    "Event",
    "EventKind",
    "EventLog",
    "Job",
    "JobState",
    "Trainer",
    "TraceTrainer",
    "CallableTrainer",
    "simulate_dedicated_devices",
    "DedicatedDeviceResult",
]
