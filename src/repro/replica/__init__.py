"""Scale-out serving: WAL-tailing read replicas and writer promotion.

One process owns the write path — the flock, the journal, the
scheduler clock.  This package adds horizontal *read* capacity without
touching that invariant:

* :mod:`repro.replica.tailer` — an incremental WAL tailer: a byte
  offset over the journal's one reader (the file is never rewritten,
  so the offset never goes stale; checkpoints are ordinary records it
  hands over in order);
* :mod:`repro.replica.replica` — a read replica: replays the tail
  through the recovery module's one apply loop (real handlers, effect
  byte-verification, never re-journaling) and serves every read
  route; writes come back ``NOT_WRITER`` carrying the writer's
  address.  On writer death :meth:`ReadReplica.promote` is a cold
  start from the replica's own frontier: acquire the flock, follow the
  tail to its end, ``become_writer``;
* :mod:`repro.replica.supervisor` — the process supervisor: one
  writer plus N replicas behind an ``SO_REUSEPORT`` front tier,
  heartbeat liveness, and automatic promotion of the most-caught-up
  replica.

The staleness contract: every replica exports
``replica_applied_seq`` / ``replica_lag_records`` /
``replica_lag_seconds`` gauges, stamps ``X-Replica-Lag`` on each
response, and — when started with a ``max_lag_records`` bound —
answers reads beyond the bound with ``UNAVAILABLE_RECOVERING`` rather
than serving arbitrarily stale state.
"""

from repro.replica.tailer import TailBatch, WalTailer
from repro.replica.replica import (
    PromotionReport,
    ReadReplica,
    ReplicaGateway,
)
from repro.replica.supervisor import (
    CLUSTER_NAME,
    ServingPlane,
    read_cluster,
)

__all__ = [
    "CLUSTER_NAME",
    "PromotionReport",
    "ReadReplica",
    "ReplicaGateway",
    "ServingPlane",
    "TailBatch",
    "WalTailer",
    "read_cluster",
]
