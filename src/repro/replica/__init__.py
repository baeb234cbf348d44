"""Standby failover: WAL-following replicas and writer promotion.

One process owns the write path — the flock, the journal, the
scheduler clock — and serves every client.  This package keeps warm
standbys next to it without touching that invariant:

* :mod:`repro.replica.tailer` — an incremental WAL tailer: a byte
  offset over the journal's one reader (the file is never rewritten,
  so the offset never goes stale; checkpoints are ordinary records it
  hands over in order);
* :mod:`repro.replica.replica` — a standby: replays the tail through
  the recovery module's one apply loop (real handlers, effect
  byte-verification, never re-journaling) and serves nothing.  On
  writer death :meth:`ReadReplica.promote` is a cold start from the
  standby's own frontier: acquire the flock, follow the tail to its
  end, ``become_writer``;
* :mod:`repro.replica.supervisor` — the process supervisor: one
  writer on the plane's one port plus N standbys, heartbeat liveness,
  and automatic promotion of the most-caught-up following standby,
  which then binds that same port.

A standby's health is what its heartbeat says: ``applied_seq``,
``lag_records``, ``following`` and the error that ended its tail loop,
written per member into ``cluster.json`` for ``repro replica status``.
"""

from repro.replica.tailer import TailBatch, WalTailer
from repro.replica.replica import PromotionReport, ReadReplica
from repro.replica.supervisor import (
    CLUSTER_NAME,
    ServingPlane,
    read_cluster,
)

__all__ = [
    "CLUSTER_NAME",
    "PromotionReport",
    "ReadReplica",
    "ServingPlane",
    "TailBatch",
    "WalTailer",
    "read_cluster",
]
