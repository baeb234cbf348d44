"""Offline journal metrics: the ``state inspect`` view of a directory.

Builds a :class:`~repro.obs.metrics.MetricsRegistry` from the
records read off disk, using the *same* family names and primitives
the live journal reports through ``/metrics`` — so an operator
inspecting a cold state directory and one scraping a running server
read the same vocabulary (``journal_records_total{type=...}``,
``journal_bytes_total``), plus a commit-lag gauge only the offline
view can compute (how far the journal has run past its last
checkpoint).
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.persist.journal import CHECKPOINT, JournalRecord


def journal_metrics(
    records: Iterable[JournalRecord],
    *,
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Populate a registry from journal records.

    Parameters
    ----------
    records:
        The journal's records, in order.  The commit-lag gauge
        reports how many follow the newest ``checkpoint`` among them
        (state no verified digest covers yet).
    registry:
        Populate this registry instead of a fresh one (family
        re-registration makes sharing safe).
    """
    registry = registry if registry is not None else MetricsRegistry()
    m_records = registry.counter(
        "journal_records_total",
        "Records appended to the journal, by type.",
        ["type"],
    )
    m_bytes = registry.counter(
        "journal_bytes_total",
        "Bytes appended to the journal.",
    )
    m_lag = registry.gauge(
        "journal_commit_lag_records",
        "Records journaled past the last checkpoint (not yet "
        "covered by a verified state digest).",
    )
    last_seq = checkpoint_seq = 0
    for record in records:
        m_records.labels(record.type).inc()
        # +1 for the newline the on-disk framing appends per record.
        m_bytes.inc(len(record.to_line().encode("utf-8")) + 1)
        last_seq = record.seq
        if record.type == CHECKPOINT:
            checkpoint_seq = record.seq
    m_lag.set(last_seq - checkpoint_seq)
    return registry
