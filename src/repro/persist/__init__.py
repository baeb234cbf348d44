"""The durable control plane: journal, checkpoints, crash recovery.

``repro serve`` keeps all control-plane state — tenants, tokens,
quotas, app tables, job handles, scheduler histories — in process
memory; this package makes it survive a restart:

* :mod:`repro.persist.journal` — an append-only, fsync-disciplined
  JSONL write-ahead log with sequenced, checksummed records drawn from
  a closed type registry; never rewritten or truncated, and the only
  durable artefact besides the config;
* :mod:`repro.persist.recovery` — rebuilds a
  :class:`~repro.service.gateway.ServiceGateway` by replaying the
  journal (verifying the newest checkpoint's state digest on the way),
  re-admitting tenants into the live scheduler and re-queueing (or
  marking lost) in-flight jobs with an explicit disposition on each
  handle;
* :mod:`repro.persist.store` — the per-directory orchestrator
  (config, writer lock, checkpoint cadence: an O(1) ``checkpoint``
  record every ``snapshot_every`` records);
* :mod:`repro.persist.digest` — the replay-determinism tripwire the
  checkpoints carry.

Everything here is deterministic by construction: replaying the same
journal twice yields the same state digest.
"""

from repro.persist.digest import state_digest, state_view
from repro.persist.journal import (
    CHECKPOINT,
    EFFECT_TYPES,
    JOURNAL_NAME,
    Journal,
    JournalCorruptionError,
    JournalError,
    JournalRecord,
    RECORD_TYPES,
    canonical_json,
    last_checkpoint,
    read_journal,
    read_records_from,
    record_checksum,
)
from repro.persist.metrics import journal_metrics
from repro.persist.recovery import (
    IN_FLIGHT_POLICIES,
    RecoveryError,
    RecoveryReport,
    build_follower_gateway,
    cancel_in_flight,
    open_gateway,
    recover_gateway,
    replay_records,
)
from repro.persist.store import (
    StateStore,
    acquire_lock,
    has_state,
    read_config,
    refuse_legacy_layout,
    write_config,
)

__all__ = [
    "CHECKPOINT",
    "EFFECT_TYPES",
    "IN_FLIGHT_POLICIES",
    "JOURNAL_NAME",
    "Journal",
    "JournalCorruptionError",
    "JournalError",
    "JournalRecord",
    "RECORD_TYPES",
    "RecoveryError",
    "RecoveryReport",
    "StateStore",
    "acquire_lock",
    "build_follower_gateway",
    "cancel_in_flight",
    "canonical_json",
    "has_state",
    "journal_metrics",
    "last_checkpoint",
    "open_gateway",
    "read_config",
    "read_journal",
    "read_records_from",
    "record_checksum",
    "recover_gateway",
    "refuse_legacy_layout",
    "replay_records",
    "state_digest",
    "state_view",
    "write_config",
]
