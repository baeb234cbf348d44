"""The durable control plane: journal, checkpoints, crash recovery.

``repro serve`` keeps all control-plane state — tenants, tokens,
quotas, app tables, job handles, scheduler histories — in process
memory; this package makes it survive a restart:

* :mod:`repro.persist.journal` — an append-only, fsync-disciplined,
  fail-stop JSONL write-ahead log with sequenced, checksummed records
  drawn from a closed type registry; never rewritten, and the only
  durable artefact besides the config.  Its one reader serves cold
  start, replicas and ``state inspect`` under one torn-tail rule: the
  holder of the directory's flock sheds a torn final line, everyone
  else leaves it alone;
* :mod:`repro.persist.recovery` — rebuilds a
  :class:`~repro.service.gateway.ServiceGateway` in the two steps a
  restart and a replica promotion share: replay the journal into a
  follower gateway (verifying the newest checkpoint's state digest on
  the way), then ``become_writer`` — re-journal torn effects, requeue
  (or mark lost) in-flight jobs with an explicit disposition on each
  handle, attach the store;
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
    read_journal_from,
    record_checksum,
)
from repro.persist.metrics import journal_metrics
from repro.persist.recovery import (
    IN_FLIGHT_POLICIES,
    RecoveryError,
    RecoveryReport,
    become_writer,
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
    "become_writer",
    "build_follower_gateway",
    "cancel_in_flight",
    "canonical_json",
    "has_state",
    "journal_metrics",
    "last_checkpoint",
    "open_gateway",
    "read_config",
    "read_journal",
    "read_journal_from",
    "record_checksum",
    "recover_gateway",
    "refuse_legacy_layout",
    "replay_records",
    "state_digest",
    "state_view",
    "write_config",
]
