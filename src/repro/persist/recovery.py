"""Crash recovery: rebuild a live ServiceGateway from a state directory.

There is one procedure, and a restart and a failover both run it: take
the directory's flock, follow the journal to its end through a
*follower* gateway (:func:`build_follower_gateway`,
:func:`replay_records`), then :func:`become_writer`.
:func:`recover_gateway` starts from offset zero;
:meth:`repro.replica.ReadReplica.promote` starts from wherever its
tail already is.

Why command history and not serialised object state?  The control
plane's state includes trained estimators, GP posteriors, a
discrete-event queue and closures wired through callbacks — an object
graph that cannot be serialised faithfully.  But the whole control
plane is deterministic — randomness flows through the server's seeded
generator in operation order, the cluster is a discrete-event kernel,
and tokens are journaled rather than regenerated — so replay rebuilds
the *identical* state the dead process had: tenants re-admitted into
the live :class:`~repro.core.multitenant.TenantRegistry`, trained
models reconstructed, terminal job results intact.  Every record must
be kept for that to hold (dropping one would change every draw after
it), which is why the journal is never compacted; at the newest
``checkpoint`` record replay verifies the state digest the live
process took there.

Jobs that were still in flight when the writer died get an explicit
disposition on their handle:

* ``in_flight="requeue"`` (default) — the replayed cluster still holds
  them; they complete on future polls.  Disposition ``"recovered"``.
* ``in_flight="mark-lost"`` — they are cancelled (terminal
  ``cancelled`` state), journaled as a ``job_cancelled`` record so the
  *next* recovery agrees.  Disposition ``"lost"``.

While a cold start replays, the gateway answers every request with
``UNAVAILABLE_RECOVERING`` (HTTP 503).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.engine.jobs import LIVE_STATES, JobState
from repro.persist.digest import state_digest
from repro.persist.journal import (
    CHECKPOINT,
    EFFECT_TYPES,
    JOURNAL_NAME,
    JournalError,
    JournalRecord,
    canonical_json,
    last_checkpoint,
    read_journal,
)
from repro.persist.store import (
    StateStore,
    acquire_lock,
    has_state,
    read_config,
    refuse_legacy_layout,
    write_config,
)
from repro.service.api import (
    CloseAppRequest,
    FeedRequest,
    RegisterAppRequest,
    SetExampleEnabledRequest,
    SubmitTrainingRequest,
)
from repro.service.gateway import ServiceGateway, TenantQuota

#: In-flight job policies.
IN_FLIGHT_POLICIES = ("requeue", "mark-lost")


class RecoveryError(JournalError):
    """Replay diverged from the journal (or the journal is unusable)."""


@dataclass
class RecoveryReport:
    """What recovery found and did; ``describe()`` renders it."""

    state_dir: str
    checkpoint_seq: int
    n_journal_records: int
    final_seq: int
    dropped_tail: int
    tenants: List[str] = field(default_factory=list)
    n_jobs: int = 0
    recovered: List[str] = field(default_factory=list)
    lost: List[str] = field(default_factory=list)

    @property
    def digest_verified(self) -> bool:
        """Did replay reach a checkpoint and match its state digest?"""
        return self.checkpoint_seq > 0

    def describe(self) -> str:
        lines = [
            f"recovered control plane from {self.state_dir}",
            f"  checkpoint: seq {self.checkpoint_seq} (digest "
            + ("verified)" if self.digest_verified else "absent)"),
            f"  journal: {self.n_journal_records} records"
            + (
                f" ({self.dropped_tail} torn tail record dropped)"
                if self.dropped_tail
                else ""
            ),
            f"  tenants: {', '.join(self.tenants) or '(none)'}",
            f"  job handles: {self.n_jobs} "
            f"({len(self.recovered)} requeued, {len(self.lost)} lost)",
        ]
        return "\n".join(lines)


def build_follower_gateway(
    config: Dict[str, Any],
    *,
    metrics=None,
    gateway_factory: Optional[
        Callable[[Optional[dict]], ServiceGateway]
    ] = None,
) -> ServiceGateway:
    """Build the gateway shape journal records are replayed into.

    The stored config pins the backend (same zoo subset, same seeded
    RNG), and the gateway is left in *follower mode*: while
    ``_replaying`` is set, applying records through the real handlers
    never re-journals, and effects fired by replay are buffered for
    byte-verification against the journal's effect records.  A replica
    stays a follower for as long as it tails; :func:`become_writer`
    ends the mode.  No store is attached and no flock is taken here.
    """
    if gateway_factory is not None:
        gateway = gateway_factory(config)
    else:
        kwargs: Dict[str, Any] = {}
        if metrics is not None:
            # Observability plumbing, not backend shape: never
            # journaled, so the replayed gateway can report into the
            # caller's registry without perturbing the stored config.
            kwargs["metrics"] = metrics
        for key in (
            "placement",
            "n_gpus",
            "scaling_efficiency",
            "preemption_overhead",
            "seed",
            "min_examples",
        ):
            if config.get(key) is not None:
                kwargs[key] = config[key]
        if config.get("default_quota"):
            kwargs["default_quota"] = TenantQuota(**config["default_quota"])
        names = config.get("zoo_names")
        if names is not None:
            from repro.ml.zoo import default_zoo

            try:
                kwargs["zoo"] = default_zoo().subset(names)
            except (KeyError, ValueError) as exc:
                raise RecoveryError(
                    f"the state directory was written against a zoo "
                    f"({names}) this build cannot reconstruct ({exc}); "
                    "pass gateway_factory to rebuild it"
                ) from None
        gateway = ServiceGateway(**kwargs)
    gateway._replaying = True
    return gateway


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def _tenant_for(gateway: ServiceGateway, name: str):
    tenant = gateway._tenant_names.get(name)
    if tenant is None:
        raise RecoveryError(
            f"journal references tenant {name!r} before its "
            "tenant_created record"
        )
    return tenant


def _consume_effect(gateway: ServiceGateway, record: JournalRecord) -> None:
    """Match one journaled effect against the replay's fired effects."""
    if not gateway._pending_effects:
        raise RecoveryError(
            f"seq {record.seq}: journal records a {record.type!r} "
            "effect but replay fired none — the journal and this "
            "build have diverged"
        )
    rtype, payload = gateway._pending_effects.pop(0)
    if rtype != record.type or (
        canonical_json(payload) != canonical_json(record.payload)
    ):
        raise RecoveryError(
            f"seq {record.seq}: journal records {record.type!r} "
            f"{canonical_json(record.payload)} but replay fired "
            f"{rtype!r} {canonical_json(payload)}"
        )


def cancel_in_flight(
    gateway: ServiceGateway,
    handles: List[str],
    *,
    seq: int,
    disposition: Optional[str] = None,
) -> None:
    """Cancel ``handles``: a ``job_cancelled`` record, replayed or new."""
    runtime_oracle = gateway.server._runtime_oracle
    for handle in handles:
        record = gateway._jobs.get(handle)
        if record is None:
            raise RecoveryError(
                f"seq {seq}: job_cancelled names unknown handle "
                f"{handle!r}"
            )
        if record.job.state is JobState.FINISHED:
            raise RecoveryError(
                f"seq {seq}: job_cancelled names handle {handle!r} "
                "but replay already finished it — the journal and "
                "this build have diverged"
            )
        if runtime_oracle is not None:
            runtime_oracle.runtime.cancel(
                record.job.job_id, reason="lost at recovery"
            )
        gateway.server._deferred_outcomes.pop(record.job.job_id, None)
        record.cancelled = True
        record.wake()  # release any long-poll on this handle
        if disposition is not None:
            record.disposition = disposition


def _apply_primary(gateway: ServiceGateway, record: JournalRecord) -> None:
    rtype, p = record.type, record.payload
    if rtype == "tenant_created":
        gateway.create_tenant(
            p["name"], TenantQuota(**p["quota"]), token=p["token"]
        )
    elif rtype == "tenant_retired":
        gateway.retire_tenant(p["name"])
    elif rtype == "token_rotated":
        gateway.rotate_token(p["name"], token=p["token"])
    elif rtype == "quota_changed":
        gateway.set_quota(p["name"], TenantQuota(**p["quota"]))
    elif rtype == "app_registered":
        tenant = _tenant_for(gateway, p["tenant"])
        gateway._register_app(
            tenant,
            RegisterAppRequest(
                auth_token=tenant.token, app=p["app"], program=p["program"]
            ),
        )
    elif rtype == "examples_fed":
        _replay_feed(gateway, record)
    elif rtype == "example_toggled":
        tenant = _tenant_for(gateway, p["tenant"])
        gateway._set_example_enabled(
            tenant,
            SetExampleEnabledRequest(
                auth_token=tenant.token,
                app=p["app"],
                example_id=int(p["example_id"]),
                enabled=bool(p["enabled"]),
            ),
        )
    elif rtype == "app_closed":
        tenant = _tenant_for(gateway, p["tenant"])
        gateway._close_app(
            tenant, CloseAppRequest(auth_token=tenant.token, app=p["app"])
        )
    elif rtype == "job_submitted":
        tenant = _tenant_for(gateway, p["tenant"])
        response = gateway._submit_training(
            tenant,
            SubmitTrainingRequest(
                auth_token=tenant.token, app=p["app"], steps=int(p["steps"])
            ),
        )
        replayed = [handle.job_id for handle in response.handles]
        if replayed != list(p["handles"]):
            raise RecoveryError(
                f"seq {record.seq}: replayed submit produced handles "
                f"{replayed}, journal says {list(p['handles'])}"
            )
    else:  # pragma: no cover - registry is closed upstream
        raise RecoveryError(f"seq {record.seq}: unhandled type {rtype!r}")


def _replay_feed(gateway: ServiceGateway, record: JournalRecord) -> None:
    p = record.payload
    if p.get("via") == "gateway" and p.get("tenant"):
        tenant = _tenant_for(gateway, p["tenant"])
        response = gateway._feed(
            tenant,
            FeedRequest(
                auth_token=tenant.token,
                app=p["app"],
                inputs=tuple(p["inputs"]),
                outputs=tuple(p["outputs"]),
            ),
        )
        replayed = list(response.example_ids)
    else:
        # A feed performed directly on the backing server (no tenant
        # accounting happened live, so none is replayed).
        app = gateway.server.get_app(p["app"])
        replayed = app.feed(p["inputs"], p["outputs"])
    if list(replayed) != list(p["example_ids"]):
        raise RecoveryError(
            f"seq {record.seq}: replayed feed assigned example ids "
            f"{list(replayed)}, journal says {list(p['example_ids'])}"
        )


def _verify_checkpoint(
    gateway: ServiceGateway, record: JournalRecord, *, digest: bool
) -> None:
    """A checkpoint is verified against the replay, never applied."""
    if gateway._pending_effects:
        raise RecoveryError(
            f"seq {record.seq}: checkpoint splits an operation group "
            f"({len(gateway._pending_effects)} unconsumed effect(s) "
            "at the mark)"
        )
    if not digest:
        return
    expected = record.payload.get("state_digest")
    actual = state_digest(gateway)
    if actual != expected:
        raise RecoveryError(
            f"seq {record.seq}: replayed state digest {actual[:16]}… "
            f"does not match the checkpoint's {str(expected)[:16]}… — "
            "refusing to serve diverged state (journal tampering, a "
            "changed environment, or a replay bug)"
        )


def replay_records(
    gateway: ServiceGateway, records: List[JournalRecord]
) -> Optional[JournalRecord]:
    """Re-execute ``records`` through a follower gateway's handlers.

    The one apply loop: primaries re-run their real handlers, effect
    records are byte-verified against the effects the replay fired
    (buffered in the gateway while ``_replaying``), and a mismatch
    raises :class:`RecoveryError` rather than serving diverged state.
    Every checkpoint must sit on an operation-group boundary; the
    digest (O(jobs) to compute) is verified at the newest one in
    ``records`` only, and that checkpoint is returned.  A record group
    may arrive split across calls — a tailer can observe a primary
    before its effect records land — so unconsumed effects legally
    carry over between calls; they are matched when the rest of the
    group arrives.
    """
    newest = last_checkpoint(records)
    for record in records:
        try:
            if record.type == CHECKPOINT:
                _verify_checkpoint(
                    gateway, record, digest=record is newest
                )
            elif record.type in EFFECT_TYPES:
                if gateway._pending_effects:
                    _consume_effect(gateway, record)
                elif record.type == "job_completed":
                    # A poll advanced the cluster: re-advance until the
                    # next completion is absorbed, then match it.
                    oracle = gateway.server._runtime_oracle
                    if oracle is None:
                        raise RecoveryError(
                            f"seq {record.seq}: job_completed before "
                            "any training started"
                        )
                    oracle.runtime.run_until_next_completion()
                    _consume_effect(gateway, record)
                elif record.type == "job_cancelled":
                    # Top-level cancellation: a previous recovery
                    # marked these handles lost.
                    cancel_in_flight(
                        gateway,
                        list(record.payload["handles"]),
                        seq=record.seq,
                    )
                elif record.type == "app_admitted":
                    gateway.server.admit_app(record.payload["app"])
                    _consume_effect(gateway, record)
                else:  # app_retired at top level
                    gateway.server.retire_app(record.payload["app"])
                    _consume_effect(gateway, record)
            else:
                if gateway._pending_effects:
                    raise RecoveryError(
                        f"seq {record.seq}: replay fired "
                        f"{len(gateway._pending_effects)} effect(s) the "
                        "journal does not record before this primary — "
                        "the journal and this build have diverged"
                    )
                _apply_primary(gateway, record)
        except RecoveryError:
            raise
        except Exception as exc:  # noqa: BLE001 - replay boundary
            raise RecoveryError(
                f"seq {record.seq} ({record.type}): replay failed with "
                f"{type(exc).__name__}: {exc}"
            ) from exc
    return newest


# ----------------------------------------------------------------------
# The end-game and its cold-start driver
# ----------------------------------------------------------------------
def become_writer(
    gateway: ServiceGateway,
    state_dir: Path,
    config: Dict[str, Any],
    lock_handle,
    *,
    seq: int,
    checkpoint_seq: int,
    in_flight: str,
    sync: Optional[str] = None,
    snapshot_every: Optional[int] = None,
) -> Tuple[int, List[str], List[str]]:
    """Turn a caught-up follower gateway into the directory's writer.

    The caller holds the flock (``lock_handle``, handed on to the
    store) and has replayed the journal to its shed end: ``seq`` is
    the last record applied, ``checkpoint_seq`` the newest checkpoint
    among them.  ``sync`` / ``snapshot_every`` default to the stored
    ``config``.  Returns ``(final_seq, recovered, lost)`` — the last
    sequence number once everything below is journaled, and the
    handles given each disposition.
    """
    # Effects fired by the final operation may have been torn off the
    # journal tail with the crash.  State already reflects them, so
    # they are not re-verified — but they MUST be re-journaled below
    # (once the store is attached), or the next recovery would find
    # the same effects fired with no record and refuse the directory
    # forever.
    torn_effects = list(gateway._pending_effects)
    gateway._pending_effects.clear()
    gateway._replaying = False

    recovered: List[str] = []
    lost: List[str] = []
    for handle, record in sorted(gateway._jobs.items()):
        if record.cancelled or record.job.state not in LIVE_STATES:
            continue
        if in_flight == "requeue":
            record.disposition = "recovered"
            recovered.append(handle)
        else:
            lost.append(handle)

    store = StateStore(
        state_dir,
        sync=sync if sync is not None else config.get("sync", "fsync"),
        snapshot_every=(
            snapshot_every
            if snapshot_every is not None
            else int(config.get("snapshot_every", 256))
        ),
        start_seq=seq,
        checkpoint_seq=checkpoint_seq,
        lock_handle=lock_handle,
    )
    gateway.attach_store(store)
    for rtype, payload in torn_effects:
        store.append(rtype, payload)
    if lost:
        cancel_in_flight(gateway, lost, seq=seq, disposition="lost")
        gateway._persist("job_cancelled", {"handles": lost})
    # Group mode defers fsync to the commit barrier: everything
    # re-journaled here must be durable before serving resumes.
    store.commit()
    return store.last_seq, recovered, lost


def recover_gateway(
    state_dir: Union[str, Path],
    *,
    in_flight: str = "requeue",
    sync: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    gateway_factory: Optional[
        Callable[[Optional[dict]], ServiceGateway]
    ] = None,
    metrics=None,
) -> Tuple[ServiceGateway, RecoveryReport]:
    """Rebuild a gateway from ``state_dir`` and re-attach its store.

    ``sync`` / ``snapshot_every`` default to the values stored in the
    directory's config.  ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) is handed to the
    rebuilt gateway — it is observability plumbing, not backend shape,
    so it is never journaled and never conflicts with the stored
    config (ignored when ``gateway_factory`` owns construction).
    Raises :class:`RecoveryError` (or a journal corruption error)
    rather than serving diverged state.
    """
    if in_flight not in IN_FLIGHT_POLICIES:
        raise ValueError(
            f"in_flight must be one of {IN_FLIGHT_POLICIES}, "
            f"got {in_flight!r}"
        )
    state_dir = Path(state_dir)
    config = read_config(state_dir)
    if config is None:
        raise RecoveryError(
            f"{state_dir} has no config.json — not a state directory "
            "(or one from before its first request)"
        )
    # Lock before reading: a live writer appending mid-replay would
    # hand us a moving journal.
    lock_handle = acquire_lock(state_dir)
    try:
        refuse_legacy_layout(state_dir)
        records, dropped = read_journal(
            state_dir / JOURNAL_NAME, shed_torn_tail=True
        )
        gateway = build_follower_gateway(
            config, metrics=metrics, gateway_factory=gateway_factory
        )
        gateway._recovering = True
        checkpoint = replay_records(gateway, records)
        checkpoint_seq = checkpoint.seq if checkpoint else 0
        final_seq, recovered, lost = become_writer(
            gateway,
            state_dir,
            config,
            lock_handle,
            seq=records[-1].seq if records else 0,
            checkpoint_seq=checkpoint_seq,
            in_flight=in_flight,
            sync=sync,
            snapshot_every=snapshot_every,
        )
        gateway._recovering = False
    except BaseException:
        lock_handle.close()
        raise
    report = RecoveryReport(
        state_dir=str(state_dir),
        checkpoint_seq=checkpoint_seq,
        n_journal_records=len(records),
        final_seq=final_seq,
        dropped_tail=dropped,
        tenants=sorted(gateway._tenant_names),
        n_jobs=len(gateway._jobs),
        recovered=recovered,
        lost=lost,
    )
    return gateway, report


def open_gateway(
    state_dir: Union[str, Path],
    *,
    sync: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    in_flight: str = "requeue",
    gateway_factory: Optional[
        Callable[[Optional[dict]], ServiceGateway]
    ] = None,
    **gateway_kwargs: Any,
) -> Tuple[ServiceGateway, Optional[RecoveryReport]]:
    """Open a durable gateway: recover if state exists, else start fresh.

    The fresh path writes ``config.json`` (the backend shape recovery
    will rebuild) and attaches an empty store; the recover path honours
    the stored config and ignores ``gateway_kwargs`` — except
    ``metrics``, which is observability plumbing (never journaled) and
    rides through to the rebuilt gateway on both paths.
    """
    state_dir = Path(state_dir)
    if has_state(state_dir):
        return recover_gateway(
            state_dir,
            in_flight=in_flight,
            sync=sync,
            snapshot_every=snapshot_every,
            gateway_factory=gateway_factory,
            metrics=gateway_kwargs.get("metrics"),
        )
    gateway = (
        gateway_factory(None)
        if gateway_factory is not None
        else ServiceGateway(**gateway_kwargs)
    )
    config = gateway.persist_config
    if config is None:
        raise RecoveryError(
            "this gateway wraps an externally-built server, so its "
            "backend shape (seed, zoo) cannot be recorded for "
            "recovery; build the gateway from keyword arguments to "
            "use --state-dir"
        )
    sync = sync if sync is not None else "fsync"
    snapshot_every = 256 if snapshot_every is None else int(snapshot_every)
    config = dict(config)
    config["sync"] = sync
    config["snapshot_every"] = snapshot_every
    write_config(state_dir, config)
    store = StateStore(
        state_dir, sync=sync, snapshot_every=snapshot_every
    )
    gateway.attach_store(store)
    return gateway, None
