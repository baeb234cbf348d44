"""A digest of the gateway's replay-reproducible state.

Every ``checkpoint`` record carries this digest; recovery (and every
tailing replica) recomputes it on reaching the newest checkpoint and
refuses to proceed on a mismatch — the determinism tripwire that
catches journal tampering, a drifted environment (different numpy
producing different accuracies), or a replay bug, *before* the
diverged state serves traffic.

Only state the journal can reproduce is digested.  Deliberately
excluded: the event log (read-only operations append INFER/REFINE
events that are not journaled), handle dispositions (session-local
advisory metadata about what *this* process's recovery did), and
in-memory plumbing (locks, hooks, caches) that is rebuilt, not
recovered.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict

from repro.errors import jsonify


def state_view(gateway) -> dict:
    """The digested state, as a canonical-JSON-able document."""
    server = gateway.server
    tenants = [
        {
            "name": tenant.name,
            "token": tenant.token,
            "retired": tenant.retired,
            "store_bytes": int(tenant.store_bytes),
            "quota": asdict(tenant.quota),
            "apps": list(tenant.apps),
        }
        for _, tenant in sorted(gateway._tenant_names.items())
    ]
    apps = [
        {
            "name": app.name,
            "closed": app.closed,
            "n_examples": len(app.store),
            "n_enabled": app.store.n_enabled,
            # vars(), not asdict(): outcomes are flat, and a deep copy
            # per finished job is most of what a checkpoint costs.
            "history": [vars(outcome) for outcome in app.history],
            "best_accuracy": (
                None if math.isinf(app.best_accuracy) else app.best_accuracy
            ),
            "best_candidate": app.best_candidate,
            "best_version": app.best_version,
        }
        for app in server.apps
    ]
    jobs = [
        {
            "handle": record.handle_id,
            "tenant": record.tenant,
            "app": record.app,
            "candidate": record.candidate,
            "state": gateway._record_state(record),
            "history_index": record.history_index,
        }
        for _, record in sorted(gateway._jobs.items())
    ]
    scheduler = server.scheduler
    runtime_oracle = server._runtime_oracle
    return {
        "tenants": tenants,
        "apps": apps,
        "jobs": jobs,
        "clock": server.clock.now,
        "scheduler": (
            None
            if scheduler is None
            else {
                "step_count": scheduler.step_count,
                "total_cost": scheduler.total_cost,
                "n_records": len(scheduler.records),
            }
        ),
        "runtime": (
            None
            if runtime_oracle is None
            else {
                "n_jobs": len(runtime_oracle.runtime.jobs),
                "n_finished": len(runtime_oracle.runtime.finished_jobs()),
                "n_failed": len(runtime_oracle.runtime.failed_jobs()),
            }
        ),
    }


def state_digest(gateway) -> str:
    """SHA-256 over the canonical JSON of :func:`state_view`.

    Taken under the gateway lock at every checkpoint, over a document
    with a row per job ever submitted: the C encoder walks it, and
    ``jsonify`` runs only on the numpy scalars it cannot encode — the
    same bytes as ``canonical_json`` without its Python-level pre-walk.
    """
    blob = json.dumps(
        state_view(gateway),
        sort_keys=True,
        separators=(",", ":"),
        default=jsonify,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
