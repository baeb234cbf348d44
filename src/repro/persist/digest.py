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
from dataclasses import asdict, fields
from itertools import islice
from operator import attrgetter
from typing import Iterable, Iterator

from repro.errors import jsonify
from repro.platform.server import TrainingOutcome

_OUTCOME_FIELDS = tuple(f.name for f in fields(TrainingOutcome))
_outcome_values = attrgetter(*_OUTCOME_FIELDS)


def _history_rows(app) -> Iterator[dict]:
    # Field by field, not asdict() (a deep copy per finished job) nor
    # vars() (which gives every outcome a dict of its own to keep).
    for outcome in app.history:
        yield dict(zip(_OUTCOME_FIELDS, _outcome_values(outcome)))


def _app_doc(app, history) -> dict:
    return {
        "name": app.name,
        "closed": app.closed,
        "n_examples": len(app.store),
        "n_enabled": app.store.n_enabled,
        "history": history,
        "best_accuracy": (
            None if math.isinf(app.best_accuracy) else app.best_accuracy
        ),
        "best_candidate": app.best_candidate,
        "best_version": app.best_version,
    }


def _job_rows(gateway) -> Iterator[dict]:
    for handle_id in sorted(gateway._jobs):
        record = gateway._jobs[handle_id]
        yield {
            "handle": record.handle_id,
            "tenant": record.tenant,
            "app": record.app,
            "candidate": record.candidate,
            "state": gateway._record_state(record),
            "history_index": record.history_index,
        }


def _document(gateway, apps, jobs) -> dict:
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


def state_view(gateway) -> dict:
    """The digested state, as a canonical-JSON-able document."""
    apps = [
        _app_doc(app, list(_history_rows(app))) for app in gateway.server.apps
    ]
    return _document(gateway, apps, list(_job_rows(gateway)))


def _encode(value) -> str:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), default=jsonify
    )


#: Rows per encoder call when a digest streams a list.  One call over
#: a document of every job holds a small string per token until it
#: joins them (CPython 3.11's encoder): about 3 MB at 1 300 jobs.
_CHUNK = 256
#: Stands in for a streamed list while the document around it is
#: encoded.
_HOLE = "\0streamed\0"


def _hash_list(hasher, rows: Iterable) -> None:
    """Hash the JSON of list ``rows`` without holding it: ``_CHUNK`` rows
    per encoder call, the same bytes as one call over the whole list."""
    hasher.update(b"[")
    rows = iter(rows)
    separator = b""
    while True:
        chunk = list(islice(rows, _CHUNK))
        if not chunk:
            break
        hasher.update(separator + _encode(chunk)[1:-1].encode("utf-8"))
        separator = b","
    hasher.update(b"]")


class _HoleSpelled(Exception):
    """A digested string (a tenant or app name) contains :data:`_HOLE`."""


def _hash_around(hasher, document, streams) -> None:
    """Hash ``document``'s JSON, in which each :data:`_HOLE` (in key
    order) is filled by hashing the next of ``streams``."""
    rest = _encode(document)
    hole = _encode(_HOLE)
    if rest.count(hole) != len(streams):
        raise _HoleSpelled
    for stream in streams:
        head, rest = rest.split(hole, 1)
        hasher.update(head.encode("utf-8"))
        stream(hasher)
    hasher.update(rest.encode("utf-8"))


def state_digest(gateway) -> str:
    """SHA-256 over the canonical JSON of :func:`state_view`.

    Taken under the gateway lock at every checkpoint, over a document
    with a row per job ever submitted.  The rows are made and encoded
    a chunk at a time and fed to the hash, so a checkpoint holds one
    chunk of the document, not all of it; the bytes hashed are those
    of ``json.dumps(state_view(gateway), sort_keys=True,
    separators=(",", ":"), default=jsonify)``.
    """
    hasher = hashlib.sha256()
    apps = gateway.server.apps

    def hash_apps(hasher) -> None:
        hasher.update(b"[")
        for i, app in enumerate(apps):
            if i:
                hasher.update(b",")
            _hash_around(hasher, _app_doc(app, _HOLE), [
                lambda h, app=app: _hash_list(h, _history_rows(app))
            ])
        hasher.update(b"]")

    try:
        # "apps" sorts before "jobs": the holes are filled in that order.
        _hash_around(hasher, _document(gateway, _HOLE, _HOLE), [
            hash_apps, lambda h: _hash_list(h, _job_rows(gateway))
        ])
    except _HoleSpelled:
        hasher = hashlib.sha256(_encode(state_view(gateway)).encode("utf-8"))
    return hasher.hexdigest()
