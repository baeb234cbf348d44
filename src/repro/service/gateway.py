"""The service gateway: validation, tenancy, quotas, async job handles.

:class:`ServiceGateway` is the transport-agnostic router every
frontend (the HTTP server, the Python SDK used in-process, tests)
dispatches through.  It owns:

* **tenant identity** — auth tokens map to named tenants; every app
  belongs to the tenant that registered it, and cross-tenant access
  reports ``NOT_FOUND`` (names are not leaked across tenants);
* **quotas** — per-tenant ceilings on registered apps, jobs in
  flight, and example-store bytes, enforced *before* state changes;
* **async training** — ``SubmitTrainingRequest`` returns job handles
  immediately; the jobs run on the PR-1 discrete-event
  :class:`~repro.runtime.kernel.ClusterRuntime` under the server's
  placement policy, so many tenants keep work in flight and
  completions land out of submission order.  Each
  ``JobStatusRequest`` poll of a live job advances the simulated
  cluster by one completion event, and every completion is absorbed
  into the scheduler exactly once (picker observation, Algorithm 2
  recurrence, step record) in completion order.

The backend is the existing :class:`~repro.platform.server.EaseMLServer`
with its event-driven runtime enabled; the gateway never exposes it
directly — everything in and out is a typed message from
:mod:`repro.service.api`, and every failure is an
:class:`~repro.service.api.ApiError`.

Request handling is split into two paths, by request type alone, so
the event-loop frontend never parks on the scheduler lock:

* the **read path** (``_READ_REQUESTS``) takes no lock at all —
  handlers consume immutable :class:`TenantView` snapshots that
  writers republish before acking, plus GIL-atomic snapshots of
  append-only shared structures; the HTTP frontend runs it inline on
  its loop;
* the **write path** serialises on the gateway lock, and the journal
  ``seq`` taken under it is the order of record of a tenant's writes;
  the HTTP frontend calls :meth:`ServiceGateway.handle` on a worker
  thread, in-process callers on their own.

``InferRequest`` straddles the two: it takes no outer lock, but a cache
miss may park behind the model.  Its first half — validation,
admission, the cache probe — cannot block, so the HTTP frontend runs it
on the loop (``handle(request, may_block=False)``).  A miss is flushed
there too when nothing can make it wait: the gateway lock is free (it
is tried, never waited for), the app is idle, and its last flush
measured under ``INLINE_FLUSH_SECONDS``.  Any other miss pays a hop to
a worker thread, carrying the probe's products.

``JobStatusRequest.wait`` long-polls server-side: the handler drives
the cluster toward the handle's completion and parks on the handle's
done event between advances, waking on completion, cancellation, or
frontend shutdown (:meth:`ServiceGateway.add_wait_abort`).

Durability visibility: a ``job_status`` poll always runs the group-
commit ack barrier before answering, so a reported terminal state is
covered by an fsync.  List-type reads (``list_jobs``, ``events``) are
advisory snapshot views — under ``sync="group"`` they may briefly show
a completion whose records a concurrent poll is still flushing; the
authoritative ack for a job is its ``job_status`` response.
"""

from __future__ import annotations

import functools
import secrets
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.engine.events import EventKind
from repro.engine.jobs import LIVE_STATES, Job, JobState
from repro.errors import jsonify
from repro.obs import (
    NULL_TRACER,
    PICK_LATENCY_BUCKETS,
    MetricsRegistry,
    SLOEngine,
    Tracer,
    add_span,
    current_request,
    current_request_id,
    span,
)
from repro.infer import InferPlane, InferPlaneConfig
from repro.platform.server import EaseMLApp, EaseMLServer
from repro.runtime.trace import event_to_dict
from repro.service.stream import EventBroker
from repro.service.api import (
    API_VERSION,
    ApiError,
    ApiErrorCode,
    AppStatusRequest,
    AppStatusResponse,
    CloseAppRequest,
    CloseAppResponse,
    EventsRequest,
    EventsResponse,
    FeedRequest,
    FeedResponse,
    InferRequest,
    InferResponse,
    JobHandle,
    JobStatusRequest,
    JobStatusResponse,
    ListAppsRequest,
    ListAppsResponse,
    ListJobsRequest,
    ListJobsResponse,
    RefineRequest,
    RefineResponse,
    RegisterAppRequest,
    RegisterAppResponse,
    Request,
    Response,
    ServerInfoRequest,
    ServerInfoResponse,
    SetExampleEnabledRequest,
    SetExampleEnabledResponse,
    SubmitTrainingRequest,
    SubmitTrainingResponse,
)

#: Request types served on the lock-free read path: their handlers
#: consume only immutable :class:`TenantView` snapshots (published by
#: writers under the gateway lock) plus GIL-atomic snapshots of
#: append-only shared structures, so they never take a lock at all and
#: the event loop runs them inline.  Anything that mutates
#: shared state — registration, feeds, submits, closes, and the
#: runtime advance inside a live job poll — still runs under the
#: global lock (a live ``JobStatusRequest`` upgrades internally).
_READ_REQUESTS = (
    AppStatusRequest,
    EventsRequest,
    JobStatusRequest,
    ListAppsRequest,
    ListJobsRequest,
    RefineRequest,
    ServerInfoRequest,
)

#: Request types ``handle`` runs without the outer gateway lock: the
#: read path plus infer.  A job poll is lock-free until it must advance
#: the cluster (then it takes the global lock itself) — a long-poll
#: that parked *holding* the global lock would stall every tenant for
#: up to MAX_WAIT_SECONDS.  Infer is the same shape: its coalescing
#: convoy parks request threads, so only the flush inside
#: _predict_batch may hold the lock — an infer running under the outer
#: lock would deadlock its own followers.
_LOCK_FREE_REQUESTS = _READ_REQUESTS + (InferRequest,)

#: Hard ceiling on one server-side long-poll (``JobStatusRequest.wait``);
#: clients re-issue the poll to wait longer.
MAX_WAIT_SECONDS = 30.0

#: Short metric-label names for request types ("RegisterAppRequest"
#: -> "register_app"), so dashboards read naturally.
_REQUEST_TYPE_NAMES = {
    AppStatusRequest: "app_status",
    CloseAppRequest: "close_app",
    EventsRequest: "events",
    FeedRequest: "feed",
    InferRequest: "infer",
    JobStatusRequest: "job_status",
    ListAppsRequest: "list_apps",
    ListJobsRequest: "list_jobs",
    RefineRequest: "refine",
    RegisterAppRequest: "register_app",
    ServerInfoRequest: "server_info",
    SetExampleEnabledRequest: "set_example_enabled",
    SubmitTrainingRequest: "submit_training",
}


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant resource ceilings the gateway enforces."""

    max_apps: int = 4
    max_pending_jobs: int = 8
    max_store_bytes: int = 16 * 1024 * 1024
    #: Inference admission (token bucket, counted in rows): None
    #: defers to the infer plane's default (unlimited out of the box).
    #: Journaled with the quota, so a restart keeps the limit.
    infer_rows_per_second: Optional[float] = None
    infer_burst_rows: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("max_apps", "max_pending_jobs", "max_store_bytes"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be >= 1")
        if (
            self.infer_rows_per_second is not None
            and self.infer_rows_per_second <= 0
        ):
            raise ValueError("infer_rows_per_second must be positive")
        if (
            self.infer_burst_rows is not None
            and self.infer_burst_rows < 1
        ):
            raise ValueError("infer_burst_rows must be >= 1")


@dataclass(frozen=True)
class TenantView:
    """The immutable snapshot of tenant state the read path serves.

    Writers replace ``Tenant.view`` with a fresh instance (under the
    gateway lock, before the mutation acks) whenever membership or
    retirement changes; lock-free readers grab the view once and never
    touch the live ``Tenant`` lists, so a concurrent register or
    retire can never surface a half-updated tenant to a read.
    """

    name: str
    apps: Tuple[str, ...]
    retired: bool


@dataclass
class Tenant:
    """One authenticated principal and its resources."""

    name: str
    token: str
    quota: TenantQuota
    apps: List[str] = field(default_factory=list)
    #: Running example-store usage (updated on feed; stores are
    #: append-only, so this never needs recomputing).
    store_bytes: int = 0
    #: A retired tenant keeps its token for reads (job polls answer
    #: ``cancelled``, infer keeps serving) but every mutation fails
    #: with FAILED_PRECONDITION.
    retired: bool = False
    #: Immutable snapshot for the lock-free read path; republished by
    #: writers after every membership/retirement change.
    view: TenantView = field(init=False, repr=False, compare=False)
    #: Job records that may still be in flight: appended at submit,
    #: pruned when the quota check reads it.  A job never returns to a
    #: live state, so that check costs O(in flight), not O(every job
    #: the gateway ever took).
    live_jobs: List["_JobRecord"] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.republish()

    def republish(self) -> None:
        """Publish a fresh read-path snapshot (single reference swap)."""
        self.view = TenantView(self.name, tuple(self.apps), self.retired)


#: Guards making and dropping a job handle's long-poll event.
_WAITERS = threading.Lock()
#: The event every terminal handle's waiters find: already set, so a
#: park after the wake returns at once.
_WOKEN = threading.Event()
_WOKEN.set()


@dataclass(slots=True)
class _JobRecord:
    """Gateway-side bookkeeping for one async training job."""

    handle_id: str
    tenant: str
    app: str
    candidate: str
    job: Job
    tenant_state: Any  # core.multitenant.TenantState
    selection: Any  # core.model_picking.Selection
    #: Row in the app's TrainingOutcome history — assigned when the
    #: job completes (outcomes land in completion order).
    history_index: Optional[int] = None
    #: Cancelled at the gateway level: the owning app/tenant was
    #: retired while the job was queued, or recovery marked it lost.
    #: The API reports state ``"cancelled"`` (terminal) — never
    #: NOT_FOUND, even across a restart, because handles are journaled.
    cancelled: bool = False
    #: What crash recovery did to this handle (``"recovered"`` /
    #: ``"lost"``); session-local, never persisted.
    disposition: Optional[str] = None
    #: What long-poll waiters (``JobStatusRequest.wait``) park on when
    #: they cannot advance the cluster: made by the first waiter
    #: (:meth:`park`), set and swapped for the shared, already-set
    #: :data:`_WOKEN` when the handle turns terminal (:meth:`wake`:
    #: completion hook, gateway cancellation, recovery mark-lost).  A
    #: finished handle holds no event of its own.
    waiter: Optional[threading.Event] = field(
        default=None, repr=False, compare=False
    )

    def park(self, timeout: float) -> None:
        """Block up to ``timeout`` seconds, or until :meth:`wake`."""
        with _WAITERS:
            event = self.waiter
            if event is None:
                event = self.waiter = threading.Event()
        event.wait(timeout)

    def wake(self) -> None:
        """The handle is terminal: release its waiters, drop the event."""
        with _WAITERS:
            event, self.waiter = self.waiter, _WOKEN
        if event is not None:
            event.set()


class ServiceGateway:
    """Typed request router over an :class:`EaseMLServer`.

    Parameters
    ----------
    server:
        The :class:`EaseMLServer` to route to.  When omitted, one is
        built from the keyword arguments below.
    placement, n_gpus, scaling_efficiency, preemption_overhead, seed,
    min_examples:
        Backend shape used only when ``server`` is None.
    default_quota:
        Quota applied to tenants created without an explicit one.
    metrics:
        The :class:`~repro.obs.MetricsRegistry` this gateway reports
        into (default: a fresh enabled registry).  Pass a disabled
        registry (``MetricsRegistry(enabled=False)``) to strip every
        instrument down to a no-op — the ``repro serve --no-metrics``
        escape hatch the overhead benchmark races.
    """

    def __init__(
        self,
        server: Optional[EaseMLServer] = None,
        *,
        placement: str = "partition",
        n_gpus: int = 8,
        scaling_efficiency: float = 0.9,
        preemption_overhead: float = 0.0,
        seed: int = 0,
        min_examples: int = 10,
        default_quota: Optional[TenantQuota] = None,
        zoo=None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Any] = None,
        slo: Optional[SLOEngine] = None,
        infer_config: Optional[InferPlaneConfig] = None,
    ) -> None:
        server_provided = server is not None
        if server is None:
            server = EaseMLServer(
                zoo,
                runtime_placement=placement,
                n_gpus=n_gpus,
                scaling_efficiency=scaling_efficiency,
                preemption_overhead=preemption_overhead,
                min_examples=min_examples,
                seed=seed,
                served=True,
            )
        self.server = server
        self.default_quota = default_quota or TenantQuota()
        # --- observability ------------------------------------------
        #: The metrics registry every layer below reports into (the
        #: HTTP frontend reads it for GET /metrics; attach_store binds
        #: it to the journal; _ensure_app_scheduled to the scheduler).
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: The span tracer the frontend starts/finishes traces through;
        #: deep layers (journal, scheduler) emit via the ambient
        #: context instead.  ``--no-metrics`` disables tracing too.
        self.tracer = tracer if tracer is not None else (
            Tracer() if self.metrics.enabled else NULL_TRACER
        )
        #: Per-tenant SLO scoring; every completed handle() records
        #: into it, and /metrics scrapes refresh its gauges.
        self.slo = slo if slo is not None else SLOEngine(
            registry=self.metrics
        )
        #: The inference data plane (repro.infer): vectorized predict,
        #: cross-request coalescing, prediction cache, admission.
        #: Reconfigure whole via :meth:`configure_infer_plane`.
        self.infer_plane = InferPlane(
            config=infer_config, metrics=self.metrics
        )
        #: Server-push notifications (SSE on the HTTP frontend):
        #: job completions and model promotions, the infer plane's
        #: companions.
        self.events_broker = EventBroker()
        m = self.metrics
        self._m_requests = m.counter(
            "gateway_requests_total",
            "Gateway requests handled, by tenant, type, and outcome.",
            ["tenant", "type", "outcome"],
        )
        self._m_request_seconds = m.histogram(
            "gateway_request_seconds",
            "Gateway handler latency, by request type.",
            ["type"],
        )
        self._m_parks = m.counter(
            "gateway_longpoll_parks_total",
            "Long-poll waits that parked on a job's done event.",
        )
        self._m_wakes = m.counter(
            "gateway_longpoll_wakes_total",
            "Long-poll waits resolved, by reason.",
            ["reason"],
        )
        self._m_pick_seconds = m.histogram(
            "scheduler_pick_seconds",
            "Latency of one serving-path model pick "
            "(TenantState.picker.select).",
            buckets=PICK_LATENCY_BUCKETS,
        )
        self._m_picks = m.counter(
            "scheduler_picks_total",
            "Model picks made on the serving path, by tenant.",
            ["tenant"],
        )
        self._tenants: Dict[str, Tenant] = {}  # token -> tenant
        self._tenant_names: Dict[str, Tenant] = {}
        self._jobs: Dict[str, _JobRecord] = {}  # handle id -> record
        self._jobs_by_runtime_id: Dict[int, _JobRecord] = {}
        #: ``app -> (history index, job handle id)`` of the newest run
        #: that improved the app, so infer can name the training run
        #: that produced the served model.
        self._best_handles: Dict[str, Tuple[int, str]] = {}
        self._lock = threading.RLock()
        self._absorb_hook_installed = False
        #: Frontend shutdown events (see :meth:`add_wait_abort`): a set
        #: event makes every in-flight long-poll return its current
        #: status promptly instead of parking until its deadline.
        self._wait_aborts: List[threading.Event] = []
        # --- durable control plane (repro.persist) ------------------
        #: The attached StateStore (journal + checkpoint cadence), or
        #: None for an in-memory-only gateway.
        self._store: Any = None
        #: True while crash recovery replays the journal through this
        #: gateway: journaling is suppressed, side-effects are queued
        #: for verification, and handle() answers 503.
        self._replaying = False
        self._recovering = False
        #: Side-effect records (admissions, retirements, completions,
        #: cancellations) fired while a journaled operation executes;
        #: drained to the journal right after the operation's primary
        #: record, so replay sees them in emission order.
        self._pending_effects: List[Tuple[str, Dict[str, Any]]] = []
        self._op_depth = 0
        self._feed_ctx: Optional[str] = None  # tenant name mid-_feed
        #: Backend shape recovery needs to rebuild an identical
        #: gateway; None when wrapping an externally-built server
        #: (whose seed and zoo the gateway cannot know).
        self.persist_config: Optional[Dict[str, Any]] = (
            None
            if server_provided
            else {
                "placement": placement,
                "n_gpus": int(n_gpus),
                "scaling_efficiency": float(scaling_efficiency),
                "preemption_overhead": float(preemption_overhead),
                "seed": int(seed),
                "min_examples": int(min_examples),
                "default_quota": asdict(self.default_quota),
                "zoo_names": None if zoo is None else list(zoo.names()),
            }
        )
        self.server.on_persist(self._on_server_persist_event)
        self.server.on_promotion(self._on_promotion)
        if self.server._runtime_oracle is not None:
            # Wrapping a server whose scheduler already started: hook
            # completions now, or job results would never be absorbed.
            self._install_absorb_hook()
        self._handlers = {
            RegisterAppRequest: self._register_app,
            FeedRequest: self._feed,
            RefineRequest: self._refine,
            SetExampleEnabledRequest: self._set_example_enabled,
            InferRequest: self._infer,
            SubmitTrainingRequest: self._submit_training,
            CloseAppRequest: self._close_app,
            JobStatusRequest: self._job_status,
            ListJobsRequest: self._list_jobs,
            AppStatusRequest: self._app_status,
            ListAppsRequest: self._list_apps,
            EventsRequest: self._events,
            ServerInfoRequest: self._server_info,
        }

    # ------------------------------------------------------------------
    # Durable control plane (write-ahead journal wiring)
    # ------------------------------------------------------------------
    def attach_store(self, store: Any) -> None:
        """Attach a :class:`~repro.persist.StateStore`.

        From this point every mutating operation is journaled before
        it is acked; with a store attached, mutations must flow
        through the gateway (direct feeds on the backing server are
        still captured via the server's persist hook, but direct
        ``server.run()`` / registration calls are not replayable).
        """
        with self._lock:
            if self._store is not None:
                raise ValueError("a state store is already attached")
            self._store = store
            bind = getattr(store, "bind_metrics", None)
            if bind is not None:
                bind(self.metrics)

    @property
    def store(self) -> Any:
        return self._store

    @contextmanager
    def _persisted_op(self):
        """Marks a journaled operation: side-effects buffer until the
        primary record is appended (see ``_pending_effects``)."""
        self._op_depth += 1
        try:
            yield
        finally:
            self._op_depth -= 1

    def _push_effect(self, rtype: str, payload: Dict[str, Any]) -> None:
        if self._store is None and not self._replaying:
            return
        self._pending_effects.append((rtype, jsonify(payload)))

    def _append_record(self, rtype: str, payload: Dict[str, Any]) -> None:
        self._store.append(rtype, payload)

    def _op_boundary(self) -> None:
        """Drain buffered effects; maybe checkpoint.  Ends every op."""
        if self._replaying:
            return  # the recovery replayer consumes the buffer itself
        if self._store is None:
            self._pending_effects.clear()
            return
        for rtype, payload in self._pending_effects:
            self._append_record(rtype, payload)
        self._pending_effects.clear()
        if self._store.due_for_snapshot():
            from repro.persist.digest import state_digest

            self._store.snapshot(state_digest(self))

    @staticmethod
    def _stamp_request_id(payload: Dict[str, Any]) -> Dict[str, Any]:
        """Attach the ambient request id to a PRIMARY record payload.

        Only primary records may carry it: effect records
        (``EFFECT_TYPES``) are byte-compared against their replayed
        twins by recovery's ``_consume_effect``, and the replayed run
        has no request context — an extra key there would fail
        verification.  Primary replay reads named keys, so the extra
        key is inert on old and new journals alike.
        """
        request_id = current_request_id()
        if request_id is not None and "request_id" not in payload:
            payload = dict(payload)
            payload["request_id"] = request_id
        return payload

    def _persist(self, rtype: str, payload: Dict[str, Any]) -> None:
        """Journal one primary record, then its buffered effects."""
        if self._replaying or self._store is None:
            return
        self._append_record(rtype, self._stamp_request_id(jsonify(payload)))
        self._op_boundary()

    def _commit(self) -> None:
        """Durability barrier before an ack (group commit).

        Called outside the gateway lock once an operation's records
        are appended: under ``sync="group"`` the first caller in
        becomes the convoy leader and fsyncs once for every record
        flushed so far, and callers that flush covered ride it for
        free.  A no-op for the per-record ``fsync`` and ``buffered``
        modes, and when no store is attached.
        """
        store = self._store
        if store is not None and not self._replaying:
            store.commit()

    def _on_server_persist_event(self, kind: str, info: Dict[str, Any]) -> None:
        """Platform-server hook: feeds/admissions/retirements."""
        if self._store is None and not self._replaying:
            return
        if kind == "feed":
            if self._replaying:
                return  # replay verifies example ids via the response
            owner = self._feed_ctx or next(
                (
                    t.name
                    for t in self._tenant_names.values()
                    if info["app"] in t.apps
                ),
                None,
            )
            self._append_record(
                "examples_fed",
                self._stamp_request_id(
                    jsonify(
                        {
                            "app": info["app"],
                            "tenant": owner,
                            "via": "gateway" if self._feed_ctx else "server",
                            "inputs": info["inputs"],
                            "outputs": info["outputs"],
                            "example_ids": info["example_ids"],
                        }
                    )
                ),
            )
            return
        rtype = "app_admitted" if kind == "admit" else "app_retired"
        payload = {"app": info["app"], "user": info["user"]}
        if kind == "retire":
            payload["cancelled"] = info["cancelled"]
        if self._replaying or self._op_depth > 0:
            self._push_effect(rtype, payload)
        else:
            # Direct server-level admit/retire with a store attached:
            # journal it top-level so replay can re-apply it.
            self._append_record(rtype, jsonify(payload))
            self._op_boundary()

    def _on_absorbed(self, job: Job) -> None:
        """Oracle absorb hook: one completion fed to the scheduler."""
        if self._store is None and not self._replaying:
            return
        record = self._jobs_by_runtime_id.get(job.job_id)
        if record is None:  # pragma: no cover - non-gateway job
            return
        self._push_effect(
            "job_completed",
            {
                "handle": record.handle_id,
                "reward": job.reward,
                "at": self.server.clock.now,
            },
        )

    # ------------------------------------------------------------------
    # Tenant management (operator-side, not part of the request API)
    # ------------------------------------------------------------------
    def create_tenant(
        self,
        name: str,
        quota: Optional[TenantQuota] = None,
        *,
        apps: Optional[List[str]] = None,
        token: Optional[str] = None,
    ) -> str:
        """Register a tenant; returns its auth token.

        ``apps`` adopts apps already registered on the backing server
        (the pre-started-server path), making them this tenant's.
        ``token`` pins the auth token instead of generating one — used
        by crash recovery to re-issue the journaled token, since token
        generation is the one genuinely nondeterministic step.
        """
        with self._lock:
            if name in self._tenant_names:
                raise ValueError(f"tenant {name!r} already exists")
            if apps and self._store is not None:
                raise ValueError(
                    "create_tenant(apps=...) adopts server-side state "
                    "the journal never saw and cannot replay; with a "
                    "state store attached, register apps through the "
                    "gateway instead"
                )
            token = token or f"tok-{secrets.token_hex(12)}"
            tenant = Tenant(name, token, quota or self.default_quota)
            for app_name in apps or ():
                owner = next(
                    (
                        t.name
                        for t in self._tenants.values()
                        if app_name in t.apps
                    ),
                    None,
                )
                if owner is not None:
                    raise ValueError(
                        f"app {app_name!r} already belongs to tenant "
                        f"{owner!r}"
                    )
                app = self.server.get_app(app_name)  # NOT_FOUND if absent
                tenant.apps.append(app_name)
                tenant.store_bytes += app.store.nbytes
            tenant.republish()
            self._tenants[token] = tenant
            self._tenant_names[name] = tenant
            self._persist(
                "tenant_created",
                {"name": name, "token": token, "quota": asdict(tenant.quota)},
            )
        self._commit()
        return token

    def tenant_names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenant_names)

    def tenant_token(self, name: str) -> str:
        """The current auth token for a tenant (operator-side)."""
        with self._lock:
            return self._require_tenant(name).token

    def _require_tenant(self, name: str) -> Tenant:
        tenant = self._tenant_names.get(name)
        if tenant is None:
            raise ValueError(
                f"no tenant named {name!r}; known tenants: "
                f"{sorted(self._tenant_names)}"
            )
        return tenant

    def rotate_token(self, name: str, *, token: Optional[str] = None) -> str:
        """Issue a fresh auth token for a tenant; the old one dies now.

        ``token`` pins the replacement (crash-recovery replay only).
        """
        with self._lock:
            tenant = self._require_tenant(name)
            new_token = token or f"tok-{secrets.token_hex(12)}"
            del self._tenants[tenant.token]
            tenant.token = new_token
            self._tenants[new_token] = tenant
            self._persist(
                "token_rotated", {"name": name, "token": new_token}
            )
        self._commit()
        return new_token

    def set_quota(self, name: str, quota: TenantQuota) -> None:
        """Replace a tenant's quota (takes effect on the next request)."""
        if not isinstance(quota, TenantQuota):
            raise TypeError(f"expected a TenantQuota, got {type(quota)}")
        with self._lock:
            tenant = self._require_tenant(name)
            tenant.quota = quota
            self._persist(
                "quota_changed", {"name": name, "quota": asdict(quota)}
            )
        self._commit()

    def retire_tenant(self, name: str) -> List[str]:
        """Retire a tenant: close its open apps, cancel queued jobs.

        The token keeps answering reads — in particular, a job poll
        that races the retirement gets a terminal ``cancelled`` status,
        never NOT_FOUND — but every further mutation fails with
        FAILED_PRECONDITION.  Returns the cancelled job handle ids.
        """
        with self._lock:
            tenant = self._require_tenant(name)
            if tenant.retired:
                raise ValueError(f"tenant {name!r} is already retired")
            cancelled: List[str] = []
            with self._persisted_op():
                for app_name in list(tenant.apps):
                    app = self.server.get_app(app_name)
                    if app.closed:
                        continue
                    for jid in self.server.retire_app(app_name):
                        record = self._jobs_by_runtime_id.get(jid)
                        if record is not None:
                            record.cancelled = True
                            record.wake()  # release long-polls
                            cancelled.append(record.handle_id)
            tenant.retired = True
            tenant.republish()
            cancelled.sort()
            if cancelled:
                self._push_effect("job_cancelled", {"handles": cancelled})
            self._persist("tenant_retired", {"name": name})
        self._commit()
        return cancelled

    # ------------------------------------------------------------------
    # The single entry point
    # ------------------------------------------------------------------
    def handle(
        self, request: Request, *, may_block: bool = True
    ) -> Union[Response, Callable[[], Response]]:
        """Validate, authenticate, dispatch; all failures are ApiError.

        ``may_block=False`` is how a caller that must not park (the
        HTTP frontend's event loop) offers an ``InferRequest``: the
        request is validated, admitted and probed against the
        prediction cache on the calling thread, and answered there
        when every row hits — or when its misses can be flushed
        without waiting: the gateway lock free, the app idle, and the
        model's last flush measured under ``INLINE_FLUSH_SECONDS``.
        Otherwise the return value is a zero-argument callable holding
        the blocking remainder — the convoy and the predict — for a
        worker thread to run; it returns the response (or raises the
        ``ApiError``) and the request is accounted once, where it
        finishes.  Other request types ignore the flag:
        :meth:`is_read` already tells a frontend whether they can
        block.
        """
        if not isinstance(request, Request):
            raise ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                f"expected a service Request, got {type(request).__name__}",
            )
        if self._recovering:
            raise ApiError(
                ApiErrorCode.UNAVAILABLE_RECOVERING,
                "the gateway is replaying its journal after a restart; "
                "retry shortly — handles survive recovery",
            )
        if request.api_version != API_VERSION:
            raise ApiError(
                ApiErrorCode.UNSUPPORTED_VERSION,
                f"this server speaks api_version {API_VERSION!r}, the "
                f"request declares {request.api_version!r}",
                supported=API_VERSION,
            )
        handler = self._handlers.get(type(request))
        if handler is None:
            raise ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                f"no handler for request type {type(request).__name__}",
            )
        if not may_block and isinstance(request, InferRequest):
            handler = self._infer_nowait
        # Token -> tenant is a single dict read (tenants are never
        # deleted), safe without the lock; the request then runs
        # lock-free when it is read-only (handlers consume immutable
        # TenantView / GIL-atomic snapshots), or under the gateway
        # lock when it can mutate shared state.  A live job poll
        # upgrades to the global lock internally.
        started = time.perf_counter()
        rtype = _REQUEST_TYPE_NAMES.get(
            type(request), type(request).__name__
        )
        try:
            tenant = self._authenticate(request.auth_token)
        except ApiError as exc:
            self._m_requests.labels(
                "(unauthenticated)", rtype, exc.code.value
            ).inc()
            raise
        context = current_request()
        if context is not None and not context.tenant:
            # Traces and access-log lines read the tenant on the way
            # out; the auth token is the first place it is known.
            context.tenant = tenant.name
        return self._run(handler, tenant, request, rtype, started)

    def _run(
        self,
        handler,
        tenant: Tenant,
        request: Request,
        rtype: str,
        started: float,
    ) -> Union[Response, Callable[[], Response]]:
        """Run ``handler`` and account the request: outcome counter,
        latency, SLO — on the thread, and at the time, it finishes."""
        lock_free = isinstance(request, _LOCK_FREE_REQUESTS)
        # Ack barrier: only paths that may have journaled pay it — a
        # pure snapshot read must never become the group-commit convoy
        # leader (it could be running inline on an event loop, and an
        # fsync there would stall every connection).  Job polls journal
        # job_completed records when they advance a live job, so they
        # commit unless classified as pure reads (terminal handle).
        needs_commit = not lock_free or (
            isinstance(request, JobStatusRequest)
            and not self.is_read(request)
        )
        outcome = "ok"
        slo_error = False
        deferred = False
        try:
            with span("gateway.handle", type=rtype):
                if lock_free:
                    result = self._dispatch(handler, tenant, request)
                else:
                    with self._lock:
                        result = self._dispatch(handler, tenant, request)
            # _infer_nowait hands back the blocking remainder: the
            # request is not over, and is accounted when that runs.
            deferred = callable(result)
            return result
        except ApiError as exc:
            outcome = exc.code.value
            slo_error = exc.http_status >= 500
            raise
        except BaseException:
            # Anything else escaping _dispatch surfaces as a 500
            # INTERNAL at the frontend — count it that way too.
            outcome = "internal"
            slo_error = True
            raise
        finally:
            if needs_commit:
                # Outside the lock: under ``sync="group"`` concurrent
                # mutations convoy behind one fsync here (a no-op for
                # the other journal modes).
                self._commit()
            if not deferred:
                duration = time.perf_counter() - started
                self._m_requests.labels(tenant.name, rtype, outcome).inc()
                self._m_request_seconds.labels(rtype).observe(duration)
                # SLO scoring counts server faults as budget misses;
                # client errors (4xx) are the tenant's own doing.
                # Infer additionally scores into its own route class
                # so `repro slo status` can show serving-path
                # attainment separately.
                self.slo.record(
                    tenant.name,
                    duration,
                    error=slo_error,
                    route_class=(
                        "infer"
                        if isinstance(request, InferRequest)
                        else None
                    ),
                )

    def _dispatch(self, handler, tenant: Tenant, request: Request) -> Response:
        try:
            return handler(tenant, request)
        except ApiError:
            raise
        except Exception as exc:  # noqa: BLE001 - boundary catch-all
            # Nothing below the gateway may leak a raw traceback
            # across the service boundary.
            raise ApiError(
                ApiErrorCode.INTERNAL,
                f"unexpected {type(exc).__name__} while handling "
                f"{type(request).__name__}: {exc}",
                error_type=type(exc).__name__,
            ) from exc
        finally:
            if self._pending_effects and not self._replaying:
                # A handler failed *after* side-effects (say, an
                # admission) already mutated shared state.  Those
                # mutations happened, so their records must land:
                # journal them top-level — replay re-applies
                # top-level effects — instead of letting them
                # desync the next operation's record group.
                with self._lock:
                    self._op_boundary()

    # ------------------------------------------------------------------
    # Frontend dispatch surface (read/write split)
    # ------------------------------------------------------------------
    def is_read(self, request: Request) -> bool:
        """Would ``handle(request)`` run on the lock-free read path?

        Frontends route on this: reads are served inline (an event
        loop never parks on the scheduler lock), everything else goes
        to a worker thread.  A
        ``JobStatusRequest`` counts as a read exactly when the handle
        is already terminal (or unknown) — polling a live handle
        advances the shared cluster and a ``wait`` on one may park for
        seconds, but a ``wait`` on a finished or cancelled job has
        nothing to wait for.  (An ``InferRequest`` is not a read — a
        miss parks behind the model — but the part of it that cannot
        block is offered separately: ``handle(request,
        may_block=False)``.)
        """
        if not isinstance(request, _READ_REQUESTS):
            return False
        if isinstance(request, JobStatusRequest):
            if (
                self._store is not None
                and getattr(self._store, "sync", "") == "group"
            ):
                # Under group commit a terminal poll may be the first
                # to report a completion whose job_completed records
                # are not yet covered by a flush; it must run the ack
                # barrier, so it cannot be a pure read.
                return False
            record = self._jobs.get(request.job_id)
            return (
                record is None
                or record.cancelled
                or record.job.state not in LIVE_STATES
            )
        return True

    def add_wait_abort(self, event: threading.Event) -> None:
        """Register a frontend shutdown event that interrupts long-polls.

        While ``event`` is set, every in-flight ``wait`` returns its
        current (possibly still-running) status promptly, so a server
        shutdown never hangs behind parked waiters.  Waiters capture
        the registered events when they start parking, so
        :meth:`remove_wait_abort` (after shutdown) cannot strand one.
        """
        self._wait_aborts.append(event)

    def remove_wait_abort(self, event: threading.Event) -> None:
        """Forget a frontend's shutdown event (idempotent)."""
        try:
            self._wait_aborts.remove(event)
        except ValueError:
            pass

    def _authenticate(self, token: str) -> Tenant:
        tenant = self._tenants.get(token)
        if tenant is None:
            raise ApiError(
                ApiErrorCode.UNAUTHORIZED,
                "unknown auth token; ask the operator for a tenant "
                "token (created via ServiceGateway.create_tenant)",
            )
        return tenant

    def authenticate_token(self, token: str) -> str:
        """Resolve an auth token to its tenant name (for transports
        that authenticate outside the typed request path, like the SSE
        event stream).  Raises ``UNAUTHORIZED`` like any request."""
        return self._authenticate(token).name

    def _require_active(self, tenant: Tenant) -> None:
        if tenant.retired:
            raise ApiError(
                ApiErrorCode.FAILED_PRECONDITION,
                f"tenant {tenant.name!r} is retired; its apps keep "
                "serving infer and its job handles stay pollable, but "
                "no further mutations are accepted",
            )

    # ------------------------------------------------------------------
    # App lifecycle
    # ------------------------------------------------------------------
    def _register_app(
        self, tenant: Tenant, request: RegisterAppRequest
    ) -> RegisterAppResponse:
        self._require_active(tenant)
        name = request.app
        if not name or not isinstance(name, str):
            raise ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                "app name must be a non-empty string",
            )
        if len(tenant.apps) >= tenant.quota.max_apps:
            raise ApiError(
                ApiErrorCode.QUOTA_EXCEEDED,
                f"tenant {tenant.name!r} already has "
                f"{len(tenant.apps)} apps (quota: "
                f"{tenant.quota.max_apps}); delete is not supported, "
                "so raise the quota or reuse an existing app",
                limit=tenant.quota.max_apps,
            )
        if name in self.server.storage:
            raise ApiError(
                ApiErrorCode.CONFLICT,
                f"an app named {name!r} already exists; app names are "
                "global across tenants — pick another name",
                app=name,
            )
        try:
            app = self.server.register_app(request.program, name)
        except NotImplementedError as exc:
            raise ApiError(
                ApiErrorCode.UNSUPPORTED, str(exc), app=name
            ) from None
        except ValueError as exc:
            raise ApiError(
                ApiErrorCode.INVALID_PROGRAM,
                f"cannot parse DSL program for app {name!r}: {exc}",
                app=name,
            ) from None
        tenant.apps.append(name)
        tenant.republish()
        self._persist(
            "app_registered",
            {"tenant": tenant.name, "app": name, "program": request.program},
        )
        return RegisterAppResponse(
            app=name,
            workload_kind=app.template.kind.value,
            n_candidates=len(app.live_candidates),
        )

    def _get_app(self, tenant: Tenant, name: str) -> EaseMLApp:
        # Membership is checked against the immutable view so the
        # lock-free read path never observes a half-appended app list;
        # writers republish the view (under the lock) before acking.
        apps = tenant.view.apps
        if name not in apps:
            raise ApiError(
                ApiErrorCode.NOT_FOUND,
                f"tenant {tenant.name!r} has no app named {name!r}; "
                f"its apps are {sorted(apps)}",
                app=name,
            )
        return self.server.get_app(name)

    def _feed(self, tenant: Tenant, request: FeedRequest) -> FeedResponse:
        self._require_active(tenant)
        app = self._get_app(tenant, request.app)
        if len(request.inputs) != len(request.outputs):
            raise ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                f"got {len(request.inputs)} inputs but "
                f"{len(request.outputs)} outputs",
            )
        if not request.inputs:
            raise ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                "feed requires at least one example pair",
            )
        # Quota check before any state changes: stored examples are
        # float64 rows of declared input+output size.
        incoming = (
            len(request.inputs)
            * (app.program.input.flat_size + app.program.output.flat_size)
            * 8
        )
        used = tenant.store_bytes
        if used + incoming > tenant.quota.max_store_bytes:
            raise ApiError(
                ApiErrorCode.QUOTA_EXCEEDED,
                f"feeding {incoming} bytes would exceed tenant "
                f"{tenant.name!r}'s example-store quota "
                f"({used} of {tenant.quota.max_store_bytes} bytes used); "
                "disable and re-feed smaller batches or raise the quota",
                used=used,
                incoming=incoming,
                limit=tenant.quota.max_store_bytes,
            )
        try:
            outputs = [
                int(y) if np.isscalar(y) or isinstance(y, (int, float))
                else np.asarray(y, dtype=float)
                for y in request.outputs
            ]
            # The server's feed hook journals the examples_fed record
            # mid-call; the context names the owning tenant for it.
            self._feed_ctx = tenant.name
            try:
                ids = app.feed(request.inputs, outputs)
            finally:
                self._feed_ctx = None
        except (ValueError, TypeError) as exc:
            raise ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                f"cannot feed app {request.app!r}: {exc}",
                app=request.app,
            ) from None
        tenant.store_bytes += incoming
        self._op_boundary()
        return FeedResponse(
            app=request.app,
            example_ids=tuple(ids),
            n_total=len(app.store),
            n_enabled=app.store.n_enabled,
        )

    def _refine(
        self, tenant: Tenant, request: RefineRequest
    ) -> RefineResponse:
        app = self._get_app(tenant, request.app)
        # Read the store view directly rather than via app.refine():
        # the platform helper also appends a REFINE event to the
        # shared log, and the lock-free read path must be side-effect
        # free (an unlocked append racing a clock advance would trip
        # the log's monotonicity check).  The store publishes a row
        # only once it is written, so reading it without a lock is a
        # consistent snapshot.
        return RefineResponse(
            app=request.app, examples=tuple(app.store.flags())
        )

    def _set_example_enabled(
        self, tenant: Tenant, request: SetExampleEnabledRequest
    ) -> SetExampleEnabledResponse:
        self._require_active(tenant)
        app = self._get_app(tenant, request.app)
        app.set_example_enabled(int(request.example_id), request.enabled)
        self._persist(
            "example_toggled",
            {
                "tenant": tenant.name,
                "app": request.app,
                "example_id": int(request.example_id),
                "enabled": bool(request.enabled),
            },
        )
        return SetExampleEnabledResponse(
            app=request.app,
            example_id=int(request.example_id),
            enabled=bool(request.enabled),
        )

    def _infer(self, tenant: Tenant, request: InferRequest) -> InferResponse:
        # Runs on the lock-free path (like job polls): validation,
        # admission, the cache, and parking behind a running flush all
        # happen outside the gateway lock; only the flush itself — one
        # vectorized predict + one INFER event — takes it, inside
        # _predict_batch.  Running infer *under* the outer lock would
        # deadlock the convoy (a parked follower would hold the lock
        # its leader needs).
        app, X, probe = self._infer_probe(tenant, request)
        return self._infer_answer(tenant, request, app, X, probe)

    def _infer_nowait(
        self, tenant: Tenant, request: InferRequest
    ) -> Union[InferResponse, Callable[[], InferResponse]]:
        """``_infer`` for a thread that must not park (see
        :meth:`handle`): answer when the probe found every row in the
        cache, or when the misses can be flushed here without waiting
        on anything; else hand back the rest — with the probe's
        products, so nothing is validated, charged or looked up
        twice."""
        # One clock per request: the latency the worker half records
        # counts the probe and the hop in between.
        started = time.perf_counter()
        app, X, probe = self._infer_probe(tenant, request)
        if probe is not None and not probe.misses:
            return self._infer_answer(tenant, request, app, X, probe)
        # Gateway lock, then the convoy, neither waited for: a worker
        # that leads a flush holds the convoy and then waits for this
        # lock, so whichever of the two this thread cannot have at once
        # sends the request to a worker instead.
        if self._lock.acquire(blocking=False):
            try:
                response = self._infer_answer(
                    tenant, request, app, X, probe, may_block=False
                )
            finally:
                self._lock.release()
            if response is not None:
                return response
        return functools.partial(
            self._run,
            functools.partial(
                self._infer_answer, app=app, X=X, probe=probe
            ),
            tenant,
            request,
            _REQUEST_TYPE_NAMES[InferRequest],
            started,
        )

    def _infer_probe(self, tenant: Tenant, request: InferRequest):
        """The half of an infer that cannot block: validate the rows,
        charge the token bucket, split the batch against the cache.
        Returns ``(app, X, probe)`` for :meth:`_infer_answer`."""
        app = self._get_app(tenant, request.app)
        batch = bool(request.rows)
        if batch and request.x:
            raise ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                "provide either 'x' (one row, the v1 shape) or 'rows' "
                "(a batch), not both",
            )
        rows = request.rows if batch else (request.x,)
        X = self._rows_to_matrix(rows, app, request.app)
        self.infer_plane.admit(
            tenant.name,
            (
                tenant.quota.infer_rows_per_second,
                tenant.quota.infer_burst_rows,
            ),
            len(X),
        )
        probe = self.infer_plane.probe(
            request.app,
            X,
            lambda: (app.best_candidate, self._model_version(app)),
        )
        return app, X, probe

    def _infer_answer(
        self,
        tenant: Tenant,
        request: InferRequest,
        app: EaseMLApp,
        X: np.ndarray,
        probe,
        may_block: bool = True,
    ) -> Optional[InferResponse]:
        """The half that may park: whatever the probe left unanswered
        goes through the convoy to one vectorized predict.  With
        ``may_block=False``, None when that flush could wait (see
        :meth:`InferPlane.predict`)."""
        answer = self.infer_plane.predict(
            request.app,
            X,
            lambda X_flush: self._predict_batch(app, X_flush),
            probe=probe,
            may_block=may_block,
        )
        if answer is None:
            return None
        prediction_rows, meta, _cached = answer
        predictions = tuple(prediction_rows.tolist())
        return InferResponse(
            app=request.app,
            prediction=None if request.rows else predictions[0],
            predictions=predictions,
            model=meta.get("model"),
            model_version=meta.get("model_version"),
        )

    def _rows_to_matrix(
        self, rows, app: EaseMLApp, app_name: str
    ) -> np.ndarray:
        """Validate a batch of input rows into one ``(B, n)`` matrix.

        The fast path vectorizes the whole conversion; the fallback
        reproduces the v1 loop's per-row diagnostics for ragged or
        non-numeric input.  Non-finite rows are rejected here — NaN
        would poison both the estimator and the cache key.
        """
        flat_size = app.program.input.flat_size
        X: Optional[np.ndarray] = None
        try:
            X = np.asarray(rows, dtype=float)
        except (ValueError, TypeError):
            X = None  # ragged or non-numeric: diagnose per row below
        if (
            X is not None
            and len(rows) > 0
            and X.size == len(rows) * flat_size
        ):
            X = X.reshape(len(rows), flat_size)
        else:
            arrays = []
            for i, row in enumerate(rows):
                try:
                    x = np.asarray(row, dtype=float)
                except (ValueError, TypeError) as exc:
                    raise ApiError(
                        ApiErrorCode.INVALID_ARGUMENT,
                        f"infer input row {i} is not numeric: {exc}",
                        row=i,
                    ) from None
                if x.size != flat_size:
                    raise ApiError(
                        ApiErrorCode.INVALID_ARGUMENT,
                        f"infer input row {i} has {x.size} scalars, app "
                        f"{app_name!r} declares {flat_size}",
                        expected=flat_size,
                        got=int(x.size),
                        row=i,
                    )
                arrays.append(x.ravel())
            X = (
                np.stack(arrays)
                if arrays
                else np.empty((0, flat_size), dtype=float)
            )
        if X.size:
            finite = np.isfinite(X).all(axis=1)
            if not finite.all():
                i = int(np.flatnonzero(~finite)[0])
                raise ApiError(
                    ApiErrorCode.INVALID_ARGUMENT,
                    f"infer input row {i} contains non-finite values "
                    "(NaN or inf); the model and the prediction cache "
                    "require finite features",
                    row=i,
                )
        return X

    def _predict_batch(
        self, app: EaseMLApp, X: np.ndarray
    ) -> Tuple[np.ndarray, Dict[str, Any]]:
        """One coalesced flush: a single vectorized predict + ONE
        INFER event, under the gateway lock.

        The lock makes the (model, version) pair coherent for the
        whole flush and serialises the event-log append (the log
        refuses out-of-order timestamps).
        """
        with self._lock:
            try:
                predictions = app.infer_rows(X)
            except RuntimeError as exc:
                raise ApiError(
                    ApiErrorCode.FAILED_PRECONDITION,
                    f"{exc}; submit training and poll the job handle "
                    "first",
                    app=app.name,
                ) from None
            return predictions, {
                "model": app.best_candidate,
                "model_version": self._model_version(app),
            }

    def _model_version(self, app) -> Optional[str]:
        """The job handle (or run number) that trained the served model."""
        if app.best_version is None:
            return None
        index, handle = self._best_handles.get(app.name, (None, None))
        if index != app.best_version - 1:
            return f"run-{app.best_version:05d}"
        return handle

    def _close_app(
        self, tenant: Tenant, request: CloseAppRequest
    ) -> CloseAppResponse:
        self._require_active(tenant)
        app = self._get_app(tenant, request.app)
        if app.closed:
            raise ApiError(
                ApiErrorCode.CONFLICT,
                f"app {request.app!r} is already closed",
                app=request.app,
            )
        was_admitted = self.server.is_admitted(request.app)
        try:
            with self._persisted_op():
                cancelled_ids = self.server.retire_app(request.app)
        except RuntimeError as exc:  # pragma: no cover - defensive
            raise ApiError(
                ApiErrorCode.FAILED_PRECONDITION,
                f"cannot close app {request.app!r}: {exc}",
                app=request.app,
            ) from None
        records = [
            record
            for jid in cancelled_ids
            for record in [self._jobs_by_runtime_id.get(jid)]
            if record is not None
        ]
        for record in records:
            record.cancelled = True
            record.wake()  # release long-polls on these handles
        cancelled = tuple(sorted(r.handle_id for r in records))
        if cancelled:
            self._push_effect("job_cancelled", {"handles": list(cancelled)})
        self._persist(
            "app_closed", {"tenant": tenant.name, "app": request.app}
        )
        return CloseAppResponse(
            app=request.app,
            cancelled_jobs=cancelled,
            was_admitted=was_admitted,
        )

    # ------------------------------------------------------------------
    # Async training
    # ------------------------------------------------------------------
    def _install_absorb_hook(self) -> None:
        if not self._absorb_hook_installed:
            runtime = self.server._runtime_oracle.runtime
            runtime.on_completion(self._on_job_completed)
            self.server._runtime_oracle.on_absorb(self._on_absorbed)
            # The event kernel under the oracle reports its queue
            # depth and event counts into this gateway's registry.
            bind = getattr(runtime, "bind_metrics", None)
            if bind is not None:
                bind(self.metrics)
            self._absorb_hook_installed = True

    def _require_enough_examples(self, app) -> None:
        if app.store.n_enabled < self.server.min_examples:
            raise ApiError(
                ApiErrorCode.FAILED_PRECONDITION,
                f"cannot train app {app.name!r}: it has "
                f"{app.store.n_enabled} enabled examples and at least "
                f"{self.server.min_examples} are required — feed more "
                "first",
                app=app.name,
                min_examples=self.server.min_examples,
            )

    def _ensure_app_scheduled(self, tenant: Tenant, app) -> None:
        """Start the cluster run and/or admit this app to it.

        Membership is dynamic: the first submit starts scheduling over
        every app that is already fed past the threshold, and any app
        fed later — registered before or after that first submit —
        joins the live run as a ``USER_ARRIVED`` tenant at its own
        first submit.  No tenant is ever blocked on another tenant's
        unfed app.
        """
        if app.closed:
            raise ApiError(
                ApiErrorCode.FAILED_PRECONDITION,
                f"app {app.name!r} is closed; closing is permanent — "
                "register a new app to keep training",
                app=app.name,
            )
        self._require_enough_examples(app)
        if self.server.scheduler is None:
            try:
                self.server._prepare(only_ready=True)
            except RuntimeError as exc:
                raise ApiError(
                    ApiErrorCode.FAILED_PRECONDITION,
                    f"cannot start training: {exc}",
                ) from None
            # Picks made by MultiTenantScheduler.next_dispatch (step()
            # and run_concurrent) report into this registry too.
            bind = getattr(self.server.scheduler, "bind_metrics", None)
            if bind is not None:
                bind(self.metrics)
        self._install_absorb_hook()
        if not self.server.is_admitted(app.name):
            try:
                self.server.admit_app(app.name)
            except RuntimeError as exc:
                raise ApiError(
                    ApiErrorCode.FAILED_PRECONDITION,
                    f"cannot admit app {app.name!r}: {exc}",
                    app=app.name,
                ) from None

    def _submit_training(
        self, tenant: Tenant, request: SubmitTrainingRequest
    ) -> SubmitTrainingResponse:
        self._require_active(tenant)
        app = self._get_app(tenant, request.app)
        steps = int(request.steps)
        if steps < 1:
            raise ApiError(
                ApiErrorCode.INVALID_ARGUMENT,
                f"steps must be >= 1, got {steps}",
            )
        tenant.live_jobs = [
            record
            for record in tenant.live_jobs
            if record.job.state in LIVE_STATES
        ]
        pending = len(tenant.live_jobs)
        if pending + steps > tenant.quota.max_pending_jobs:
            raise ApiError(
                ApiErrorCode.QUOTA_EXCEEDED,
                f"tenant {tenant.name!r} has {pending} jobs in flight; "
                f"submitting {steps} more would exceed the quota of "
                f"{tenant.quota.max_pending_jobs} — poll existing job "
                "handles to completion first",
                pending=pending,
                requested=steps,
                limit=tenant.quota.max_pending_jobs,
            )
        with self._persisted_op():
            self._ensure_app_scheduled(tenant, app)
            scheduler = self.server.scheduler
            oracle = self.server._runtime_oracle
            user = self.server.apps.index(app)
            tenant_state = scheduler.tenants[user]
            handles = []
            for _ in range(steps):
                pick_started = time.perf_counter()
                selection = tenant_state.picker.select()
                pick_ended = time.perf_counter()
                self._m_pick_seconds.observe(pick_ended - pick_started)
                # Named on both spans so /v1/traces answers "which model
                # made this cycle slow".
                candidate = app.live_candidates[selection.arm].name
                add_span(
                    "scheduler.pick", pick_started, pick_ended,
                    arm=int(selection.arm), candidate=candidate,
                )
                self._m_picks.labels(tenant.name).inc()
                with span("trainer.train", candidate=candidate):
                    reward, gpu_time = oracle.trainer.train(
                        user, selection.arm
                    )
                job = oracle.runtime.submit(
                    user, selection.arm, gpu_time, reward
                )
                record = _JobRecord(
                    handle_id=f"job-{len(self._jobs):05d}",
                    tenant=tenant.name,
                    app=request.app,
                    candidate=candidate,
                    job=job,
                    tenant_state=tenant_state,
                    selection=selection,
                )
                self._jobs[record.handle_id] = record
                self._jobs_by_runtime_id[job.job_id] = record
                tenant.live_jobs.append(record)
                handles.append(self._handle_of(record))
        self._persist(
            "job_submitted",
            {
                "tenant": tenant.name,
                "app": request.app,
                "steps": steps,
                "handles": [h.job_id for h in handles],
            },
        )
        return SubmitTrainingResponse(handles=tuple(handles))

    def _on_job_completed(self, job: Job) -> None:
        """Absorb one runtime completion into the scheduler state.

        Runs after the server's own completion hook has applied the
        training outcome to app state, so the freshly-appended history
        row is this job's.
        """
        record = self._jobs_by_runtime_id.get(job.job_id)
        if record is None:  # pragma: no cover - defensive
            return
        app = self.server.get_app(record.app)
        record.history_index = len(app.history) - 1
        if app.best_version == record.history_index + 1:
            self._best_handles[record.app] = (
                record.history_index, record.handle_id
            )
        self.server._runtime_oracle.absorb(
            self.server.scheduler,
            record.tenant_state,
            record.selection,
            job,
        )
        # Absorbed: the pick's scheduler state is no longer needed.
        record.tenant_state = record.selection = None
        # Absorption done: the handle is terminal and fully consistent
        # (history row assigned), so long-poll waiters may wake now.
        record.wake()
        outcome = (
            app.history[record.history_index]
            if 0 <= record.history_index < len(app.history)
            else None
        )
        self.events_broker.publish(
            "job_completed",
            tenant=record.tenant,
            app=record.app,
            job_id=record.handle_id,
            candidate=record.candidate,
            accuracy=(
                float(outcome.accuracy) if outcome is not None else None
            ),
            improved=(
                bool(outcome.improved) if outcome is not None else None
            ),
        )

    def _on_promotion(self, app: EaseMLApp) -> None:
        """A training outcome became ``app``'s new best model: stale
        cached predictions are unreachable (version-stamped keys) —
        reclaim their memory now, and tell stream subscribers."""
        self.infer_plane.invalidate_app(app.name)
        tenant_name = None
        for tenant in self._tenant_names.values():
            if app.name in tenant.view.apps:
                tenant_name = tenant.name
                break
        self.events_broker.publish(
            "model_promoted",
            tenant=tenant_name,
            app=app.name,
            candidate=app.best_candidate,
            accuracy=float(app.best_accuracy),
            model_version=self._model_version(app),
        )

    def configure_infer_plane(self, config: InferPlaneConfig) -> None:
        """Swap in a freshly-configured inference data plane (the
        ``repro serve --infer-batch-window/--infer-cache`` hook).
        Existing queues and cached predictions are discarded."""
        self.infer_plane = InferPlane(
            config=config, metrics=self.metrics
        )

    @staticmethod
    def _record_state(record: _JobRecord) -> str:
        """The API-visible state: gateway cancellation wins."""
        return "cancelled" if record.cancelled else record.job.state.value

    def _handle_of(self, record: _JobRecord) -> JobHandle:
        return JobHandle(
            job_id=record.handle_id,
            app=record.app,
            candidate=record.candidate,
            state=self._record_state(record),
            submitted_at=float(record.job.submit_time),
            disposition=record.disposition,
        )

    def _get_job(self, tenant: Tenant, handle_id: str) -> _JobRecord:
        record = self._jobs.get(handle_id)
        if record is None or record.tenant != tenant.name:
            raise ApiError(
                ApiErrorCode.NOT_FOUND,
                f"tenant {tenant.name!r} has no job {handle_id!r}; "
                "list jobs to see valid handles",
                job_id=handle_id,
            )
        return record

    def _job_status(
        self, tenant: Tenant, request: JobStatusRequest
    ) -> JobStatusResponse:
        record = self._get_job(tenant, request.job_id)
        # NaN/negative waits collapse to 0 (NaN fails the > 0 test), so
        # a hostile wait can neither spin forever nor dodge the cap.
        wait = float(request.wait or 0.0)
        wait = min(wait, MAX_WAIT_SECONDS) if wait > 0 else 0.0
        response, advanced = self._poll_job(request, record)
        if wait <= 0 or response.done:
            return response
        # Server-side push: park until the handle leaves
        # PENDING/RUNNING, the wait expires, or the frontend shuts
        # down.  The waiter drives the cluster itself while progress
        # is possible (each advance completes one job — maybe another
        # tenant's) and otherwise parks on the handle's done event,
        # which completions and cancellations set.  A wait that
        # expires is NOT an error: the caller gets the current,
        # still-running status with a 200.
        deadline = time.monotonic() + wait
        aborts = tuple(self._wait_aborts)
        self._m_parks.inc()
        park_started = time.perf_counter()
        reason = "timeout"
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._m_wakes.labels("timeout").inc()
                    return response
                if any(e.is_set() for e in aborts):
                    reason = "abort"
                    self._m_wakes.labels("abort").inc()
                    return response
                if not advanced:
                    record.park(min(remaining, 0.05))
                response, advanced = self._poll_job(request, record)
                if response.done:
                    reason = "done"
                    self._m_wakes.labels("done").inc()
                    return response
        finally:
            add_span(
                "longpoll.wait", park_started, time.perf_counter(),
                reason=reason,
            )

    def _poll_job(
        self, request: JobStatusRequest, record: _JobRecord
    ) -> Tuple[JobStatusResponse, bool]:
        """One poll: advance the cluster by at most one completion.

        Returns ``(status, advanced)`` — ``advanced`` tells a long-poll
        loop whether this call made progress (so it knows when to park
        on the done event instead of spinning).
        """
        runtime = self.server._runtime_oracle.runtime
        advanced = False
        if record.job.state in LIVE_STATES and not record.cancelled:
            # Advancing the shared cluster mutates global state, so a
            # live-job poll upgrades from the lock-free read path to
            # the gateway lock.
            with self._lock:
                if record.job.state in LIVE_STATES and not record.cancelled:
                    # Each poll of a live job advances the simulated
                    # cluster by (at most) one completion event —
                    # possibly someone else's, which is exactly how
                    # out-of-order completions surface.
                    with self._persisted_op():
                        completed = runtime.run_until_next_completion()
                    # A poll is the one mutation with no primary
                    # record: the absorbed completions ARE the journal
                    # entries (replay re-advances the cluster once per
                    # leading job_completed record).
                    self._op_boundary()
                    advanced = bool(completed)
                    if not completed and not runtime.queue and (
                        record.job.state in LIVE_STATES
                        and not record.cancelled
                    ):
                        raise ApiError(
                            ApiErrorCode.INTERNAL,
                            f"runtime stalled before job "
                            f"{request.job_id} completed (policy "
                            f"{runtime.policy.name!r} never scheduled "
                            "it)",
                            job_id=request.job_id,
                        )
        job = record.job
        if job.state is JobState.FINISHED and record.history_index is None:
            # A concurrent global-lock holder finished this job but has
            # not yet run the outcome hooks.  Taking (and releasing)
            # the global lock waits them out, so a finished job never
            # reports a missing accuracy.
            with self._lock:
                pass
        outcome = None
        if job.state is JobState.FINISHED and record.history_index is not None:
            app = self.server.get_app(record.app)
            outcome = app.history[record.history_index]
        response = JobStatusResponse(
            job_id=record.handle_id,
            app=record.app,
            candidate=record.candidate,
            state=self._record_state(record),
            submitted_at=float(job.submit_time),
            started_at=job.start_time,
            finished_at=job.end_time,
            accuracy=None if outcome is None else float(outcome.accuracy),
            improved=None if outcome is None else bool(outcome.improved),
            preemptions=int(job.preemptions),
            disposition=record.disposition,
        )
        return response, advanced

    def _list_jobs(
        self, tenant: Tenant, request: ListJobsRequest
    ) -> ListJobsResponse:
        if request.app is not None:
            self._get_app(tenant, request.app)
        # list(dict.values()) is a single C-level snapshot, safe
        # against a concurrent global-lock writer inserting new jobs;
        # iterating the live view here could raise "dictionary changed
        # size during iteration" under the shard-lock discipline.
        handles = tuple(
            self._handle_of(record)
            for record in list(self._jobs.values())
            if record.tenant == tenant.name
            and (request.app is None or record.app == request.app)
        )
        return ListJobsResponse(jobs=handles)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _app_status(
        self, tenant: Tenant, request: AppStatusRequest
    ) -> AppStatusResponse:
        app = self._get_app(tenant, request.app)
        trained = app.best_candidate is not None
        return AppStatusResponse(
            app=request.app,
            workload_kind=app.template.kind.value,
            n_examples=len(app.store),
            n_enabled=app.store.n_enabled,
            n_candidates=len(app.live_candidates),
            training_runs=len(app.history),
            best_accuracy=float(app.best_accuracy) if trained else None,
            best_candidate=app.best_candidate,
        )

    def _list_apps(
        self, tenant: Tenant, request: ListAppsRequest
    ) -> ListAppsResponse:
        return ListAppsResponse(apps=tuple(sorted(tenant.view.apps)))

    def _events(
        self, tenant: Tenant, request: EventsRequest
    ) -> EventsResponse:
        if request.stream:
            raise ApiError(
                ApiErrorCode.UNSUPPORTED,
                "event streaming (stream=1) is a transport feature of "
                "the HTTP frontend; the in-process gateway only answers "
                "snapshot reads",
            )
        kinds = None
        if request.kinds is not None:
            valid = {k.value for k in EventKind}
            bad = [k for k in request.kinds if k not in valid]
            if bad:
                raise ApiError(
                    ApiErrorCode.INVALID_ARGUMENT,
                    f"unknown event kind(s) {bad}; valid kinds: "
                    f"{sorted(valid)}",
                )
            kinds = {EventKind(k) for k in request.kinds}
        # Tenant isolation: only events attributable to this tenant's
        # apps are visible — by app name (platform events) or by the
        # app's user index (runtime job-lifecycle events).
        apps = set(tenant.view.apps)
        users = {
            i for i, app in enumerate(self.server.apps) if app.name in apps
        }

        def visible(event) -> bool:
            payload = event.payload
            if "app" in payload:
                return payload["app"] in apps
            if "user" in payload:
                return payload["user"] in users
            return False

        # A served log is a ring: this scans the retained window.
        events = tuple(
            event_to_dict(event)
            for event in self.server.log
            if event.time >= float(request.since)
            and (kinds is None or event.kind in kinds)
            and visible(event)
        )
        return EventsResponse(events=events)

    def _server_info(
        self, tenant: Tenant, request: ServerInfoRequest
    ) -> ServerInfoResponse:
        return ServerInfoResponse(
            placement=self.server.runtime_placement,
            n_gpus=self.server.n_gpus,
            n_apps=len(self.server.apps),
            n_jobs=len(self._jobs),
            clock=float(self.server.clock.now),
            training_started=self.server.scheduler is not None,
        )
