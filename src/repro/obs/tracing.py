"""Span-level request tracing: where one request spent its time.

PR 6 propagated a ``request_id`` socket → gateway → WAL; this module
grows that id into a **trace**.  A trace is the set of timed spans one
request produced on its way through the service — frontend decode,
the wait for a worker thread, the gateway handler, scheduler picks,
journal append/fsync/commit, long-poll parking.

Design constraints, in order:

* **Zero overhead when dropped.**  Head sampling decides per request
  whether a trace exists at all; when it does not, every ``span(...)``
  call site gets back one shared :data:`_NULL_SPAN` singleton — no
  allocation, no clock read, no lock.
* **Zero wiring in deep layers.**  ``span()`` / ``add_span()`` read the
  ambient :class:`~repro.obs.context.RequestContext` (the same
  contextvar the request id rides), so the journal and scheduler emit
  spans without holding a tracer reference; recovery replay and
  follower apply have no ambient context and therefore no-op.
* **Tail sampling on completion.**  Completed traces land in a bounded
  ring buffer that always retains error traces and the slowest N per
  route, and keeps a probabilistic sample of the rest — the traces an
  operator actually wants are the ones that survive.

Clocks: span times are ``time.perf_counter()`` (monotonic, comparable
across threads within one process) expressed relative to the trace
start, so a waterfall renders directly.  ``trace_id`` **is** the
request id — grep an access-log line, fetch the trace.
"""

from __future__ import annotations

import contextvars
import heapq
import random
import threading
import time
from typing import Any, Dict, List, Optional

from repro.obs.context import RequestContext, current_request

__all__ = [
    "NULL_TRACER",
    "TraceState",
    "Tracer",
    "add_span",
    "span",
]

#: Routes the operator plane itself serves — tracing a metrics scrape
#: with the tracer would make every snapshot self-polluting.
_OPERATOR_ROUTES = frozenset(
    {"/metrics", "/v1/metrics", "/v1/traces"}
)

#: Ambient parent span id for nesting.  0 is the implicit root span
#: (the request itself), so a top-level ``span()`` parents correctly
#: without any setup.
_active_span: contextvars.ContextVar[int] = contextvars.ContextVar(
    "repro_active_span", default=0
)


class TraceState:
    """The in-flight span accumulator one sampled request carries.

    Lives on ``RequestContext.trace`` and crosses threads with it (the
    frontend's context snapshot carries the same object), so appends
    take a lock.  Span ids are small ints; 0 is the root.
    """

    __slots__ = (
        "trace_id", "started", "wall_start", "spans", "error", "_lock",
        "_next_sid",
    )

    def __init__(
        self, trace_id: str, *, started: Optional[float] = None
    ) -> None:
        self.trace_id = trace_id
        self.started = (
            started if started is not None else time.perf_counter()
        )
        self.wall_start = time.time()
        self.spans: List[Dict[str, Any]] = []
        self.error = False
        self._lock = threading.Lock()
        self._next_sid = 1  # 0 is the implicit root

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Record one completed span; returns its id."""
        entry: Dict[str, Any] = {
            "name": name,
            "parent": parent,
            "start_ms": round((start - self.started) * 1000.0, 4),
            "duration_ms": round((end - start) * 1000.0, 4),
        }
        if attrs:
            entry["attrs"] = attrs
        with self._lock:
            sid = self._next_sid
            self._next_sid += 1
            entry["sid"] = sid
            self.spans.append(entry)
        return sid


class _NullSpan:
    """The span every call site gets when the trace was dropped.

    One shared instance, ``__slots__ = ()`` — entering it allocates
    nothing and reads no clock, which is what keeps the sampled-out
    fast path free (asserted by ``tests/obs/test_tracing.py``).
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """A live span: context manager recording duration and parent."""

    __slots__ = (
        "_trace", "_name", "_attrs", "_start", "_parent", "_token",
        "_sid",
    )

    def __init__(
        self, trace: TraceState, name: str, attrs: Dict[str, Any]
    ) -> None:
        self._trace = trace
        self._name = name
        self._attrs = attrs
        self._start = 0.0
        self._parent = 0
        self._sid = 0
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "_SpanHandle":
        self._parent = _active_span.get()
        # Reserve the sid up front so children can parent to it; the
        # span record itself is appended on exit with the final times.
        with self._trace._lock:
            sid = self._trace._next_sid
            self._trace._next_sid += 1
        self._sid = sid
        self._token = _active_span.set(sid)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        end = time.perf_counter()
        if self._token is not None:
            _active_span.reset(self._token)
        if exc_type is not None:
            self._trace.error = True
            self._attrs = dict(self._attrs)
            self._attrs["error"] = exc_type.__name__
        entry: Dict[str, Any] = {
            "sid": self._sid,
            "name": self._name,
            "parent": self._parent,
            "start_ms": round(
                (self._start - self._trace.started) * 1000.0, 4
            ),
            "duration_ms": round((end - self._start) * 1000.0, 4),
        }
        if self._attrs:
            entry["attrs"] = self._attrs
        with self._trace._lock:
            self._trace.spans.append(entry)
        return False


def span(name: str, **attrs: Any):
    """A context manager timing ``name`` inside the ambient trace.

    Outside a request, or when sampling dropped the trace, returns the
    shared :data:`_NULL_SPAN` — zero allocation on the fast path.
    """
    context = current_request()
    trace = context.trace if context is not None else None
    if trace is None:
        return _NULL_SPAN
    return _SpanHandle(trace, name, attrs)


def add_span(name: str, start: float, end: float, **attrs: Any) -> None:
    """Record an already-measured ``perf_counter`` interval as a span.

    For call sites that timed the interval anyway (queue wait,
    scheduler pick, fsync) — no context-manager nesting needed.  No-op
    outside a sampled request.
    """
    context = current_request()
    trace = context.trace if context is not None else None
    if trace is None:
        return
    trace.add(name, start, end, _active_span.get(), attrs or None)


class Tracer:
    """Head-samples requests, tail-samples completed traces.

    ``start`` decides (once, cheaply) whether a request carries a
    :class:`TraceState` at all; ``finish`` decides whether the
    completed trace is worth keeping: error traces always, the slowest
    ``slow_per_route`` per route always, the rest with probability
    ``retain_rate``.  Kept traces live in a bounded ring; eviction
    prefers probabilistic keeps over slow ones over errors, so the
    interesting traces outlive the merely sampled.
    """

    enabled = True

    def __init__(
        self,
        *,
        capacity: int = 512,
        sample_rate: float = 1.0,
        retain_rate: float = 0.1,
        slow_per_route: int = 5,
        seed: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = int(capacity)
        self.sample_rate = float(sample_rate)
        self.retain_rate = float(retain_rate)
        self.slow_per_route = int(slow_per_route)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._ring: List[Dict[str, Any]] = []
        # Per-route min-heaps of the slowest durations currently
        # protected; a finishing trace is "slow" when it beats the
        # heap's floor (or the heap is not yet full).
        self._slow: Dict[str, List[float]] = {}
        self.started_total = 0
        self.dropped_total = 0
        self.kept_total = 0

    # -- lifecycle -----------------------------------------------------
    def start(self, context: RequestContext) -> None:
        """Maybe attach a TraceState to a freshly-bound request."""
        self.started_total += 1
        if self.sample_rate < 1.0 and (
            self.sample_rate <= 0.0
            or self._rng.random() >= self.sample_rate
        ):
            self.dropped_total += 1
            return
        context.trace = TraceState(
            context.request_id, started=context.started
        )

    def finish(
        self,
        context: RequestContext,
        *,
        route: str = "",
        status: int = 0,
        tenant: str = "",
        frontend: str = "",
    ) -> None:
        """Tail-sample a completed request's trace into the ring."""
        trace = context.trace
        if trace is None:
            return
        context.trace = None
        if route in _OPERATOR_ROUTES:
            return
        end = time.perf_counter()
        duration_ms = round((end - trace.started) * 1000.0, 4)
        error = trace.error or int(status) >= 500
        if error:
            kept = "error"
        elif self._is_slow(route, duration_ms):
            kept = "slow"
        elif self._rng.random() < self.retain_rate:
            kept = "sampled"
        else:
            return
        with trace._lock:
            spans = list(trace.spans)
        spans.insert(0, {
            "sid": 0,
            "name": "request",
            "parent": None,
            "start_ms": 0.0,
            "duration_ms": duration_ms,
        })
        entry = {
            "trace_id": trace.trace_id,
            "route": route,
            "tenant": tenant,
            "frontend": frontend,
            "status": int(status),
            "error": error,
            "duration_ms": duration_ms,
            "start_ts": round(trace.wall_start, 6),
            "kept": kept,
            "spans": spans,
        }
        self._insert(entry)

    # -- retention machinery -------------------------------------------
    def _is_slow(self, route: str, duration_ms: float) -> bool:
        with self._lock:
            heap = self._slow.setdefault(route, [])
            if len(heap) < self.slow_per_route:
                heapq.heappush(heap, duration_ms)
                return True
            if duration_ms > heap[0]:
                heapq.heapreplace(heap, duration_ms)
                return True
        return False

    def _insert(self, entry: Dict[str, Any]) -> None:
        with self._lock:
            if len(self._ring) >= self.capacity:
                self._evict_locked()
            self._ring.append(entry)
            self.kept_total += 1

    def _evict_locked(self) -> None:
        """Drop one entry, preferring the least interesting oldest.

        Probabilistic keeps go first, then slow-per-route, then
        (only when the whole ring is errors) the oldest error — the
        "eviction keeps error traces" guarantee.
        """
        for tier in ("sampled", "slow", "error"):
            for index, held in enumerate(self._ring):
                if held["kept"] == tier:
                    del self._ring[index]
                    return
        del self._ring[0]  # pragma: no cover - every entry has a tier

    # -- reading -------------------------------------------------------
    def snapshot(
        self,
        *,
        tenant: Optional[str] = None,
        route: Optional[str] = None,
        min_ms: float = 0.0,
        limit: int = 50,
    ) -> List[Dict[str, Any]]:
        """Kept traces, slowest first, filtered."""
        with self._lock:
            entries = list(self._ring)
        if tenant is not None:
            entries = [e for e in entries if e["tenant"] == tenant]
        if route is not None:
            entries = [e for e in entries if e["route"] == route]
        if min_ms > 0.0:
            entries = [e for e in entries if e["duration_ms"] >= min_ms]
        entries.sort(key=lambda e: e["duration_ms"], reverse=True)
        return entries[: max(int(limit), 0)]

    def get(self, trace_id: str) -> List[Dict[str, Any]]:
        """Every kept entry for one trace id."""
        with self._lock:
            return [
                e for e in self._ring if e["trace_id"] == trace_id
            ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class NullTracer:
    """The disabled tracer: the whole surface, none of the work."""

    enabled = False
    capacity = 0
    sample_rate = 0.0
    started_total = 0
    dropped_total = 0
    kept_total = 0

    __slots__ = ()

    def start(self, context: RequestContext) -> None:
        pass

    def finish(self, context: RequestContext, **kwargs: Any) -> None:
        context.trace = None

    def snapshot(self, **kwargs: Any) -> List[Dict[str, Any]]:
        return []

    def get(self, trace_id: str) -> List[Dict[str, Any]]:
        return []

    def __len__(self) -> int:
        return 0


#: Shared disabled tracer — the ``--no-metrics`` serving default.
NULL_TRACER = NullTracer()
