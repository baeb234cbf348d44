"""Observability plane: metrics, spans, SLOs, access logs.

Zero-dependency (stdlib only) by design — the service must stay
installable with nothing but Python.  Five pieces:

* :mod:`repro.obs.metrics` — thread-safe :class:`MetricsRegistry`
  (counters / gauges / fixed-bucket latency histograms, labelable,
  cardinality-guarded) with Prometheus-text and JSON exposition;
* :mod:`repro.obs.context` — the per-request :class:`RequestContext`
  (``request_id`` minted at the frontend, echoed as ``X-Request-ID``,
  propagated across the frontend's worker hop into journal records);
* :mod:`repro.obs.tracing` — span-level tracing over the same
  contextvar (``trace_id`` = ``request_id``): head-sampled per
  request, tail-sampled into a bounded ring (errors + slowest-N kept),
  served at ``GET /v1/traces`` and ``repro slow``;
* :mod:`repro.obs.slo` — per-tenant latency/error objectives with
  windowed attainment and error-budget burn-rate gauges;
* :mod:`repro.obs.logging` — opt-in structured access/event logging
  (:class:`AccessLogger`), human or JSON-lines.
"""

from repro.obs.context import (
    RequestContext,
    bind_request,
    clear_request,
    current_request,
    current_request_id,
    new_request_id,
)
from repro.obs.logging import NULL_ACCESS_LOG, AccessLogger
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    PICK_LATENCY_BUCKETS,
    NULL_REGISTRY,
    OVERFLOW_LABEL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullInstrument,
)
from repro.obs.slo import (
    DEFAULT_OBJECTIVE,
    SLOEngine,
    SLOObjective,
    load_slo_config,
)
from repro.obs.tracing import (
    NULL_TRACER,
    TraceState,
    Tracer,
    add_span,
    span,
)

__all__ = [
    "AccessLogger",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "DEFAULT_OBJECTIVE",
    "PICK_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_ACCESS_LOG",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullInstrument",
    "OVERFLOW_LABEL",
    "RequestContext",
    "SLOEngine",
    "SLOObjective",
    "TraceState",
    "Tracer",
    "add_span",
    "bind_request",
    "clear_request",
    "current_request",
    "current_request_id",
    "load_slo_config",
    "new_request_id",
    "span",
]
