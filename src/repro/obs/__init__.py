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

from repro._lazy import lazy_exports

#: Every re-exported name and the module that defines it, resolved on
#: first use: ``from repro.obs.metrics import ...`` (the scheduler's
#: pick instruments) loads metrics and the context it reads, not
#: tracing, SLOs or logging.
_EXPORTS = {
    "AccessLogger": "repro.obs.logging",
    "Counter": "repro.obs.metrics",
    "DEFAULT_LATENCY_BUCKETS": "repro.obs.metrics",
    "DEFAULT_OBJECTIVE": "repro.obs.slo",
    "PICK_LATENCY_BUCKETS": "repro.obs.metrics",
    "Gauge": "repro.obs.metrics",
    "Histogram": "repro.obs.metrics",
    "MetricsRegistry": "repro.obs.metrics",
    "NULL_ACCESS_LOG": "repro.obs.logging",
    "NULL_REGISTRY": "repro.obs.metrics",
    "NULL_TRACER": "repro.obs.tracing",
    "NullInstrument": "repro.obs.metrics",
    "OVERFLOW_LABEL": "repro.obs.metrics",
    "RequestContext": "repro.obs.context",
    "SLOEngine": "repro.obs.slo",
    "SLOObjective": "repro.obs.slo",
    "TraceState": "repro.obs.tracing",
    "Tracer": "repro.obs.tracing",
    "add_span": "repro.obs.tracing",
    "bind_request": "repro.obs.context",
    "clear_request": "repro.obs.context",
    "current_request": "repro.obs.context",
    "current_request_id": "repro.obs.context",
    "load_slo_config": "repro.obs.slo",
    "new_request_id": "repro.obs.context",
    "span": "repro.obs.tracing",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
