"""The versioned multi-tenant service layer.

This package is the canonical way to talk to the platform: a typed
request/response API with a structured error model
(:mod:`repro.service.api`), a transport-agnostic gateway enforcing
tenancy and quotas over async job handles
(:mod:`repro.service.gateway`), the event-loop HTTP frontend and its
route table (:mod:`repro.service.http`), and the Python SDK
(:mod:`repro.service.client`).

The error taxonomy itself is defined in the layer-neutral
:mod:`repro.errors` (the platform raises it too); this package is its
canonical public surface.
"""

from repro._lazy import lazy_exports

#: Every re-exported name and the module that defines it, resolved on
#: first use: the SDK (``EaseMLClient``) loads the wire vocabulary and
#: its own transport, not the gateway or the HTTP frontend.
_EXPORTS = {
    "API_VERSION": "repro.service.api",
    "ApiError": "repro.errors",
    "ApiErrorCode": "repro.errors",
    "JobHandle": "repro.service.api",
    "Request": "repro.service.api",
    "Response": "repro.service.api",
    "to_wire": "repro.service.api",
    "from_wire": "repro.service.api",
    "MAX_WAIT_SECONDS": "repro.service.gateway",
    "ServiceGateway": "repro.service.gateway",
    "Tenant": "repro.service.gateway",
    "TenantQuota": "repro.service.gateway",
    "TenantView": "repro.service.gateway",
    "AsyncServiceHTTPServer": "repro.service.http",
    "serve": "repro.service.http",
    "serve_background": "repro.service.http",
    "AmbiguousMutationError": "repro.service.client",
    "EaseMLClient": "repro.service.client",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
