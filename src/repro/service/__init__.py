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

from repro.service.api import (
    API_VERSION,
    ApiError,
    ApiErrorCode,
    JobHandle,
    Request,
    Response,
    from_wire,
    to_wire,
)
from repro.service.client import AmbiguousMutationError, EaseMLClient
from repro.service.gateway import (
    MAX_WAIT_SECONDS,
    ServiceGateway,
    Tenant,
    TenantQuota,
    TenantView,
)
from repro.service.http import (
    AsyncServiceHTTPServer,
    serve,
    serve_background,
)

__all__ = [
    "API_VERSION",
    "ApiError",
    "ApiErrorCode",
    "JobHandle",
    "Request",
    "Response",
    "to_wire",
    "from_wire",
    "MAX_WAIT_SECONDS",
    "ServiceGateway",
    "Tenant",
    "TenantQuota",
    "TenantView",
    "AsyncServiceHTTPServer",
    "serve",
    "serve_background",
    "AmbiguousMutationError",
    "EaseMLClient",
]
