"""The service error taxonomy, in a layer-neutral module.

:class:`ApiError` is part of the versioned service API
(:mod:`repro.service.api` re-exports it as the canonical surface), but
it lives here so lower layers — the platform server raises it for
missing apps/examples — can use it without importing the service
package that sits above them.
"""

from __future__ import annotations

import sys
from enum import Enum
from typing import Any, Dict, Optional


#: Exact types that are already JSON-safe (subclasses such as numpy's
#: ``float64`` are not, by this test, and take the checks below).
_JSON_LEAVES = frozenset({str, int, float, bool, type(None)})


def jsonify(value: Any) -> Any:
    """Coerce numpy scalars/arrays (and containers) to JSON-safe types.

    numpy's types are looked up in ``sys.modules``, not imported: a
    process that never loaded numpy holds no numpy values, and the SDK
    (which imports this module) stays free of numpy's import time.
    """
    if type(value) in _JSON_LEAVES:
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(value, (np.floating, np.integer, np.bool_)):
            return value.item()
        if isinstance(value, np.ndarray):
            return jsonify(value.tolist())
    return value


class ApiErrorCode(str, Enum):
    """The closed taxonomy of service failures."""

    #: Referenced app / example / job does not exist (for this tenant).
    NOT_FOUND = "not_found"
    #: The request collides with existing state (duplicate app name).
    CONFLICT = "conflict"
    #: A per-tenant quota (apps, pending jobs, store bytes) is exhausted.
    QUOTA_EXCEEDED = "quota_exceeded"
    #: The submitted DSL program does not parse / type-check.
    INVALID_PROGRAM = "invalid_program"
    #: A request field is malformed (shape mismatch, bad label, ...).
    INVALID_ARGUMENT = "invalid_argument"
    #: Missing or unknown auth token.
    UNAUTHORIZED = "unauthorized"
    #: The operation is valid but not in this state (e.g. training
    #: before enough examples were fed, registering after training).
    FAILED_PRECONDITION = "failed_precondition"
    #: The platform cannot serve this workload kind.
    UNSUPPORTED = "unsupported"
    #: The request's schema version does not match the server's.
    UNSUPPORTED_VERSION = "unsupported_version"
    #: The gateway is replaying its journal after a restart; retry
    #: once recovery completes (the only retryable error in the
    #: taxonomy).
    UNAVAILABLE_RECOVERING = "unavailable_recovering"
    #: Anything the service failed to classify (a bug, by definition).
    INTERNAL = "internal"


#: HTTP status each error code maps to at the transport layer.
HTTP_STATUS: Dict[ApiErrorCode, int] = {
    ApiErrorCode.NOT_FOUND: 404,
    ApiErrorCode.CONFLICT: 409,
    ApiErrorCode.QUOTA_EXCEEDED: 429,
    ApiErrorCode.INVALID_PROGRAM: 422,
    ApiErrorCode.INVALID_ARGUMENT: 400,
    ApiErrorCode.UNAUTHORIZED: 401,
    ApiErrorCode.FAILED_PRECONDITION: 409,
    ApiErrorCode.UNSUPPORTED: 422,
    ApiErrorCode.UNSUPPORTED_VERSION: 400,
    ApiErrorCode.UNAVAILABLE_RECOVERING: 503,
    ApiErrorCode.INTERNAL: 500,
}


class ApiError(Exception):
    """A typed service failure that survives serialisation.

    ``details`` carries structured context (the offending name, the
    quota limit, valid ranges) so clients can react programmatically
    instead of parsing messages.

    ``request_id`` correlates a failure with one traced request: the
    HTTP frontend stamps it before writing the error body, it rides
    the wire inside the error dict, and the client restores it on the
    reconstructed exception — so an operator can grep the server's
    access log (or journal) for the exact request that failed.
    """

    def __init__(
        self,
        code: ApiErrorCode,
        message: str,
        **details: Any,
    ) -> None:
        super().__init__(message)
        self.code = ApiErrorCode(code)
        self.message = str(message)
        self.details: Dict[str, Any] = jsonify(details)
        self.request_id: Optional[str] = None

    @property
    def http_status(self) -> int:
        return HTTP_STATUS[self.code]

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "code": self.code.value,
            "message": self.message,
            "details": dict(self.details),
        }
        if self.request_id is not None:
            out["request_id"] = self.request_id
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ApiError":
        error = cls(
            ApiErrorCode(data["code"]),
            data.get("message", ""),
            **data.get("details", {}),
        )
        error.request_id = data.get("request_id")
        return error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ApiError({self.code.value!r}, {self.message!r})"
