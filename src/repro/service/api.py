"""The versioned service API: typed requests, responses, and errors.

Everything that crosses the service boundary is declared here as a
frozen dataclass with an explicit schema version, so the gateway, the
HTTP frontend, and the client SDK all speak one vocabulary.  The wire
form is plain JSON: :func:`to_wire` tags an object with its type name
and encodes its fields in one walk (no deep copy, no second pass),
:func:`from_wire` reconstructs it, and a round trip is the identity —
the HTTP layer adds nothing but transport.

Errors are part of the API, not an implementation detail.  Every
failure a caller can trigger maps to an :class:`ApiError` with a code
from :class:`ApiErrorCode`, a human-actionable message, and optional
structured details; raw ``KeyError``/``ValueError`` tracebacks never
cross the boundary.  (The error types themselves live in the
layer-neutral :mod:`repro.errors` so the platform can raise them; this
module is their canonical public home.)
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Type

from repro.errors import (  # noqa: F401 - canonical re-export
    HTTP_STATUS,
    ApiError,
    ApiErrorCode,
    jsonify,
)

#: The one schema version this server generation speaks.
API_VERSION = "v1"

#: Response header a read replica attaches to every reply: how many
#: journal records behind the writer the serving replica was at
#: dispatch time.  The SDK reads it (``EaseMLClient.last_replica_lag``)
#: to decide when to fall back to the writer.
REPLICA_LAG_HEADER = "X-Replica-Lag"


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class Request:
    """Base of every service request: version + tenant identity."""

    auth_token: str
    api_version: str = API_VERSION


@dataclass(frozen=True, kw_only=True)
class RegisterAppRequest(Request):
    """Declare a new app from DSL program text."""

    app: str
    program: str


@dataclass(frozen=True, kw_only=True)
class FeedRequest(Request):
    """Store input/output example pairs for an app.

    ``inputs`` is a list of flat (or nested) numeric lists; ``outputs``
    holds integer class labels or full output vectors.
    """

    app: str
    inputs: Tuple = ()
    outputs: Tuple = ()


@dataclass(frozen=True, kw_only=True)
class RefineRequest(Request):
    """List all fed examples and their enabled flags."""

    app: str


@dataclass(frozen=True, kw_only=True)
class SetExampleEnabledRequest(Request):
    """Toggle one stored example on/off (the ``refine`` action)."""

    app: str
    example_id: int
    enabled: bool


@dataclass(frozen=True, kw_only=True)
class InferRequest(Request):
    """Predict with the app's best model so far.

    Single-row (the v1 shape, still accepted): set ``x`` to one flat
    input.  Batch: set ``rows`` to a list of inputs instead and read
    per-row ``predictions`` off the response.  Exactly one of the two
    may be non-empty.
    """

    app: str
    x: Tuple = ()
    rows: Tuple = ()


@dataclass(frozen=True, kw_only=True)
class CloseAppRequest(Request):
    """Retire an app from the live cluster run (tenant departure).

    The app's tenant leaves the scheduler's active set (a
    ``USER_DEPARTED`` event): queued training jobs are cancelled,
    running jobs drain and still land, and the tenant's share of the
    pool is released.  The app keeps serving ``infer`` from its best
    model — closing stops training, not serving.
    """

    app: str


@dataclass(frozen=True, kw_only=True)
class SubmitTrainingRequest(Request):
    """Submit ``steps`` asynchronous training jobs for an app.

    Returns immediately with job handles; completions land out of
    order as the shared cluster schedules them.
    """

    app: str
    steps: int = 1


@dataclass(frozen=True, kw_only=True)
class JobStatusRequest(Request):
    """Poll one async job handle (advances the cluster as needed).

    ``wait`` turns the poll into a server-side long-poll: the gateway
    holds the request up to that many seconds (capped server-side)
    until the handle leaves PENDING/RUNNING, driving the shared
    cluster and riding other tenants' completions via the per-handle
    done event.  A wait that expires is *not* an error — the response
    carries the current, still-running status.  ``wait=0`` (the v1
    shape) answers immediately; servers predating long-poll ignore
    the field.
    """

    job_id: str
    wait: float = 0.0


@dataclass(frozen=True, kw_only=True)
class ListJobsRequest(Request):
    """List this tenant's jobs, optionally for one app."""

    app: Optional[str] = None


@dataclass(frozen=True, kw_only=True)
class AppStatusRequest(Request):
    """Best model, accuracy, and store stats for one app."""

    app: str


@dataclass(frozen=True, kw_only=True)
class ListAppsRequest(Request):
    """Names of this tenant's registered apps."""


@dataclass(frozen=True, kw_only=True)
class EventsRequest(Request):
    """Slice the server's event log (timeline introspection).

    Only events attributable to the requesting tenant's own apps are
    returned.  ``kinds`` filters by event-kind value strings;
    ``since`` drops events before that simulated time.

    ``stream`` asks for a live Server-Sent Events subscription instead
    of a snapshot (``GET /v1/events?stream=1``).  Streaming is a
    transport feature of the HTTP frontend; the typed handler
    answers ``UNSUPPORTED`` so in-process callers fail loudly.
    """

    kinds: Optional[Tuple[str, ...]] = None
    since: float = 0.0
    stream: bool = False


@dataclass(frozen=True, kw_only=True)
class ServerInfoRequest(Request):
    """Service metadata: version, cluster shape, clock, counts."""


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@dataclass(frozen=True, kw_only=True)
class Response:
    """Base of every service response."""

    api_version: str = API_VERSION


#: Job lifecycle states a handle can report (mirrors JobState values,
#: plus the gateway-level ``cancelled`` — the owning app/tenant was
#: retired, or recovery marked the job lost).
JOB_STATES = (
    "pending", "running", "preempted", "finished", "failed", "cancelled",
)

#: Terminal handle states — polling past these is a no-op.
TERMINAL_JOB_STATES = ("finished", "failed", "cancelled")

#: What crash recovery did to a handle that was in flight when the
#: process died: ``"recovered"`` (re-queued on the rebuilt cluster) or
#: ``"lost"`` (marked cancelled under the mark-lost policy).  ``None``
#: for handles that were never at risk.  Advisory and session-local:
#: it describes *this* process's recovery action.
JOB_DISPOSITIONS = ("recovered", "lost")


@dataclass(frozen=True, kw_only=True)
class JobHandle:
    """An async training job as the API sees it."""

    job_id: str
    app: str
    candidate: str
    state: str
    submitted_at: float
    disposition: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_JOB_STATES


@dataclass(frozen=True, kw_only=True)
class RegisterAppResponse(Response):
    app: str
    workload_kind: str
    n_candidates: int


@dataclass(frozen=True, kw_only=True)
class FeedResponse(Response):
    app: str
    example_ids: Tuple[int, ...]
    n_total: int
    n_enabled: int


@dataclass(frozen=True, kw_only=True)
class RefineResponse(Response):
    app: str
    examples: Tuple[Tuple[int, bool], ...]


@dataclass(frozen=True, kw_only=True)
class SetExampleEnabledResponse(Response):
    app: str
    example_id: int
    enabled: bool


@dataclass(frozen=True, kw_only=True)
class InferResponse(Response):
    """Predictions, stamped with which training run produced them.

    ``model_version`` is the job handle id of the run that trained the
    served model (``run-<n>`` when the model landed outside the async
    job path), so clients can tell which run answered.  Single-row
    requests fill ``prediction`` (the v1 shape) *and* ``predictions``;
    batch requests fill only ``predictions``, one per input row.
    """

    app: str
    prediction: Optional[int] = None
    predictions: Tuple[int, ...] = ()
    model: Optional[str] = None
    model_version: Optional[str] = None


@dataclass(frozen=True, kw_only=True)
class CloseAppResponse(Response):
    """Outcome of a tenant departure."""

    app: str
    #: Job handle ids of queued jobs the departure cancelled.
    cancelled_jobs: Tuple[str, ...] = ()
    #: Whether the app was an active tenant of a live run when closed.
    was_admitted: bool = False


@dataclass(frozen=True, kw_only=True)
class SubmitTrainingResponse(Response):
    handles: Tuple[JobHandle, ...] = ()


@dataclass(frozen=True, kw_only=True)
class JobStatusResponse(Response):
    job_id: str
    app: str
    candidate: str
    state: str
    submitted_at: float
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    accuracy: Optional[float] = None
    preemptions: int = 0
    improved: Optional[bool] = None
    disposition: Optional[str] = None

    @property
    def done(self) -> bool:
        return self.state in TERMINAL_JOB_STATES


@dataclass(frozen=True, kw_only=True)
class ListJobsResponse(Response):
    jobs: Tuple[JobHandle, ...] = ()


@dataclass(frozen=True, kw_only=True)
class AppStatusResponse(Response):
    app: str
    workload_kind: str
    n_examples: int
    n_enabled: int
    n_candidates: int
    training_runs: int
    best_accuracy: Optional[float] = None
    best_candidate: Optional[str] = None


@dataclass(frozen=True, kw_only=True)
class ListAppsResponse(Response):
    apps: Tuple[str, ...] = ()


@dataclass(frozen=True, kw_only=True)
class EventsResponse(Response):
    events: Tuple[Dict[str, Any], ...] = ()


@dataclass(frozen=True, kw_only=True)
class ServerInfoResponse(Response):
    placement: str
    n_gpus: int
    n_apps: int
    n_jobs: int
    clock: float
    training_started: bool


# ----------------------------------------------------------------------
# Wire form
# ----------------------------------------------------------------------
def _message_types() -> Dict[str, Type]:
    types: Dict[str, Type] = {}
    for obj in list(globals().values()):
        if (
            isinstance(obj, type)
            and dataclasses.is_dataclass(obj)
            and (issubclass(obj, (Request, Response)) or obj is JobHandle)
        ):
            types[obj.__name__] = obj
    return types


#: Registry of every wire-serialisable message type, by class name.
MESSAGE_TYPES: Dict[str, Type] = {}


def _tuplify(value: Any) -> Any:
    """Recursively turn JSON lists back into the API's tuples."""
    if isinstance(value, list):
        return tuple(_tuplify(v) for v in value)
    return value


def _coerce(cls: Type, body: Dict[str, Any]) -> Any:
    """Build a dataclass from a wire dict, recursing into handles."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(body) - set(fields)
    if unknown:
        raise ApiError(
            ApiErrorCode.INVALID_ARGUMENT,
            f"{cls.__name__} does not accept field(s) "
            f"{sorted(unknown)}; valid fields: {sorted(fields)}",
            type=cls.__name__,
        )
    kwargs: Dict[str, Any] = {}
    for name, value in body.items():
        if name in ("handles", "jobs") and isinstance(value, list):
            value = tuple(
                _coerce(JobHandle, dict(v)) if isinstance(v, dict) else v
                for v in value
            )
        else:
            value = _tuplify(value)
        kwargs[name] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ApiError(
            ApiErrorCode.INVALID_ARGUMENT,
            f"cannot build {cls.__name__}: {exc}",
            type=cls.__name__,
        ) from None


#: Per-class field names for :func:`to_wire` (None: not a dataclass),
#: filled on first sight of each type.
_FIELD_NAMES: Dict[type, Optional[Tuple[str, ...]]] = {}

#: Types that are already JSON-safe as they are (exact types only: a
#: numpy ``float64`` is a ``float`` subclass and takes the slow path).
_PLAIN = frozenset((str, int, float, bool, type(None)))


def _field_names(cls: type) -> Optional[Tuple[str, ...]]:
    try:
        return _FIELD_NAMES[cls]
    except KeyError:
        names = (
            tuple(f.name for f in dataclasses.fields(cls))
            if dataclasses.is_dataclass(cls)
            else None
        )
        _FIELD_NAMES[cls] = names
        return names


def _wire_value(value: Any) -> Any:
    """One walk to the JSON-safe form ``jsonify(dataclasses.asdict(…))``
    produces: tuples become lists, nested dataclasses dicts, and only
    what is not an exact plain, list, tuple or dict type (numpy values,
    Enums) goes through :func:`jsonify`."""
    kind = type(value)
    if kind in _PLAIN:
        return value
    if kind is tuple or kind is list:
        return [_wire_value(v) for v in value]
    if kind is dict:
        return {str(k): _wire_value(v) for k, v in value.items()}
    names = _field_names(kind)
    if names is not None:
        return {name: _wire_value(getattr(value, name)) for name in names}
    return jsonify(value)


def to_wire(message: Any) -> Dict[str, Any]:
    """``{"type": <class name>, "body": <json-safe fields>}``."""
    if _field_names(type(message)) is None:
        raise TypeError(f"not an API message: {message!r}")
    return {"type": type(message).__name__, "body": _wire_value(message)}


def from_wire(data: Dict[str, Any]) -> Any:
    """Reconstruct a typed message from its :func:`to_wire` form."""
    try:
        type_name = data["type"]
        body = data.get("body", {})
    except (TypeError, KeyError):
        raise ApiError(
            ApiErrorCode.INVALID_ARGUMENT,
            "wire message must be a dict with 'type' and 'body' keys",
        ) from None
    cls = MESSAGE_TYPES.get(type_name)
    if cls is None:
        raise ApiError(
            ApiErrorCode.INVALID_ARGUMENT,
            f"unknown message type {type_name!r}; known types: "
            f"{sorted(MESSAGE_TYPES)}",
        )
    return _coerce(cls, dict(body))


MESSAGE_TYPES.update(_message_types())
