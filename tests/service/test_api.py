"""The typed API surface: errors, versioning, wire round trips."""

import dataclasses
import json

import numpy as np
import pytest

from repro.service.api import (
    API_VERSION,
    HTTP_STATUS,
    MESSAGE_TYPES,
    ApiError,
    ApiErrorCode,
    FeedRequest,
    InferResponse,
    JobHandle,
    JobStatusResponse,
    ListJobsResponse,
    RefineResponse,
    RegisterAppRequest,
    SubmitTrainingResponse,
    from_wire,
    jsonify,
    to_wire,
)


class TestApiError:
    def test_round_trip(self):
        error = ApiError(
            ApiErrorCode.QUOTA_EXCEEDED, "too many apps", limit=4
        )
        restored = ApiError.from_dict(error.to_dict())
        assert restored.code is ApiErrorCode.QUOTA_EXCEEDED
        assert restored.message == "too many apps"
        assert restored.details == {"limit": 4}

    def test_is_an_exception_with_message(self):
        with pytest.raises(ApiError, match="gone"):
            raise ApiError(ApiErrorCode.NOT_FOUND, "gone")

    def test_every_code_has_an_http_status(self):
        for code in ApiErrorCode:
            assert 400 <= HTTP_STATUS[code] < 600

    def test_details_are_json_safe(self):
        error = ApiError(
            ApiErrorCode.INVALID_ARGUMENT,
            "bad",
            got=np.int64(3),
            shape=np.array([1.0, 2.0]),
        )
        assert error.details == {"got": 3, "shape": [1.0, 2.0]}


class TestJsonify:
    def test_numpy_scalars_and_arrays(self):
        assert jsonify(np.float64(0.5)) == 0.5
        assert jsonify(np.bool_(True)) is True
        assert jsonify({"a": (np.int32(1), [np.float32(2.0)])}) == {
            "a": [1, [2.0]]
        }


class TestWire:
    def test_request_round_trip(self):
        request = RegisterAppRequest(
            auth_token="tok", app="moons", program="{...}"
        )
        assert from_wire(to_wire(request)) == request

    def test_response_with_nested_handles_round_trips(self):
        response = SubmitTrainingResponse(
            handles=(
                JobHandle(
                    job_id="job-00000",
                    app="moons",
                    candidate="ridge",
                    state="pending",
                    submitted_at=0.0,
                ),
            )
        )
        restored = from_wire(to_wire(response))
        assert restored == response
        assert isinstance(restored.handles[0], JobHandle)

    def test_list_jobs_round_trip(self):
        response = ListJobsResponse(
            jobs=(
                JobHandle(
                    job_id="job-00001",
                    app="a",
                    candidate="c",
                    state="finished",
                    submitted_at=1.5,
                ),
            )
        )
        assert from_wire(to_wire(response)) == response

    def test_refine_examples_round_trip(self):
        response = RefineResponse(
            app="a", examples=((0, True), (1, False))
        )
        assert from_wire(to_wire(response)) == response

    def test_feed_tuples_survive(self):
        request = FeedRequest(
            auth_token="tok",
            app="a",
            inputs=((1.0, 2.0), (3.0, 4.0)),
            outputs=(0, 1),
        )
        restored = from_wire(to_wire(request))
        assert restored.inputs == ((1.0, 2.0), (3.0, 4.0))
        assert restored.outputs == (0, 1)

    def test_unknown_type_rejected(self):
        with pytest.raises(ApiError) as excinfo:
            from_wire({"type": "ExplodeRequest", "body": {}})
        assert excinfo.value.code is ApiErrorCode.INVALID_ARGUMENT

    def test_unknown_field_rejected(self):
        with pytest.raises(ApiError, match="does not accept"):
            from_wire(
                {
                    "type": "RegisterAppRequest",
                    "body": {"auth_token": "t", "app": "a",
                             "program": "p", "bogus": 1},
                }
            )

    def test_missing_required_field_rejected(self):
        with pytest.raises(ApiError, match="cannot build"):
            from_wire({"type": "RegisterAppRequest", "body": {}})

    def test_malformed_envelope_rejected(self):
        with pytest.raises(ApiError):
            from_wire(["not", "a", "dict"])

    def test_registry_covers_requests_and_responses(self):
        assert "RegisterAppRequest" in MESSAGE_TYPES
        assert "JobStatusResponse" in MESSAGE_TYPES
        assert "JobHandle" in MESSAGE_TYPES


class TestVersioning:
    def test_defaults_to_current_version(self):
        request = RegisterAppRequest(auth_token="t", app="a", program="p")
        assert request.api_version == API_VERSION

    def test_done_states(self):
        running = JobStatusResponse(
            job_id="j", app="a", candidate="c", state="running",
            submitted_at=0.0,
        )
        finished = JobStatusResponse(
            job_id="j", app="a", candidate="c", state="finished",
            submitted_at=0.0,
        )
        assert not running.done
        assert finished.done

    def test_responses_carry_version(self):
        assert InferResponse(app="a", prediction=1).api_version == API_VERSION


def _legacy_to_wire(message):
    """The two-pass definition the one-walk encoder must reproduce."""
    return {
        "type": type(message).__name__,
        "body": jsonify(dataclasses.asdict(message)),
    }


def _numpy_handle():
    return JobHandle(
        job_id="job-00003",
        app="moons",
        candidate="ridge",
        state="finished",
        submitted_at=np.float64(1.5),
        disposition=ApiErrorCode.NOT_FOUND,
    )


#: One awkward value per field annotation: numpy scalars and arrays,
#: Enums where a string goes, nested handle tuples, dicts with
#: non-string keys.  A new annotation must be added here.
_AWKWARD = {
    "str": lambda: ApiErrorCode.CONFLICT,
    "int": lambda: np.int64(7),
    "float": lambda: np.float64(0.25),
    "bool": lambda: np.bool_(True),
    "Optional[str]": lambda: "named",
    "Optional[int]": lambda: np.int32(3),
    "Optional[float]": lambda: np.float32(0.5),
    "Optional[bool]": lambda: np.bool_(False),
    "Tuple": lambda: (np.array([1.0, 2.5]), (np.float64(3.0), 4, None)),
    "Tuple[int, ...]": lambda: (np.int64(1), 2, np.uint8(3)),
    "Tuple[str, ...]": lambda: ("a", ApiErrorCode.UNAUTHORIZED),
    "Optional[Tuple[str, ...]]": lambda: ("job_finished", "x"),
    "Tuple[Tuple[int, bool], ...]": lambda: (
        (np.int64(0), np.bool_(True)), (1, False),
    ),
    "Tuple[JobHandle, ...]": lambda: (_numpy_handle(), _numpy_handle()),
    "Tuple[Dict[str, Any], ...]": lambda: (
        {
            "seq": np.int64(9),
            "kind": ApiErrorCode.CONFLICT,
            "nested": {"arr": np.arange(3), "pair": (1, np.float64(2.0))},
            3: "an int key",
        },
    ),
}


def _awkward_message(cls):
    return cls(**{
        field.name: _AWKWARD[field.type]()
        for field in dataclasses.fields(cls)
    })


class TestGoldenWire:
    @pytest.mark.parametrize("name", sorted(MESSAGE_TYPES))
    def test_one_walk_matches_asdict_then_jsonify(self, name):
        message = _awkward_message(MESSAGE_TYPES[name])
        wire = to_wire(message)
        assert wire == _legacy_to_wire(message)
        assert json.dumps(wire) == json.dumps(_legacy_to_wire(message))
        restored = from_wire(json.loads(json.dumps(wire)))
        assert type(restored) is MESSAGE_TYPES[name]
        assert to_wire(restored) == wire

    def test_plain_values_keep_their_identity(self):
        handle = JobHandle(
            job_id="j", app="a", candidate="c", state="running",
            submitted_at=0.0,
        )
        response = SubmitTrainingResponse(handles=(handle,))
        assert from_wire(to_wire(response)) == response
        assert to_wire(response)["body"]["handles"] == [
            dataclasses.asdict(handle)
        ]

    def test_non_messages_are_refused(self):
        for value in ({"a": 1}, JobHandle, "text"):
            with pytest.raises(TypeError):
                to_wire(value)
