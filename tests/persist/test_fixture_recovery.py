"""A state directory written by an earlier version still recovers.

``fixtures/state_v1`` was written by ``fixtures/make_state_v1.py``
before the example store became columnar (two tenants, ten
feed/toggle/train/wait cycles each, one infer).  Replay must rebuild
exactly the state that was digested when it was written.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.persist import recover_gateway, state_digest
from repro.service.api import AppStatusRequest, InferRequest, ListJobsRequest

FIXTURES = Path(__file__).resolve().parent / "fixtures"
RECORD = json.loads((FIXTURES / "state_v1.json").read_text())


@pytest.fixture
def recovered(tmp_path):
    state_dir = tmp_path / "state_v1"
    shutil.copytree(FIXTURES / "state_v1", state_dir)
    gateway, report = recover_gateway(state_dir)
    yield gateway, report
    gateway.store.close()


def test_recovers_the_recorded_digest(recovered):
    gateway, report = recovered
    assert report.tenants == ["alice", "bob"]
    assert report.dropped_tail == 0
    assert not report.lost
    assert state_digest(gateway) == RECORD["state_digest"]


def test_stores_and_jobs_are_as_written(recovered):
    gateway, _ = recovered
    for tenant, app in (("alice", "moons"), ("bob", "blobs")):
        token = RECORD["tokens"][tenant]
        status = gateway.handle(AppStatusRequest(auth_token=token, app=app))
        # 30 onboarding rows, then 10 cycles of 5 with one disabled
        assert (status.n_examples, status.n_enabled) == (80, 70)
        jobs = gateway.handle(ListJobsRequest(auth_token=token, app=app)).jobs
        assert len(jobs) == 10
        assert all(job.state == "finished" for job in jobs)


def test_serves_the_recorded_predictions(recovered):
    gateway, _ = recovered
    response = gateway.handle(InferRequest(
        auth_token=RECORD["tokens"]["alice"], app="moons",
        rows=tuple(tuple(p) for p in RECORD["probes"]),
    ))
    assert list(response.predictions) == RECORD["predictions"]


def test_streamed_digest_hashes_the_whole_document(recovered, monkeypatch):
    """The checkpoint digest encodes its rows a chunk at a time; any
    chunk size hashes the bytes of the one-shot encoding."""
    import hashlib

    from repro.errors import jsonify
    from repro.persist import digest, state_view

    gateway, _ = recovered
    whole = json.dumps(
        state_view(gateway), sort_keys=True, separators=(",", ":"),
        default=jsonify,
    )
    expected = hashlib.sha256(whole.encode("utf-8")).hexdigest()
    for chunk in (1, 3, 256):
        monkeypatch.setattr(digest, "_CHUNK", chunk)
        assert state_digest(gateway) == expected


def test_a_name_that_spells_the_hole_still_digests_the_document(
    recovered,
):
    """The streamed digest marks each streamed list with a placeholder
    string; a state that spells it, even ahead of a list in key order,
    gets the one-shot encoding's hash."""
    import hashlib

    from repro.errors import jsonify
    from repro.persist import digest, state_view

    gateway, _ = recovered
    gateway.create_tenant(digest._HOLE)
    gateway.server.get_app("moons").best_candidate = digest._HOLE
    whole = json.dumps(
        state_view(gateway), sort_keys=True, separators=(",", ":"),
        default=jsonify,
    )
    assert state_digest(gateway) == hashlib.sha256(
        whole.encode("utf-8")
    ).hexdigest()
