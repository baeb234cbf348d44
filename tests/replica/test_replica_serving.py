"""ReadReplica + ReplicaGateway: reads, redirects, staleness, HTTP."""

import pytest

from replica_helpers import MOONS_PROGRAM, open_writer
from repro.errors import ApiError, ApiErrorCode
from repro.replica import ReadReplica, ReplicaGateway
from repro.service.api import (
    AppStatusRequest,
    ListAppsRequest,
    RegisterAppRequest,
)
from repro.service.client import EaseMLClient
from repro.service.http import serve_background


@pytest.fixture
def plane(state_dir):
    """In-process writer + caught-up replica; manual stepping."""
    gateway, token = open_writer(state_dir)
    gateway.handle(
        RegisterAppRequest(
            auth_token=token, app="moons", program=MOONS_PROGRAM
        )
    )
    replica = ReadReplica(state_dir)
    replica._apply(replica.tailer.seed())
    facade = ReplicaGateway(
        replica, max_lag_records=100, writer_url="http://writer:1"
    )
    yield gateway, token, replica, facade
    gateway.store.close()


class TestReplicaReads:
    def test_reads_match_the_writer(self, plane):
        gateway, token, replica, facade = plane
        mine = facade.handle(ListAppsRequest(auth_token=token))
        theirs = gateway.handle(ListAppsRequest(auth_token=token))
        assert mine.apps == theirs.apps == ("moons",)
        status = facade.handle(
            AppStatusRequest(auth_token=token, app="moons")
        )
        assert status.app == "moons"

    def test_new_writes_appear_after_step(self, plane):
        gateway, token, replica, facade = plane
        gateway.handle(
            RegisterAppRequest(
                auth_token=token, app="blobs", program=MOONS_PROGRAM
            )
        )
        assert replica.step() > 0
        assert facade.handle(
            ListAppsRequest(auth_token=token)
        ).apps == ("blobs", "moons")
        assert replica.applied_seq == gateway.store.last_seq

    def test_writes_rejected_with_writer_address(self, plane):
        gateway, token, replica, facade = plane
        with pytest.raises(ApiError) as err:
            facade.handle(
                RegisterAppRequest(
                    auth_token=token, app="x", program=MOONS_PROGRAM
                )
            )
        assert err.value.code is ApiErrorCode.NOT_WRITER
        assert err.value.details["writer_url"] == "http://writer:1"
        assert err.value.http_status == 503

    def test_stale_reads_beyond_bound_503(self, plane):
        gateway, token, replica, facade = plane
        facade.max_lag_records = 3
        replica._target_seq = replica.applied_seq + 10  # behind
        with pytest.raises(ApiError) as err:
            facade.handle(ListAppsRequest(auth_token=token))
        assert err.value.code is ApiErrorCode.UNAVAILABLE_RECOVERING
        assert err.value.details["replica_lag_records"] == 10
        assert err.value.details["writer_url"] == "http://writer:1"
        # catching up clears the bound
        replica._target_seq = replica.applied_seq
        assert facade.handle(ListAppsRequest(auth_token=token)).apps

    def test_staleness_gauges_advance(self, plane):
        gateway, token, replica, facade = plane
        metrics = replica.gateway.metrics.to_dict()
        applied = metrics["replica_applied_seq"]["series"][0]["value"]
        assert applied == replica.applied_seq > 0
        gateway.rotate_token("acme")
        replica.step()
        metrics = replica.gateway.metrics.to_dict()
        assert (
            metrics["replica_applied_seq"]["series"][0]["value"]
            == replica.applied_seq
            > applied
        )
        assert (
            metrics["replica_lag_records"]["series"][0]["value"] == 0
        )


class TestReplicaHTTP:
    def test_lag_header_and_redirect_over_http(self, plane):
        gateway, token, replica, facade = plane
        writer_server, _ = serve_background(gateway)
        facade.writer_url = writer_server.url
        replica_server, _ = serve_background(facade)
        try:
            client = EaseMLClient(replica_server.url, token)
            # read served by the replica, lag header echoed
            assert client.list_apps().apps == ("moons",)
            assert client.last_replica_lag == 0
            # mutation transparently redirected to the writer
            response = client.register_app("redirected", MOONS_PROGRAM)
            assert response.app == "redirected"
            assert client.writer_url == writer_server.url
            # the replica catches up and serves the new app
            replica.step()
            assert "redirected" in client.list_apps().apps
            # subsequent mutations go straight to the learned writer
            response = client.register_app("direct", MOONS_PROGRAM)
            assert response.app == "direct"
        finally:
            for server in (writer_server, replica_server):
                server.shutdown()
                server.server_close()

    def test_stale_read_falls_back_to_writer_over_http(self, plane):
        gateway, token, replica, facade = plane
        writer_server, _ = serve_background(gateway)
        facade.writer_url = writer_server.url
        facade.max_lag_records = 0
        replica_server, _ = serve_background(facade)
        try:
            replica._target_seq = replica.applied_seq + 5
            client = EaseMLClient(replica_server.url, token)
            # the replica 503s; the client re-reads from the writer
            assert client.list_apps().apps == ("moons",)
        finally:
            for server in (writer_server, replica_server):
                server.shutdown()
                server.server_close()

    def test_mutation_is_refused_then_served_after_promotion(self, plane):
        """The facade's whole write story is ``handle``: NOT_WRITER
        until ``promote()``, the writing gateway after."""
        gateway, token, replica, facade = plane
        server, _ = serve_background(facade)
        # The redirect points back here, so the SDK's one re-issue
        # meets the same replica and the refusal reaches the caller.
        facade.writer_url = server.url
        try:
            client = EaseMLClient(server.url, token)
            with pytest.raises(ApiError) as err:
                client.register_app("late", MOONS_PROGRAM)
            assert err.value.code is ApiErrorCode.NOT_WRITER
            assert err.value.details["writer_url"] == server.url
            assert err.value.request_id
            gateway.store.close()  # the writer dies; flock released
            replica.promote()
            assert client.register_app("late", MOONS_PROGRAM).app == "late"
            assert "late" in client.list_apps().apps
        finally:
            server.shutdown()
            server.server_close()
            replica.gateway.store.close()
