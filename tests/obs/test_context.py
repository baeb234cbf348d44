"""Request tracing context: ids, binding, cross-thread propagation."""

import re
import threading

from repro.obs import (
    RequestContext,
    bind_request,
    clear_request,
    current_request,
    current_request_id,
    new_request_id,
)
from repro.obs.context import sanitize_client_id


class TestRequestIds:
    def test_format_and_uniqueness(self):
        ids = {new_request_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(re.fullmatch(r"req-[0-9a-f]{16}", i) for i in ids)

    def test_sanitize_accepts_reasonable_ids(self):
        assert sanitize_client_id("req-abc123") == "req-abc123"
        assert sanitize_client_id("  trace-9 ") == "trace-9"

    def test_sanitize_rejects_junk(self):
        assert sanitize_client_id(None) is None
        assert sanitize_client_id("") is None
        assert sanitize_client_id("   ") is None
        assert sanitize_client_id("a\nb") is None
        assert sanitize_client_id("a\tb") is None
        assert sanitize_client_id("x" * 129) is None
        assert sanitize_client_id("caf\x00e") is None
        assert sanitize_client_id("caf\xe9") is None


class TestBinding:
    def teardown_method(self):
        clear_request()

    def test_bind_and_clear(self):
        assert current_request() is None
        assert current_request_id() is None
        context = bind_request(request_id="req-x", frontend="test")
        assert current_request() is context
        assert current_request_id() == "req-x"
        assert context.frontend == "test"
        clear_request()
        assert current_request() is None

    def test_bind_mints_when_missing(self):
        context = bind_request()
        assert context.request_id.startswith("req-")
        assert context.elapsed() >= 0.0

    def test_thread_isolation(self):
        bind_request(request_id="req-main")
        seen = {}

        def probe():
            seen["other"] = current_request_id()

        t = threading.Thread(target=probe)
        t.start()
        t.join()
        assert seen["other"] is None
        assert current_request_id() == "req-main"


class TestRunInContext:
    def test_context_dataclass_defaults(self):
        context = RequestContext()
        assert context.request_id.startswith("req-")
        assert context.frontend == ""
