"""The offline journal-metrics helper behind ``repro state inspect``."""

from repro.obs import MetricsRegistry
from repro.persist import journal_metrics
from repro.persist.journal import JournalRecord


def make_record(seq, rtype="tenant_created", payload=None):
    payload = payload if payload is not None else {"name": f"t{seq}"}
    return JournalRecord(seq=seq, type=rtype, payload=payload)


class TestJournalMetrics:
    def test_counts_bytes_and_lag(self):
        records = [
            make_record(1),
            make_record(2, "checkpoint", {"state_digest": "d"}),
            make_record(3, "app_registered", {"app": "m"}),
            make_record(4, "app_registered", {"app": "n"}),
        ]
        registry = journal_metrics(records)
        counts = registry.get("journal_records_total")
        by_type = {
            labels[0]: child.value
            for labels, child in counts.children()
        }
        assert by_type == {
            "tenant_created": 1.0, "checkpoint": 1.0, "app_registered": 2.0,
        }
        expected_bytes = sum(
            len(r.to_line().encode("utf-8")) + 1 for r in records
        )
        assert registry.get("journal_bytes_total").value == expected_bytes
        assert registry.get("journal_commit_lag_records").value == 2.0

    def test_empty_basis(self):
        registry = journal_metrics([])
        assert registry.get("journal_records_total").children() == []
        assert registry.get("journal_bytes_total").value == 0.0
        assert registry.get("journal_commit_lag_records").value == 0.0

    def test_live_and_offline_bytes_agree_on_non_ascii(self, tmp_path):
        """``journal_bytes_total`` counts on-disk utf-8 bytes in both
        the live journal and the offline ``state inspect`` view — a
        character count would diverge for any non-ASCII payload."""
        from repro.persist.journal import Journal, read_journal

        path = tmp_path / "wal.jsonl"
        registry = MetricsRegistry()
        journal = Journal(path, sync="buffered")
        journal.bind_metrics(registry)
        journal.append("tenant_created", {"name": "café-über-☃"})
        journal.close()
        live = registry.get("journal_bytes_total").value
        records, dropped = read_journal(path)
        assert dropped == 0
        offline = journal_metrics(records).get("journal_bytes_total").value
        assert live == offline == path.stat().st_size

    def test_shares_families_with_a_live_registry(self):
        """Same names as the live journal: re-registration, no clash."""
        registry = MetricsRegistry()
        live = registry.counter(
            "journal_records_total",
            "Records appended to the journal, by type.",
            ["type"],
        )
        live.labels("tenant_created").inc()
        journal_metrics([make_record(1)], registry=registry)
        family = registry.get("journal_records_total")
        assert family is live
        assert dict(family.children())[("tenant_created",)].value == 2.0
