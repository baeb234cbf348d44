"""Tests for the command-line interface."""

import pytest

from repro.cli import _build_parser, build_service, main


class TestStats:
    def test_prints_figure8_table(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "DEEPLEARNING" in out
        assert "179CLASSIFIER" in out
        assert "SYN(0.5,1.0)" in out


class TestFigure:
    def test_figure8(self, capsys):
        assert main(["figure", "8"]) == 0
        assert "Figure 8" in capsys.readouterr().out

    def test_figure13_with_trials_and_out(self, capsys, tmp_path):
        out_file = tmp_path / "fig13.txt"
        code = main(
            ["figure", "13", "--trials", "2", "--out", str(out_file)]
        )
        assert code == 0
        assert out_file.exists()
        assert "Figure 13" in out_file.read_text()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "99"])

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_no_trials_is_one_line_and_exit_2(self, capsys, trials):
        assert main(["figure", "9", "--trials", trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"cannot run figure 9: n_trials must be >= 1, got {trials}\n"
        )


class TestCompare:
    def test_compare_with_exports(self, capsys, tmp_path):
        json_path = tmp_path / "result.json"
        csv_path = tmp_path / "curves.csv"
        code = main(
            [
                "compare",
                "--dataset", "DEEPLEARNING",
                "--strategies", "easeml", "most_cited",
                "--trials", "2",
                "--budget", "0.1",
                "--cost-aware",
                "--json", str(json_path),
                "--csv", str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "easeml" in out
        assert "speedup of easeml" in out
        assert json_path.exists()
        assert csv_path.exists()

    def test_unknown_dataset_errors(self, capsys):
        assert main(["compare", "--dataset", "NOPE", "--trials", "1"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--trials", "0"], "n_trials must be >= 1, got 0"),
            (["--budget", "0"], "budget_fraction must be in (0, 1], got 0.0"),
        ],
    )
    def test_bad_config_is_one_line_and_exit_2(self, capsys, flags, message):
        assert main(["compare", "--trials", "1", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cannot compare: {message}\n"

    def test_unknown_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit) as refused:
            main(["compare", "--strategies", "easeml", "psychic"])
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert "argument --strategies: invalid choice: 'psychic'" in err
        assert "'most_cited'" in err  # the choices are listed

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRuntime:
    def test_generated_workload_with_dumps(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        events_path = tmp_path / "events.jsonl"
        code = main(
            [
                "runtime",
                "--jobs", "12",
                "--n-gpus", "4",
                "--policy", "partition",
                "--seed", "3",
                "--trace-out", str(trace_path),
                "--events-out", str(events_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "partition placement" in out
        assert trace_path.exists() and events_path.exists()

    def test_trace_replay_reproduces_events(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        first = tmp_path / "events1.jsonl"
        second = tmp_path / "events2.jsonl"
        args = ["runtime", "--jobs", "10", "--n-gpus", "4", "--seed", "1"]
        assert main(
            args + ["--trace-out", str(trace_path),
                    "--events-out", str(first)]
        ) == 0
        assert main(
            ["runtime", "--n-gpus", "4",
             "--trace-in", str(trace_path), "--events-out", str(second)]
        ) == 0
        assert first.read_text() == second.read_text()

    def test_policies_accepted(self, capsys):
        for policy in ("single", "dedicated"):
            assert main(
                ["runtime", "--jobs", "5", "--policy", policy]
            ) == 0

    def test_unknown_dataset_errors(self, capsys):
        assert main(["runtime", "--dataset", "NOPE"]) == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["runtime", "--policy", "psychic"])

    def test_unreadable_trace_errors_cleanly(self, capsys, tmp_path):
        assert main(
            ["runtime", "--trace-in", str(tmp_path / "missing.jsonl")]
        ) == 2
        assert "cannot load trace" in capsys.readouterr().err
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"action": "explode", "time": 0, "user": 0}\n')
        assert main(["runtime", "--trace-in", str(bad)]) == 2
        assert "cannot load trace" in capsys.readouterr().err

    def test_preemption_overhead_flag(self, capsys, tmp_path):
        """The checkpoint-cost knob changes the replayed schedule."""
        trace_path = tmp_path / "trace.jsonl"
        free = tmp_path / "free.jsonl"
        paid = tmp_path / "paid.jsonl"
        base = ["runtime", "--jobs", "12", "--n-gpus", "4",
                "--policy", "partition", "--seed", "3"]
        assert main(
            base + ["--trace-out", str(trace_path),
                    "--events-out", str(free)]
        ) == 0
        assert main(
            ["runtime", "--n-gpus", "4", "--policy", "partition",
             "--preemption-overhead", "0.5",
             "--trace-in", str(trace_path), "--events-out", str(paid)]
        ) == 0
        assert main(["trace", "diff", str(free), str(paid)]) == 1
        assert "first divergence" in capsys.readouterr().out


class TestServe:
    def _args(self, extra=()):
        return _build_parser().parse_args(
            ["serve", "--port", "0", "--n-gpus", "2", *extra]
        )

    def test_build_service_wires_gateway_and_tenants(self):
        gateway, tokens, server, report = build_service(
            self._args(["--tenant", "alice", "--tenant", "bob"])
        )
        try:
            assert gateway.tenant_names() == ["alice", "bob"]
            assert set(tokens) == {"alice", "bob"}
            assert all(t.startswith("tok-") for t in tokens.values())
            assert report is None
            assert server.port > 0
            assert server.url.startswith("http://127.0.0.1:")
        finally:
            server.server_close()

    def test_build_service_default_tenant(self):
        _, tokens, server, _ = build_service(self._args())
        try:
            assert list(tokens) == ["default"]
        finally:
            server.server_close()

    def test_serve_rejects_unknown_placement(self):
        with pytest.raises(SystemExit):
            _build_parser().parse_args(["serve", "--placement", "psychic"])

    def test_serve_has_no_frontend_selector(self, capsys):
        with pytest.raises(SystemExit) as helped:
            _build_parser().parse_args(["serve", "--help"])
        assert helped.value.code == 0
        assert "--frontend" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as refused:
            _build_parser().parse_args(["serve", "--frontend", "asyncio"])
        assert refused.value.code == 2

    def test_serve_replicas_needs_reuse_port(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(
            "repro.service.http.supports_reuse_port", lambda: False
        )
        state = tmp_path / "state"
        code = main(
            ["serve", "--replicas", "1", "--state-dir", str(state)]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "SO_REUSEPORT" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not state.exists()

    def test_build_service_durable_restart(self, tmp_path):
        """--state-dir round trip: tokens and tenants survive."""
        state = str(tmp_path / "state")
        gateway, tokens, server, report = build_service(
            self._args(["--tenant", "alice", "--state-dir", state])
        )
        server.server_close()
        gateway.store.close()
        assert report is None
        gateway2, tokens2, server2, report2 = build_service(
            self._args(["--tenant", "alice", "--state-dir", state])
        )
        try:
            assert report2 is not None
            assert tokens2 == tokens
            assert gateway2.tenant_names() == ["alice"]
        finally:
            server2.server_close()
            gateway2.store.close()


class TestStateCommands:
    def _serve_args(self, state, extra=()):
        return _build_parser().parse_args(
            ["serve", "--port", "0", "--n-gpus", "2",
             "--state-dir", state, *extra]
        )

    def test_inspect_and_compact(self, capsys, tmp_path):
        state = str(tmp_path / "state")
        gateway, tokens, server, _ = build_service(
            self._serve_args(state, ["--tenant", "alice"])
        )
        server.server_close()
        gateway.store.close()

        assert main(["state", "inspect", "--state-dir", state]) == 0
        out = capsys.readouterr().out
        assert "tenant_created: 1" in out
        assert tokens["alice"] in out

        assert main(
            ["state", "inspect", "--state-dir", state, "--json"]
        ) == 0
        import json

        summary = json.loads(capsys.readouterr().out)
        assert summary["tenants"]["alice"]["token"] == tokens["alice"]
        assert summary["last_checkpoint_seq"] == 0
        assert summary["checkpoint_digest"] is None
        assert summary["records_since_checkpoint"] == 1
        assert "snapshots" not in summary

        # compact = replay-verify + one appended checkpoint record.
        assert main(["state", "compact", "--state-dir", state]) == 0
        out = capsys.readouterr().out
        assert "checkpoint: seq 0 (digest absent)" in out
        assert "appended checkpoint at seq 2" in out
        assert main(
            ["state", "inspect", "--state-dir", state, "--json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["last_checkpoint_seq"] == summary["last_seq"] == 2
        assert summary["records_since_checkpoint"] == 0
        assert out.rstrip().endswith(f"(digest {summary['checkpoint_digest']})")
        assert main(["state", "inspect", "--state-dir", state]) == 0
        out = capsys.readouterr().out
        assert "last checkpoint seq" in out and "checkpoint: 1" in out
        assert sorted(p.name for p in (tmp_path / "state").iterdir()) == [
            "config.json", "journal.jsonl", "lock",
        ]
        # A second compact verifies the digest the first one left.
        assert main(["state", "compact", "--state-dir", state]) == 0
        assert "checkpoint: seq 2 (digest verified)" in (
            capsys.readouterr().out
        )

    def test_legacy_snapshot_directory_is_refused(self, capsys, tmp_path):
        state = tmp_path / "state"
        gateway, _, server, _ = build_service(
            self._serve_args(str(state), ["--tenant", "alice"])
        )
        server.server_close()
        gateway.store.close()
        (state / "snapshot-000000000001.json").write_text("{}")
        for command in ("inspect", "compact"):
            assert main(["state", command, "--state-dir", str(state)]) == 2
            assert "snapshot-file format" in capsys.readouterr().err

    def test_inspect_rejects_non_state_dir(self, capsys, tmp_path):
        assert main(
            ["state", "inspect", "--state-dir", str(tmp_path)]
        ) == 2
        assert "not a state directory" in capsys.readouterr().err


class TestRuntimeArrivals:
    """The --arrivals churn path (ISSUE 3)."""

    DEMO = "examples/arrivals_demo.jsonl"

    def test_bundled_demo_trace_runs(self, capsys):
        assert main(
            ["runtime", "--arrivals", self.DEMO,
             "--jobs", "12", "--n-gpus", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "churn workload" in out
        assert "tenant arrivals (trace)" in out
        assert "serves by tenant" in out

    def test_churn_replay_diff_is_empty(self, capsys, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        args = ["runtime", "--arrivals", self.DEMO,
                "--jobs", "16", "--n-gpus", "4", "--seed", "2"]
        assert main(args + ["--events-out", str(first)]) == 0
        assert main(args + ["--events-out", str(second)]) == 0
        capsys.readouterr()
        # The acceptance criterion: `repro trace diff` reports no
        # divergence between two replays of the same churn schedule.
        assert main(["trace", "diff", str(first), str(second)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_arrivals_trace_missing_errors(self, capsys, tmp_path):
        assert main(
            ["runtime", "--arrivals", str(tmp_path / "nope.jsonl")]
        ) == 2
        assert "cannot load arrivals trace" in capsys.readouterr().err

    def test_arrivals_without_membership_items_errors(
        self, capsys, tmp_path
    ):
        trace = tmp_path / "subs.jsonl"
        trace.write_text(
            '{"action": "submit", "time": 0.0, "user": 0, '
            '"model": 1, "gpu_time": 1.0}\n'
        )
        assert main(["runtime", "--arrivals", str(trace)]) == 2
        assert "no arrive/depart" in capsys.readouterr().err

    def test_arrivals_unknown_user_errors(self, capsys, tmp_path):
        trace = tmp_path / "big.jsonl"
        trace.write_text('{"action": "arrive", "time": 0.0, "user": 99}\n')
        assert main(["runtime", "--arrivals", str(trace)]) == 2
        assert "only has" in capsys.readouterr().err


class TestServeObservabilityFlags:
    def _args(self, extra=()):
        return _build_parser().parse_args(
            ["serve", "--port", "0", "--n-gpus", "2", *extra]
        )

    def test_trace_sample_zero_disables_tracing(self):
        from repro.obs.tracing import NULL_TRACER

        gateway, _, server, _ = build_service(
            self._args(["--trace-sample", "0"])
        )
        try:
            assert gateway.tracer is NULL_TRACER
            assert server.tracer is NULL_TRACER
        finally:
            server.server_close()

    def test_trace_sample_sets_the_rate(self):
        gateway, _, server, _ = build_service(
            self._args(["--trace-sample", "0.25"])
        )
        try:
            assert gateway.tracer.sample_rate == 0.25
            assert server.tracer is gateway.tracer
        finally:
            server.server_close()

    def test_trace_sample_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_service(self._args(["--trace-sample", "1.5"]))

    def test_slo_config_reaches_the_gateway(self, tmp_path):
        import json

        path = tmp_path / "slo.json"
        path.write_text(json.dumps({
            "default": {"latency_ms": 500, "target": 0.95},
            "tenants": {"acme": {"latency_ms": 250, "target": 0.999}},
        }))
        gateway, _, server, _ = build_service(
            self._args(["--slo-config", str(path)])
        )
        try:
            assert gateway.slo.default.latency_ms == 500.0
            objective = gateway.slo.objective_for("acme")
            assert objective.latency_ms == 250.0
            assert objective.target == 0.999
        finally:
            server.server_close()

    def test_malformed_slo_config_fails_serve(self, capsys, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"tenats": {}}')
        assert main(
            ["serve", "--port", "0", "--n-gpus", "2",
             "--slo-config", str(path)]
        ) == 2
        assert "unknown top-level keys" in capsys.readouterr().err


class TestSlowCommand:
    TRACE = {
        "trace_id": "req-slow1",
        "route": "/v1/jobs",
        "tenant": "acme",
        "frontend": "asyncio",
        "status": 200,
        "error": False,
        "duration_ms": 10.0,
        "kept": "slow",
        "spans": [
            {"sid": 0, "name": "request", "parent": None,
             "start_ms": 0.0, "duration_ms": 10.0},
            {"sid": 1, "name": "gateway.handle", "parent": 0,
             "start_ms": 1.0, "duration_ms": 8.0,
             "attrs": {"type": "submit_training"}},
            {"sid": 2, "name": "journal.append", "parent": 1,
             "start_ms": 2.0, "duration_ms": 3.0},
        ],
    }

    def _patch(self, monkeypatch, document):
        import repro.cli as cli_mod

        calls = []

        def fake(url, path, token=None, timeout=5.0):
            calls.append((url, path, token))
            return document

        monkeypatch.setattr(cli_mod, "_scrape_json_metrics", fake)
        return calls

    def test_waterfall_renders_nested_spans(self, capsys, monkeypatch):
        calls = self._patch(monkeypatch, {"traces": [self.TRACE]})
        assert main(
            ["slow", "--route", "/v1/jobs", "--tenant", "acme",
             "--min-ms", "5", "--metrics-token", "sec"]
        ) == 0
        out = capsys.readouterr().out
        assert "trace req-slow1" in out
        assert "gateway.handle" in out
        # Depth-indented child, with its attrs alongside the bar.
        assert "    journal.append" in out
        assert "type=submit_training" in out
        assert "#" in out
        (call,) = calls
        assert call[2] == "sec"
        assert "route=%2Fv1%2Fjobs" in call[1]
        assert "tenant=acme" in call[1]

    def test_json_passthrough(self, capsys, monkeypatch):
        import json

        self._patch(monkeypatch, {"traces": [self.TRACE]})
        assert main(["slow", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == [self.TRACE]

    def test_no_traces_says_so(self, capsys, monkeypatch):
        self._patch(monkeypatch, {"traces": []})
        assert main(["slow"]) == 0
        assert "no retained traces" in capsys.readouterr().out

    def test_unreachable_server_is_exit_2(self, capsys, monkeypatch):
        self._patch(monkeypatch, None)
        assert main(["slow"]) == 2
        assert "cannot fetch" in capsys.readouterr().err


class TestSloCommand:
    METRICS = {
        "metrics": {
            "slo_attainment_ratio": {"series": [
                {"labels": {"tenant": "acme", "window": "60s"},
                 "value": 0.8},
            ]},
            "slo_error_budget_burn": {"series": [
                {"labels": {"tenant": "acme", "window": "60s"},
                 "value": 2.0},
            ]},
            "slo_class_attainment_ratio": {"series": [
                {"labels": {"tenant": "acme", "route_class": "infer",
                            "window": "60s"},
                 "value": 0.5},
            ]},
            "slo_class_error_budget_burn": {"series": [
                {"labels": {"tenant": "acme", "route_class": "infer",
                            "window": "60s"},
                 "value": 5.0},
            ]},
        }
    }

    def _patch(self, monkeypatch, document):
        import repro.cli as cli_mod

        monkeypatch.setattr(
            cli_mod,
            "_scrape_json_metrics",
            lambda url, path, token=None, timeout=5.0: document,
        )

    def test_table_shows_attainment_and_burn(self, capsys, monkeypatch):
        self._patch(monkeypatch, self.METRICS)
        assert main(["slo", "status"]) == 0
        out = capsys.readouterr().out
        assert "acme" in out
        assert "0.8000" in out
        assert "2.00" in out
        # The per-class row (infer data plane) prints beneath the
        # tenant-wide "all" row.
        lines = out.splitlines()
        all_row = next(i for i, l in enumerate(lines) if " all " in l)
        infer_row = next(
            i for i, l in enumerate(lines) if " infer " in l
        )
        assert all_row < infer_row
        assert "0.5000" in lines[infer_row]

    def test_json_output(self, capsys, monkeypatch):
        import json

        self._patch(monkeypatch, self.METRICS)
        assert main(["slo", "status", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["acme"]["all"]["60s"] == {
            "attainment": 0.8, "burn": 2.0
        }
        assert payload["acme"]["infer"]["60s"] == {
            "attainment": 0.5, "burn": 5.0
        }

    def test_no_gauges_yet(self, capsys, monkeypatch):
        self._patch(monkeypatch, {"metrics": {}})
        assert main(["slo", "status"]) == 0
        assert "no slo_* gauges" in capsys.readouterr().out

    def test_unreachable_server_is_exit_2(self, capsys, monkeypatch):
        self._patch(monkeypatch, None)
        assert main(["slo", "status"]) == 2
        assert "cannot fetch" in capsys.readouterr().err


class TestMetricsTextRendering:
    BODY = (
        "# HELP zeta_total Last family by registration.\n"
        "# TYPE zeta_total counter\n"
        "zeta_total 3\n"
        "# HELP alpha_seconds A histogram.\n"
        "# TYPE alpha_seconds histogram\n"
        'alpha_seconds_bucket{route="/v1/info",le="0.1"} 8\n'
        'alpha_seconds_bucket{route="/v1/info",le="1"} 10\n'
        'alpha_seconds_bucket{route="/v1/info",le="+Inf"} 10\n'
        'alpha_seconds_sum{route="/v1/info"} 1.2\n'
        'alpha_seconds_count{route="/v1/info"} 10\n'
    )

    def test_families_sorted_and_percentiles_inline(self):
        from repro.cli import _render_metrics_text

        out = _render_metrics_text(self.BODY)
        lines = out.splitlines()
        helps = [l for l in lines if l.startswith("# HELP ")]
        assert helps == sorted(helps)  # alpha before zeta now
        (pctl,) = [l for l in lines if " p50=" in l]
        assert pctl.startswith('# alpha_seconds{route="/v1/info"} p50=')
        # 8 of 10 under 0.1s: p50 interpolates inside the first bucket.
        assert "p50=0.0625" in pctl
        assert "p95=" in pctl and "p99=" in pctl

    def test_empty_body_unharmed(self):
        from repro.cli import _render_metrics_text

        assert _render_metrics_text("\n") == "\n"
    """`replica status` surfaces the writer's pick-latency histogram."""

    CLUSTER = {
        "front_url": "http://127.0.0.1:9000",
        "writer_url": "http://127.0.0.1:9001",
        "promotions": 0,
        "members": [
            {
                "name": "writer",
                "role": "writer",
                "url": "http://127.0.0.1:9001",
                "pid": 111,
            }
        ],
    }

    METRICS = {
        "metrics": {
            "replica_applied_seq": {"series": [{"value": 42}]},
            "replica_lag_records": {"series": [{"value": 0}]},
            "replica_is_writer": {"series": [{"value": 1}]},
            "scheduler_pick_seconds": {
                "series": [
                    {
                        "count": 17,
                        "sum": 0.0009,
                        "p50": 3.2e-05,
                        "p95": 9.1e-05,
                        "p99": 0.00013,
                    }
                ]
            },
        }
    }

    def _patch(self, monkeypatch):
        import repro.cli as cli_mod
        import repro.replica as replica_mod

        monkeypatch.setattr(
            replica_mod, "read_cluster", lambda state_dir: self.CLUSTER
        )
        monkeypatch.setattr(
            cli_mod,
            "_scrape_json_metrics",
            lambda url, path, token=None, timeout=5.0: self.METRICS,
        )

    def test_json_includes_pick_percentiles(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        self._patch(monkeypatch)
        assert main(
            ["replica", "status", "--state-dir", str(tmp_path), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        (member,) = payload["members"]
        assert member["pick_seconds"] == {
            "count": 17,
            "p50": 3.2e-05,
            "p95": 9.1e-05,
            "p99": 0.00013,
        }

    def test_text_output_quotes_pick_latency(
        self, capsys, tmp_path, monkeypatch
    ):
        self._patch(monkeypatch)
        assert main(
            ["replica", "status", "--state-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "pick_p50=32us p95=91us p99=130us" in out

    def test_unreachable_member_omits_pick_latency(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.cli as cli_mod
        import repro.replica as replica_mod

        monkeypatch.setattr(
            replica_mod, "read_cluster", lambda state_dir: self.CLUSTER
        )
        monkeypatch.setattr(
            cli_mod,
            "_scrape_json_metrics",
            lambda url, path, token=None, timeout=5.0: None,
        )
        assert main(
            ["replica", "status", "--state-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "unreachable" in out
        assert "pick_p50" not in out


class TestServeSignals:
    """``repro serve`` as a real process: SIGINT and SIGTERM both stop
    it cleanly — exit 0, ``serve_stopped`` logged, journal closed."""

    @staticmethod
    def _spawn(state_dir):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
             "--n-gpus", "2", "--tenant", "t", "--log-json",
             "--snapshot-every", "1", "--state-dir", str(state_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )

    @staticmethod
    def _until_serving(process):
        """Stdout up to the readiness line, once the loop answers."""
        import re
        from urllib.request import urlopen

        lines = []
        for line in process.stdout:
            lines.append(line)
            if "press Ctrl-C to stop" in line:
                break
        out = "".join(lines)
        url = re.search(r"listening on (http://\S+)", out).group(1)
        with urlopen(f"{url}/metrics", timeout=30.0) as response:
            assert response.status == 200
        return out

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_is_a_clean_stop(self, tmp_path, signame):
        import json
        import signal

        state = tmp_path / "state"
        process = self._spawn(state)
        try:
            self._until_serving(process)
            process.send_signal(getattr(signal, signame))
            _, err = process.communicate(timeout=60.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, err
        # Nothing on stderr but the structured log, ending in the stop.
        events = [json.loads(line) for line in err.splitlines()]
        assert events[-1]["kind"] == "serve_stopped"
        assert events[-1]["url"].startswith("http://127.0.0.1:")
        # The journal was closed, not abandoned: the directory's lock
        # is free and a restart replays it to a verified digest.
        again = self._spawn(state)
        try:
            out = self._until_serving(again)
            again.send_signal(signal.SIGTERM)
            again.communicate(timeout=60.0)
        finally:
            if again.poll() is None:
                again.kill()
                again.communicate()
        assert "digest verified" in out
        assert again.returncode == 0
