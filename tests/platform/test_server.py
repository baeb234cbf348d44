"""Tests for the ease.ml server (apps, operators, scheduling)."""

import numpy as np
import pytest

from repro.engine.events import EventKind
from repro.ml.data import TaskSpec, make_task
from repro.ml.zoo import default_zoo
from repro.platform.dsl import program_from_shapes
from repro.platform.server import EaseMLServer


SMALL_ZOO = ["naive-bayes", "ridge", "tree-d4", "knn-5"]


def make_server(**kwargs):
    zoo = default_zoo().subset(SMALL_ZOO)
    defaults = dict(strategy="hybrid", seed=0, min_examples=10)
    defaults.update(kwargs)
    return EaseMLServer(zoo, **defaults)


def feed_task(app, kind, n=120, seed=0, n_classes=None):
    X, y = make_task(TaskSpec(kind, n, 0.3, seed=seed))
    app.feed(list(X), [int(v) for v in y])
    return X, y


class TestRegistration:
    def test_register_from_text(self):
        server = make_server()
        app = server.register_app(
            "{input: {[Tensor[2]], []}, output: {[Tensor[2]], []}}",
            "moons",
        )
        assert app.name == "moons"
        assert app.n_classes == 2

    def test_register_from_program(self):
        server = make_server()
        app = server.register_app(program_from_shapes([2], [3]), "blobs")
        assert app.template.kind.value == "general classification"

    def test_duplicate_name_rejected(self):
        server = make_server()
        server.register_app(program_from_shapes([2], [2]), "a")
        with pytest.raises(ValueError, match="already"):
            server.register_app(program_from_shapes([2], [2]), "a")

    def test_autoencoder_workload_rejected_for_live_training(self):
        server = make_server()
        with pytest.raises(NotImplementedError):
            server.register_app(
                program_from_shapes([4, 4], [2, 2]), "ae"
            )

    def test_registration_open_after_run(self):
        # Dynamic membership: an app registered after scheduling has
        # started joins the live run once it is fed past the threshold.
        server = make_server()
        app = server.register_app(program_from_shapes([2], [2]), "a")
        feed_task(app, "moons")
        server.run(max_steps=2)
        late = server.register_app(program_from_shapes([2], [2]), "b")
        assert not server.is_admitted("b")
        feed_task(late, "moons", seed=1)
        records = server.run(max_steps=4)
        assert server.is_admitted("b")
        late_user = server.apps.index(late)
        assert any(r.user == late_user for r in records)
        arrivals = server.log.filter(EventKind.USER_ARRIVED, user=late_user)
        assert len(arrivals) == 1

    def test_retire_app_leaves_run(self):
        server = make_server()
        a = server.register_app(program_from_shapes([2], [2]), "a")
        b = server.register_app(program_from_shapes([2], [2]), "b")
        feed_task(a, "moons")
        feed_task(b, "moons", seed=1)
        server.run(max_steps=4)
        server.retire_app("a")
        assert a.closed
        assert not server.is_admitted("a")
        records = server.run(max_steps=4)
        assert all(r.user != server.apps.index(a) for r in records)
        departures = server.log.filter(EventKind.USER_DEPARTED, user=0)
        assert len(departures) == 1
        with pytest.raises(RuntimeError, match="already closed"):
            server.retire_app("a")

    def test_image_app_gets_normalization_candidates(self):
        server = make_server()
        app = server.register_app(
            program_from_shapes([4, 4, 3], [2]), "img"
        )
        names = app.candidate_names()
        assert any("+norm(k=" in n for n in names)
        assert len(names) == len(SMALL_ZOO) * 5  # plain + 4 ks

    def test_paper_candidates_preserved(self):
        server = make_server()
        app = server.register_app(
            program_from_shapes([4, 4, 3], [2]), "img"
        )
        paper_names = {c.base_model for c in app.paper_candidates}
        assert "AlexNet" in paper_names


class TestOperators:
    def test_feed_validates_shapes(self):
        server = make_server()
        app = server.register_app(program_from_shapes([2], [2]), "a")
        with pytest.raises(ValueError, match="scalars"):
            app.feed([np.ones(3)], [0])
        with pytest.raises(ValueError, match="inputs"):
            app.feed([np.ones(2)], [0, 1])

    def test_feed_label_encoding(self):
        server = make_server()
        app = server.register_app(program_from_shapes([2], [3]), "a")
        app.feed([np.ones(2)], [2])
        _, Y = app.store.enabled_arrays()
        assert np.allclose(Y[0], [0, 0, 1])

    def test_feed_label_range_checked(self):
        server = make_server()
        app = server.register_app(program_from_shapes([2], [2]), "a")
        with pytest.raises(ValueError, match="label"):
            app.feed([np.ones(2)], [5])

    def test_feed_accepts_output_vectors(self):
        server = make_server()
        app = server.register_app(program_from_shapes([2], [2]), "a")
        app.feed([np.ones(2)], [np.array([0.0, 1.0])])
        assert len(app.store) == 1

    def test_refine_lists_and_toggles(self):
        server = make_server()
        app = server.register_app(program_from_shapes([2], [2]), "a")
        app.feed([np.ones(2), np.zeros(2)], [0, 1])
        view = app.refine()
        assert view == [(0, True), (1, True)]
        app.set_example_enabled(0, False)
        assert app.refine() == [(0, False), (1, True)]

    def test_infer_before_training_rejected(self):
        server = make_server()
        app = server.register_app(program_from_shapes([2], [2]), "a")
        with pytest.raises(RuntimeError, match="no trained model"):
            app.infer(np.ones(2))

    def test_feed_events_logged(self):
        server = make_server()
        app = server.register_app(program_from_shapes([2], [2]), "a")
        feed_task(app, "moons")
        assert len(server.log.of_kind(EventKind.FEED)) == 1


class TestSchedulingLoop:
    def test_run_requires_examples(self):
        server = make_server()
        server.register_app(program_from_shapes([2], [2]), "a")
        with pytest.raises(RuntimeError, match="enabled examples"):
            server.run(max_steps=1)

    def test_end_to_end_improves_and_infers(self):
        server = make_server()
        apps = []
        for i, kind in enumerate(["blobs", "moons"]):
            n_classes = 3 if kind == "blobs" else 2
            app = server.register_app(
                program_from_shapes([2], [n_classes]), kind
            )
            feed_task(app, kind, seed=i)
            apps.append(app)
        records = server.run(max_steps=10)
        assert len(records) == 10
        for app in apps:
            assert app.best_accuracy > 0.5
            assert app.best_candidate is not None
            # report() only lists improvements, in increasing order.
            improvements = [o.accuracy for o in app.report()]
            assert improvements == sorted(improvements)
        X, _ = make_task(TaskSpec("moons", 8, 0.3, seed=9))
        prediction = apps[1].infer(X[0])
        assert prediction in (0, 1)

    def test_every_step_serves_exactly_one_app(self):
        server = make_server()
        for i, kind in enumerate(["blobs", "moons"]):
            n_classes = 3 if kind == "blobs" else 2
            app = server.register_app(
                program_from_shapes([2], [n_classes]), kind
            )
            feed_task(app, kind, seed=i)
        server.run(max_steps=8)
        total_runs = sum(len(a.history) for a in server.apps)
        assert total_runs == 8

    def test_cost_budget_run(self):
        server = make_server()
        app = server.register_app(program_from_shapes([2], [2]), "a")
        feed_task(app, "moons")
        # Wall-clock on the default 24-GPU pool, not raw work units.
        records = server.run(cost_budget=0.02)
        assert records  # at least one job ran
        assert server.scheduler.total_cost >= 0.02
        assert server.clock.now == pytest.approx(server.scheduler.total_cost)

    def test_strategies_accepted(self):
        for strategy in ("hybrid", "greedy", "round_robin", "random"):
            server = make_server(strategy=strategy)
            app = server.register_app(
                program_from_shapes([2], [2]), "a"
            )
            feed_task(app, "moons")
            server.run(max_steps=3)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            make_server(strategy="psychic")

    def test_clock_advances_with_training(self):
        server = make_server()
        app = server.register_app(program_from_shapes([2], [2]), "a")
        feed_task(app, "moons")
        server.run(max_steps=4)
        assert server.clock.now > 0.0


class TestRuntimeBackend:
    def register_two(self, server):
        apps = []
        for i, kind in enumerate(["blobs", "moons"]):
            n_classes = 3 if kind == "blobs" else 2
            app = server.register_app(
                program_from_shapes([2], [n_classes]), kind
            )
            feed_task(app, kind, seed=i)
            apps.append(app)
        return apps

    def test_unknown_placement_rejected(self):
        with pytest.raises(ValueError, match="runtime_placement"):
            make_server(runtime_placement="psychic")

    def test_no_synchronous_backend(self):
        with pytest.raises(ValueError, match="runtime_placement must be one"):
            make_server(runtime_placement=None)
        assert make_server().runtime_placement == "single"

    def test_runtime_backend_end_to_end(self):
        server = make_server(
            runtime_placement="partition", n_gpus=4,
            scaling_efficiency=1.0,
        )
        apps = self.register_two(server)
        records = server.run(max_steps=10)
        assert len(records) == 10
        total_runs = sum(len(a.history) for a in server.apps)
        assert total_runs == 10
        for app in apps:
            assert app.best_accuracy > 0.5
        # The concurrent timeline is on the shared clock and log.
        assert server.clock.now > 0.0
        assert len(server.log.filter(EventKind.JOB_FINISHED)) == 10
        # Per-completion events (oracle-level, {user, model, reward})
        # plus the app-level improvement events ({app, candidate,
        # accuracy}).
        returned = server.log.filter(EventKind.MODEL_RETURNED)
        assert len([e for e in returned if "user" in e.payload]) == 10
        improvements = [e for e in returned if "app" in e.payload]
        assert improvements
        assert {"app", "candidate", "accuracy"} <= set(
            improvements[0].payload
        )

    def test_runtime_backend_overlaps_jobs(self):
        server = make_server(
            runtime_placement="dedicated", n_gpus=4, strategy="round_robin",
        )
        self.register_two(server)
        server.run(max_steps=8)
        jobs = server._runtime_oracle.finished_jobs()
        assert len(jobs) == 8
        spans = sorted((j.start_time, j.end_time) for j in jobs)
        assert any(
            later_start < earlier_end
            for (_, earlier_end), (later_start, _) in zip(spans, spans[1:])
        )

    def test_runtime_backend_cost_budget(self):
        server = make_server(runtime_placement="single", n_gpus=2)
        self.register_two(server)
        records = server.run(cost_budget=0.05)
        assert records
        assert server.scheduler.total_cost > 0.0
