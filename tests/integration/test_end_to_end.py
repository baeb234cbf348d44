"""Cross-module integration tests.

These exercise the full stack the way the paper's deployment does:
declare → feed → schedule → infer (live), and trace-driven multi-tenant
scheduling with regret/bound validation.
"""

import numpy as np
import pytest

from repro.core import (
    GPUCB,
    AlgorithmOneBeta,
    GPUCBPicker,
    HybridPicker,
    MatrixOracle,
    MultiTenantRegretTracker,
    MultiTenantScheduler,
    RoundRobinPicker,
    TheoremBeta,
)
from repro.core.theory import (
    theorem1_bound,
    theorem2_bound,
    theorem3_bound,
)
from repro.core.user_picking import GreedyPicker
from repro.datasets import load_deeplearning
from repro.engine import GPUPool, TraceTrainer
from repro.gp import FiniteArmGP, empirical_model_covariance
from repro.ml.data import TaskSpec, make_task
from repro.ml.zoo import default_zoo
from repro.platform import EaseMLServer, program_from_shapes
from repro.runtime import AsyncClusterOracle, SingleDevicePlacement


class TestTheoremBoundsHold:
    """Measured regret must stay below the theorem RHS on seeded runs."""

    def test_theorem1_single_tenant(self):
        ds = load_deeplearning(seed=0)
        user = 0
        costs = ds.cost[user]
        c_star = float(np.max(costs))
        cov = empirical_model_covariance(ds.quality)
        noise = 0.05
        ucb = GPUCB(
            FiniteArmGP(cov, noise=noise),
            TheoremBeta(ds.n_models, c_star=c_star),
            costs,
        )
        rng = np.random.default_rng(1)
        draw = lambda a: float(
            np.clip(ds.quality[user, a] + 0.02 * rng.normal(), 0, 1)
        )
        ucb.run(draw, 40)
        measured = sum(
            costs[a] * (ds.best_quality(user) - ds.quality[user, a])
            for a in ucb.arms_played
        )
        bound = theorem1_bound(
            ucb.selected_variances, ucb.betas_used[-1], noise, c_star
        )
        assert measured <= bound

    @pytest.mark.parametrize(
        "picker_cls,bound_fn",
        [
            (RoundRobinPicker, theorem2_bound),
            (GreedyPicker, theorem3_bound),
        ],
    )
    def test_multi_tenant_bounds(self, picker_cls, bound_fn):
        ds = load_deeplearning(seed=0).subset_users(range(5))
        cov = empirical_model_covariance(load_deeplearning(seed=0).quality)
        noise = 0.05
        c_star = float(np.max(ds.cost))
        c_lower = float(np.min(ds.cost))
        oracle = MatrixOracle(ds.quality, ds.cost, noise_std=0.02, seed=2)
        beta = TheoremBeta(
            ds.n_models, c_star=c_star, n_users=ds.n_users
        )
        pickers = [
            GPUCBPicker(cov, beta, oracle.costs(i), noise=noise)
            for i in range(ds.n_users)
        ]
        sched = MultiTenantScheduler(oracle, pickers, picker_cls())
        result = sched.run(max_steps=60)

        tracker = MultiTenantRegretTracker(
            [ds.quality[i] for i in range(ds.n_users)]
        )
        for record in result.records:
            tracker.record(record.user, record.arm, record.cost)

        per_user_vars = [
            t.picker.ucb.selected_variances for t in sched.tenants
        ]
        beta_star = beta(result.n_steps)
        if bound_fn is theorem2_bound:
            bound = bound_fn(
                per_user_vars, beta_star, [noise] * ds.n_users,
                c_star, c_lower,
            )
        else:
            bound = bound_fn(
                per_user_vars, beta_star, [noise] * ds.n_users, c_star
            )
        assert tracker.cumulative <= bound


class TestTraceDrivenPipeline:
    def test_scheduler_over_simulated_cluster(self):
        ds = load_deeplearning(seed=0)
        oracle = AsyncClusterOracle(
            TraceTrainer(ds, noise_std=0.01, seed=3),
            GPUPool(24, 0.9),
            SingleDevicePlacement(),
        )
        cov = empirical_model_covariance(ds.quality)
        pickers = [
            GPUCBPicker(
                cov,
                AlgorithmOneBeta(ds.n_models),
                oracle.costs(i),
                noise=0.05,
            )
            for i in range(ds.n_users)
        ]
        sched = MultiTenantScheduler(oracle, pickers, HybridPicker())
        budget = 0.05 * ds.total_cost() / oracle.pool.speedup()
        result = sched.run(cost_budget=budget)
        assert result.n_steps > 0
        # Wall-clock bookkeeping is consistent across layers.
        assert oracle.clock.now == pytest.approx(result.total_cost)
        assert len(oracle.finished_jobs()) == result.n_steps
        # Every user the scheduler touched got a model back.
        served = set(result.users())
        for user in served:
            best = max(
                r.reward for r in result.records if r.user == user
            )
            assert best > 0.0


class TestLivePlatformPipeline:
    def test_declare_feed_schedule_infer(self):
        zoo = default_zoo().subset(
            ["naive-bayes", "ridge", "tree-d4", "knn-5", "logreg-fast"]
        )
        server = EaseMLServer(zoo, strategy="hybrid", seed=1)
        tasks = {
            "blobs": (3, TaskSpec("blobs", 150, 0.2, seed=0)),
            "moons": (2, TaskSpec("moons", 150, 0.3, seed=1)),
            "xor": (2, TaskSpec("xor", 150, 0.3, seed=2)),
        }
        apps = {}
        data = {}
        for name, (n_classes, spec) in tasks.items():
            app = server.register_app(
                program_from_shapes([2], [n_classes]), name
            )
            X, y = make_task(spec)
            app.feed(list(X), [int(v) for v in y])
            apps[name] = app
            data[name] = (X, y)

        server.run(max_steps=15)

        for name, app in apps.items():
            assert app.best_accuracy > 0.6, name
            X, y = data[name]
            # Infer agrees with the held model on training points most
            # of the time (sanity, not exact accuracy).
            predictions = [app.infer(x) for x in X[:30]]
            agreement = np.mean(np.array(predictions) == y[:30])
            assert agreement > 0.5, name

    def test_refine_changes_training_data(self):
        zoo = default_zoo().subset(["naive-bayes", "ridge"])
        server = EaseMLServer(zoo, strategy="round_robin", seed=0,
                              min_examples=5)
        app = server.register_app(program_from_shapes([1], [2]), "a")
        # Feed clean data plus corrupted labels, then disable the
        # corrupted half via refine.
        X_clean = np.linspace(-1, 1, 20).reshape(-1, 1)
        y_clean = (X_clean.ravel() > 0).astype(int)
        ids_clean = app.feed(list(X_clean), [int(v) for v in y_clean])
        ids_bad = app.feed(list(X_clean), [int(1 - v) for v in y_clean])
        for eid in ids_bad:
            app.set_example_enabled(eid, False)
        X, Y = app.store.enabled_arrays()
        assert X.shape[0] == len(ids_clean)
        server.run(max_steps=2)
        assert app.best_accuracy > 0.8
