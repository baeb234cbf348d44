"""The event-driven runtime reproduces the single-device runs it replaced.

Both goldens in ``golden/`` were recorded before the runtime became the
only cluster substrate:

* ``single_device_scheduler.json`` — ``MultiTenantScheduler.run`` over
  the one-job-per-observe cluster oracle on DEEPLEARNING: a SHA-256 of
  every record's ``(t, user, arm, reward)`` plus the final cumulative
  cost and clock, per user picker and trainer noise;
* ``server_single_device.json`` — ``EaseMLServer``'s synchronous loop:
  every app's candidate history and best model after 15 steps, per
  strategy and seed.  Those runs charged raw work units, so only picks
  and accuracies are pinned, not the scheduler's costs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.beta import AlgorithmOneBeta
from repro.core.model_picking import GPUCBPicker
from repro.core.multitenant import MultiTenantScheduler
from repro.core.user_picking import GreedyPicker, HybridPicker, RoundRobinPicker
from repro.datasets import load_deeplearning
from repro.engine import GPUPool, TraceTrainer
from repro.gp.covariance import empirical_model_covariance
from repro.ml.data import TaskSpec, make_task
from repro.ml.zoo import default_zoo
from repro.platform import EaseMLServer, program_from_shapes
from repro.runtime import AsyncClusterOracle, SingleDevicePlacement

GOLDEN = Path(__file__).parent / "golden"

PICKERS = {
    "hybrid": lambda: HybridPicker(seed=0),
    "greedy": lambda: GreedyPicker(seed=0),
    "round_robin": RoundRobinPicker,
}


def load(name):
    return json.loads((GOLDEN / name).read_text())


@pytest.mark.parametrize("noise", [0.0, 0.01])
@pytest.mark.parametrize("strategy", sorted(PICKERS))
def test_scheduler_run_matches_single_device_golden(strategy, noise):
    expected = load("single_device_scheduler.json")[
        f"{strategy}/noise={noise}"
    ]
    ds = load_deeplearning(seed=0)
    oracle = AsyncClusterOracle(
        TraceTrainer(ds, noise_std=noise, seed=0),
        GPUPool(24, 0.9),
        SingleDevicePlacement(),
    )
    cov = empirical_model_covariance(ds.quality)
    pickers = [
        GPUCBPicker(
            cov, AlgorithmOneBeta(ds.n_models), oracle.costs(i), noise=0.05
        )
        for i in range(ds.n_users)
    ]
    sched = MultiTenantScheduler(oracle, pickers, PICKERS[strategy]())
    result = sched.run(
        cost_budget=0.3 * ds.total_cost() / oracle.pool.speedup()
    )
    sequence = [[r.t, r.user, r.arm, r.reward] for r in result.records]
    assert result.n_steps == expected["n_steps"]
    assert (
        hashlib.sha256(json.dumps(sequence).encode()).hexdigest()
        == expected["sha256"]
    )
    assert result.total_cost == pytest.approx(
        expected["cumulative_cost"], rel=1e-12
    )
    assert oracle.clock.now == pytest.approx(expected["clock"], rel=1e-12)


TASKS = {"blobs": (3, 0), "moons": (2, 1), "xor": (2, 2)}
ZOO = ["naive-bayes", "ridge", "tree-d4", "knn-5", "logreg-fast"]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("strategy", ["greedy", "hybrid", "round_robin"])
def test_server_default_backend_matches_synchronous_golden(strategy, seed):
    expected = load("server_single_device.json")[f"{strategy}/seed={seed}"]
    server = EaseMLServer(
        default_zoo().subset(ZOO), strategy=strategy, seed=seed
    )
    for name, (n_classes, task_seed) in TASKS.items():
        app = server.register_app(program_from_shapes([2], [n_classes]), name)
        X, y = make_task(TaskSpec(name, 120, 0.3, seed=task_seed))
        app.feed(list(X), [int(v) for v in y])
    server.run(max_steps=15)
    observed = {
        app.name: {
            "history": [
                [h.step, h.candidate, h.accuracy, h.improved]
                for h in app.history
            ],
            "best_accuracy": app.best_accuracy,
            "best_candidate": app.best_candidate,
        }
        for app in server.apps
    }
    assert observed == expected
