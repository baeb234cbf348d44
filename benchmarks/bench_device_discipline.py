"""Section 5.3.2 discussion: single-device vs dedicated-device.

ease.ml trains one model at a time on the whole GPU pool.  The
alternative gives each user a dedicated GPU.  Both spend the same
GPU-time; the single-device discipline returns models to (some) users
sooner and, per the paper, "achieves lower accumulated regret among
users than the multi-device alternative" on the DEEPLEARNING service.
"""

import numpy as np
from conftest import save_report

from repro.core.beta import AlgorithmOneBeta
from repro.core.model_picking import GPUCBPicker
from repro.core.multitenant import MultiTenantScheduler
from repro.core.user_picking import HybridPicker
from repro.datasets import load_deeplearning
from repro.engine import GPUPool, TraceTrainer
from repro.engine.simulator import simulate_dedicated_devices
from repro.gp.covariance import empirical_model_covariance
from repro.runtime import AsyncClusterOracle, SingleDevicePlacement
from repro.utils.tables import ascii_table


def _shared_pool_loss(dataset, horizon, n_gpus):
    oracle = AsyncClusterOracle(
        TraceTrainer(dataset, noise_std=0.01, seed=0),
        GPUPool(n_gpus, scaling_efficiency=1.0),
        SingleDevicePlacement(),
    )
    cov = empirical_model_covariance(dataset.quality)
    pickers = [
        GPUCBPicker(
            cov,
            AlgorithmOneBeta(dataset.n_models),
            oracle.costs(i),
            noise=0.05,
        )
        for i in range(dataset.n_users)
    ]
    sched = MultiTenantScheduler(oracle, pickers, HybridPicker())
    sched.run(cost_budget=horizon)
    best = np.zeros(dataset.n_users)
    for record in sched.records:
        if record.cumulative_cost <= horizon:
            quality = dataset.quality[record.user, record.arm]
            best[record.user] = max(best[record.user], quality)
    return float(np.mean(dataset.best_qualities() - best))


def test_single_device_vs_dedicated(once):
    dataset = load_deeplearning(seed=0)
    n_gpus = dataset.n_users  # one GPU per user in the dedicated setup

    def run():
        rows = []
        for horizon in (0.5, 1.0, 2.0, 4.0):
            shared = _shared_pool_loss(dataset, horizon, n_gpus)
            dedicated = simulate_dedicated_devices(
                dataset, horizon=horizon, seed=0, noise_std=0.01
            ).average_accuracy_loss_at(
                horizon, dataset.best_qualities()
            )
            rows.append([horizon, shared, dedicated])
        return rows

    rows = once(run)
    save_report(
        "device_discipline",
        ascii_table(
            ["wall-clock horizon", "single-device loss",
             "dedicated-device loss"],
            rows,
            title="Section 5.3.2: device-discipline comparison "
            "(perfect scaling, equal GPU count)",
        ),
    )
    # At every horizon the shared pool is at least competitive; at the
    # earliest horizon it must win (it can finish *someone's* model
    # n times sooner).
    first = rows[0]
    assert first[1] <= first[2] + 0.02
    for _, shared, dedicated in rows:
        assert shared <= dedicated + 0.10
