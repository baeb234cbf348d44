"""Tests for the dedicated-device simulation."""

import numpy as np
import pytest

from repro.engine.cluster import GPUPool
from repro.engine.simulator import simulate_dedicated_devices
from repro.engine.trainer import TraceTrainer
from repro.runtime import AsyncClusterOracle, SingleDevicePlacement


class TestDedicatedDevices:
    def test_every_user_progresses(self, tiny_dataset):
        result = simulate_dedicated_devices(
            tiny_dataset, horizon=20.0, seed=0
        )
        assert len(result.completion_times) == tiny_dataset.n_users
        for times in result.completion_times:
            assert len(times) >= 1
            assert np.all(np.diff(times) > 0)

    def test_horizon_respected(self, tiny_dataset):
        result = simulate_dedicated_devices(
            tiny_dataset, horizon=10.0, seed=0
        )
        for times in result.completion_times:
            assert np.all(times <= 10.0 + 1e-9)

    def test_best_reward_at_time_zero_is_zero(self, tiny_dataset):
        result = simulate_dedicated_devices(
            tiny_dataset, horizon=20.0, seed=0
        )
        assert result.best_reward_at(0, 0.0) == 0.0

    def test_loss_decreases_over_time(self, tiny_dataset):
        result = simulate_dedicated_devices(
            tiny_dataset, horizon=30.0, seed=0
        )
        best = tiny_dataset.best_qualities()
        early = result.average_accuracy_loss_at(5.0, best)
        late = result.average_accuracy_loss_at(30.0, best)
        assert late <= early

    def test_random_order_supported(self, tiny_dataset):
        result = simulate_dedicated_devices(
            tiny_dataset, horizon=15.0, order="random", seed=0
        )
        assert len(result.rewards) == tiny_dataset.n_users

    def test_validation(self, tiny_dataset):
        with pytest.raises(ValueError):
            simulate_dedicated_devices(tiny_dataset, horizon=0.0)
        with pytest.raises(ValueError, match="order"):
            simulate_dedicated_devices(
                tiny_dataset, horizon=1.0, order="mystery"
            )

    def test_single_device_pool_beats_dedicated_early(self, tiny_dataset):
        """Section 5.3.2: pooling all GPUs returns first models sooner."""
        from repro.core.beta import AlgorithmOneBeta
        from repro.core.model_picking import GPUCBPicker
        from repro.core.multitenant import MultiTenantScheduler
        from repro.core.user_picking import RoundRobinPicker

        pool = GPUPool(tiny_dataset.n_users, scaling_efficiency=1.0)
        oracle = AsyncClusterOracle(
            TraceTrainer(tiny_dataset), pool, SingleDevicePlacement()
        )
        pickers = [
            GPUCBPicker(
                0.09 * np.eye(tiny_dataset.n_models),
                AlgorithmOneBeta(tiny_dataset.n_models),
                oracle.costs(i),
                noise=0.05,
            )
            for i in range(tiny_dataset.n_users)
        ]
        sched = MultiTenantScheduler(oracle, pickers, RoundRobinPicker())
        horizon = 2.0
        sched.run(cost_budget=horizon)
        shared_best = {i: 0.0 for i in range(tiny_dataset.n_users)}
        for record in sched.records:
            if record.cumulative_cost <= horizon:
                shared_best[record.user] = max(
                    shared_best[record.user],
                    tiny_dataset.quality[record.user, record.arm],
                )
        shared_loss = np.mean(
            [
                tiny_dataset.best_quality(i) - shared_best[i]
                for i in range(tiny_dataset.n_users)
            ]
        )
        dedicated = simulate_dedicated_devices(
            tiny_dataset, horizon=horizon, seed=0
        )
        dedicated_loss = dedicated.average_accuracy_loss_at(
            horizon, tiny_dataset.best_qualities()
        )
        # With an n-GPU pool at perfect scaling, the shared discipline
        # completes the same total work but sequences cheap first jobs
        # sooner; it should be at least as good at this early horizon.
        assert shared_loss <= dedicated_loss + 0.05
