"""The dedicated-device simulation of the Section 5.3.2 discussion.

:func:`simulate_dedicated_devices` implements the *multi-device
alternative* — one GPU per user, all users training concurrently — so
the single- vs multi-device trade-off can be measured
(benchmarks/bench_device_discipline.py).  The single-device side is
:class:`repro.runtime.AsyncClusterOracle` under ``single`` placement.

The simulator is not that runtime under ``dedicated`` placement plus
``run_concurrent``: there, every dispatch goes through
``MultiTenantScheduler.next_dispatch`` (one global user picker; a busy
tenant's pick is deferred), planning costs are divided by the pool
speedup, and no wall-clock horizon stops the run.  Here each user runs
its own GP-UCB on its own device, on profiled costs, until the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.utils.rng import RandomState, SeedLike

if TYPE_CHECKING:  # annotations only: serving never loads the datasets
    from repro.datasets.base import ModelSelectionDataset


@dataclass
class DedicatedDeviceResult:
    """Outcome of the one-GPU-per-user alternative.

    ``completion_times[i][k]`` is the wall-clock time at which user
    ``i``'s k-th training run finished; ``rewards[i][k]`` its accuracy.
    """

    completion_times: List[np.ndarray]
    rewards: List[np.ndarray]
    arms: List[np.ndarray]

    def best_reward_at(self, user: int, time: float) -> float:
        """Best accuracy user ``i`` holds at wall-clock ``time``."""
        times = self.completion_times[user]
        done = times <= time
        if not np.any(done):
            return 0.0
        return float(np.max(self.rewards[user][done]))

    def average_accuracy_loss_at(
        self, time: float, best_qualities: Sequence[float]
    ) -> float:
        """Mean over users of ``a*_i − best accuracy held at time``."""
        losses = [
            float(best_qualities[i]) - self.best_reward_at(i, time)
            for i in range(len(self.completion_times))
        ]
        return float(np.mean(losses))


def simulate_dedicated_devices(
    dataset: ModelSelectionDataset,
    *,
    horizon: float,
    order: str = "ucb",
    noise_std: float = 0.0,
    gp_noise: float = 0.05,
    seed: SeedLike = None,
) -> DedicatedDeviceResult:
    """Simulate one dedicated GPU per user until ``horizon``.

    Every user trains continuously on their own device (no sharing, no
    pool speedup).  ``order`` picks each user's exploration policy:
    ``"ucb"`` runs an independent cost-aware GP-UCB per user (with an
    empirical prior from the dataset itself), ``"random"`` explores
    uniformly.  Used by the device-discipline benchmark to contrast
    with single-device :class:`repro.runtime.AsyncClusterOracle` runs.
    """
    from repro.core.beta import AlgorithmOneBeta
    from repro.core.ucb import GPUCB
    from repro.gp.covariance import empirical_model_covariance
    from repro.gp.regression import FiniteArmGP

    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if order not in ("ucb", "random"):
        raise ValueError(f"order must be 'ucb' or 'random', got {order!r}")
    rng = RandomState(seed)
    cov = empirical_model_covariance(dataset.quality)

    completion_times: List[np.ndarray] = []
    rewards: List[np.ndarray] = []
    arms: List[np.ndarray] = []
    for user in range(dataset.n_users):
        costs = dataset.cost[user]
        policy: Optional[GPUCB] = None
        if order == "ucb":
            policy = GPUCB(
                FiniteArmGP(cov, noise=gp_noise),
                AlgorithmOneBeta(dataset.n_models),
                costs,
            )
        t = 0.0
        user_times: List[float] = []
        user_rewards: List[float] = []
        user_arms: List[int] = []
        while True:
            if policy is not None:
                arm = policy.select()
            else:
                arm = int(rng.integers(dataset.n_models))
            duration = float(costs[arm])
            if t + duration > horizon:
                break
            t += duration
            reward = float(dataset.quality[user, arm])
            if noise_std > 0:
                reward = float(
                    np.clip(reward + noise_std * rng.normal(), 0.0, 1.0)
                )
            if policy is not None:
                policy.observe(arm, reward)
            user_times.append(t)
            user_rewards.append(reward)
            user_arms.append(arm)
        completion_times.append(np.asarray(user_times))
        rewards.append(np.asarray(user_rewards))
        arms.append(np.asarray(user_arms, dtype=int))
    return DedicatedDeviceResult(completion_times, rewards, arms)
