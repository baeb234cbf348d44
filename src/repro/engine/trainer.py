"""Trainer interfaces: what actually produces a (reward, gpu_time) pair.

* :class:`TraceTrainer` replays a quality/cost matrix — the protocol
  the paper itself uses for its experiments (measured accuracies are
  replayed, not retrained per scheduler run).
* :class:`CallableTrainer` wraps arbitrary per-(user, model) training
  callables; :mod:`repro.ml` builds these for *live* end-to-end runs
  where a numpy classifier is genuinely trained and evaluated and the
  cost is its measured work.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence, Tuple

import numpy as np

from repro.utils.rng import RandomState, SeedLike

if TYPE_CHECKING:  # annotations only: serving never loads the datasets
    from repro.datasets.base import ModelSelectionDataset


class Trainer(ABC):
    """Produces observations for (user, model) pairs."""

    @property
    @abstractmethod
    def n_users(self) -> int:
        """Number of users this trainer can serve."""

    @abstractmethod
    def n_models(self, user: int) -> int:
        """Number of candidate models for ``user``."""

    @abstractmethod
    def expected_costs(self, user: int) -> np.ndarray:
        """A-priori cost estimates (ease.ml's 'simple profiling')."""

    @abstractmethod
    def train(self, user: int, model: int) -> Tuple[float, float]:
        """Train ``model`` for ``user``; return ``(reward, gpu_time)``."""


class TraceTrainer(Trainer):
    """Replay a :class:`ModelSelectionDataset` with optional noise."""

    def __init__(
        self,
        dataset: ModelSelectionDataset,
        *,
        noise_std: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        self.dataset = dataset
        if noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {noise_std}")
        self.noise_std = float(noise_std)
        self._rng = RandomState(seed)

    @property
    def n_users(self) -> int:
        return self.dataset.n_users

    def n_models(self, user: int) -> int:
        self._check_user(user)
        return self.dataset.n_models

    def expected_costs(self, user: int) -> np.ndarray:
        self._check_user(user)
        return self.dataset.cost[user].copy()

    def train(self, user: int, model: int) -> Tuple[float, float]:
        self._check_user(user)
        if not 0 <= model < self.dataset.n_models:
            raise IndexError(
                f"model {model} out of range [0, {self.dataset.n_models})"
            )
        reward = float(self.dataset.quality[user, model])
        if self.noise_std > 0:
            reward = float(
                np.clip(reward + self.noise_std * self._rng.normal(), 0.0, 1.0)
            )
        return reward, float(self.dataset.cost[user, model])

    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.dataset.n_users:
            raise IndexError(
                f"user {user} out of range [0, {self.dataset.n_users})"
            )


class CallableTrainer(Trainer):
    """Trainer over per-user lists of training callables.

    ``tasks[user][model]`` is a zero-argument callable returning
    ``(reward, gpu_time)``; ``cost_estimates[user]`` are the known
    up-front costs the scheduler plans with (profiling estimates may
    differ from realised cost, as on a real cluster).
    """

    def __init__(
        self,
        tasks: Sequence[Sequence[Callable[[], Tuple[float, float]]]],
        cost_estimates: Sequence[np.ndarray],
    ) -> None:
        if len(tasks) != len(cost_estimates):
            raise ValueError(
                "tasks and cost_estimates must have one entry per user"
            )
        if not tasks:
            raise ValueError("at least one user is required")
        for i, (user_tasks, costs) in enumerate(zip(tasks, cost_estimates)):
            costs = np.asarray(costs, dtype=float)
            if len(user_tasks) != costs.shape[0]:
                raise ValueError(
                    f"user {i}: {len(user_tasks)} tasks but "
                    f"{costs.shape[0]} cost estimates"
                )
            if np.any(costs <= 0):
                raise ValueError(f"user {i}: cost estimates must be > 0")
        self._tasks = [list(user_tasks) for user_tasks in tasks]
        self._costs = [
            np.asarray(costs, dtype=float).copy() for costs in cost_estimates
        ]

    @property
    def n_users(self) -> int:
        return len(self._tasks)

    def n_models(self, user: int) -> int:
        self._check_user(user)
        return len(self._tasks[user])

    def expected_costs(self, user: int) -> np.ndarray:
        self._check_user(user)
        return self._costs[user].copy()

    def add_user(
        self,
        tasks: Sequence[Callable[[], Tuple[float, float]]],
        cost_estimates: np.ndarray,
    ) -> int:
        """Append one user's task row; returns the new user id.

        This is how a tenant arriving mid-run gets trainable work:
        existing user ids are untouched and the newcomer takes the
        fresh row index.
        """
        costs = np.asarray(cost_estimates, dtype=float).copy()
        if len(tasks) != costs.shape[0]:
            raise ValueError(
                f"{len(tasks)} tasks but {costs.shape[0]} cost estimates"
            )
        if np.any(costs <= 0):
            raise ValueError("cost estimates must be > 0")
        self._tasks.append(list(tasks))
        self._costs.append(costs)
        return len(self._tasks) - 1

    def update_costs(self, user: int, cost_estimates: np.ndarray) -> None:
        """Replace one user's planning-cost estimates.

        Used when a provisional row (a registered-but-not-yet-admitted
        tenant) gets its real profiling estimates at admission time.
        """
        self._check_user(user)
        costs = np.asarray(cost_estimates, dtype=float).copy()
        if costs.shape[0] != len(self._tasks[user]):
            raise ValueError(
                f"user {user}: {len(self._tasks[user])} tasks but "
                f"{costs.shape[0]} cost estimates"
            )
        if np.any(costs <= 0):
            raise ValueError("cost estimates must be > 0")
        self._costs[user] = costs

    def train(self, user: int, model: int) -> Tuple[float, float]:
        self._check_user(user)
        if not 0 <= model < len(self._tasks[user]):
            raise IndexError(
                f"model {model} out of range "
                f"[0, {len(self._tasks[user])}) for user {user}"
            )
        reward, gpu_time = self._tasks[user][model]()
        reward = float(reward)
        gpu_time = float(gpu_time)
        if gpu_time <= 0:
            raise ValueError(
                f"trainer callable returned non-positive gpu_time {gpu_time}"
            )
        return reward, gpu_time

    def _check_user(self, user: int) -> None:
        if not 0 <= user < len(self._tasks):
            raise IndexError(
                f"user {user} out of range [0, {len(self._tasks)})"
            )
