"""Workload arrival processes and reproducible trace record/replay.

"No DNN Left Behind" (arXiv:1901.06887) argues that cloud multi-tenant
ML needs a runtime evaluated under realistic arrival processes, not a
fixed batch of jobs.  :class:`WorkloadGenerator` produces tenant
arrival / job submission / tenant departure streams (Poisson or
deterministic inter-arrivals), and :class:`WorkloadTrace` freezes any
generated stream as JSONL so a simulated run is reproducible and
diffable: the same trace replayed through the same
:class:`~repro.runtime.kernel.ClusterRuntime` yields a bit-for-bit
identical event log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.runtime.kernel import ClusterRuntime
from repro.utils.rng import RandomState, SeedLike

if TYPE_CHECKING:  # annotations only: serving never loads the datasets
    from repro.datasets.base import ModelSelectionDataset

#: The three things that can happen in a workload stream.
_ACTIONS = ("arrive", "submit", "depart")


@dataclass(frozen=True)
class WorkloadItem:
    """One workload occurrence: a tenant arrival, job, or departure."""

    time: float
    action: str
    user: int
    model: Optional[int] = None
    gpu_time: Optional[float] = None
    reward: Optional[float] = None

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(
                f"action must be one of {_ACTIONS}, got {self.action!r}"
            )
        if self.action == "submit" and (
            self.model is None or self.gpu_time is None
        ):
            raise ValueError("submit items need a model and a gpu_time")

    def to_dict(self) -> Dict:
        out = {"time": self.time, "action": self.action, "user": self.user}
        if self.model is not None:
            out["model"] = self.model
        if self.gpu_time is not None:
            out["gpu_time"] = self.gpu_time
        if self.reward is not None:
            out["reward"] = self.reward
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "WorkloadItem":
        return cls(
            time=float(data["time"]),
            action=str(data["action"]),
            user=int(data["user"]),
            model=None if data.get("model") is None else int(data["model"]),
            gpu_time=(
                None if data.get("gpu_time") is None
                else float(data["gpu_time"])
            ),
            reward=(
                None if data.get("reward") is None else float(data["reward"])
            ),
        )


class WorkloadTrace:
    """An ordered, serialisable sequence of :class:`WorkloadItem`."""

    def __init__(self, items: Sequence[WorkloadItem]) -> None:
        self.items = list(items)
        for earlier, later in zip(self.items, self.items[1:]):
            if later.time < earlier.time:
                raise ValueError(
                    f"trace items out of order: t={later.time} follows "
                    f"t={earlier.time}"
                )

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[WorkloadItem]:
        return iter(self.items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkloadTrace):
            return NotImplemented
        return self.items == other.items

    @property
    def n_jobs(self) -> int:
        return sum(1 for item in self.items if item.action == "submit")

    def users(self) -> List[int]:
        """Distinct users appearing in the trace, ascending."""
        return sorted({item.user for item in self.items})

    def membership(self) -> "WorkloadTrace":
        """Just the tenant arrival/departure items, as a sub-trace.

        This is the schedule :meth:`~repro.runtime.oracle.
        AsyncClusterOracle.run_concurrent` consumes: membership changes
        come from the trace while job submissions come from the live
        scheduler.
        """
        return WorkloadTrace(
            [item for item in self.items if item.action != "submit"]
        )

    # ------------------------------------------------------------------
    # JSONL record / replay
    # ------------------------------------------------------------------
    def dumps(self) -> str:
        """Serialise as JSONL (one item per line, sorted keys)."""
        return "".join(
            json.dumps(item.to_dict(), sort_keys=True) + "\n"
            for item in self.items
        )

    @classmethod
    def loads(cls, text: str) -> "WorkloadTrace":
        items = [
            WorkloadItem.from_dict(json.loads(line))
            for line in text.splitlines()
            if line.strip()
        ]
        return cls(items)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.dumps(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkloadTrace":
        return cls.loads(Path(path).read_text(encoding="utf-8"))

    def schedule_on(self, runtime: ClusterRuntime) -> None:
        """Queue every trace item on a runtime (does not run it)."""
        for item in self.items:
            if item.action == "arrive":
                runtime.user_arrives(item.user, time=item.time)
            elif item.action == "depart":
                runtime.user_departs(item.user, time=item.time)
            else:
                runtime.submit(
                    item.user,
                    item.model,
                    item.gpu_time,
                    0.0 if item.reward is None else item.reward,
                    time=item.time,
                )


def replay_trace(
    trace: WorkloadTrace, runtime: ClusterRuntime
) -> ClusterRuntime:
    """Schedule a trace on ``runtime`` and run it to completion."""
    trace.schedule_on(runtime)
    runtime.run_until_idle()
    return runtime


class WorkloadGenerator:
    """Sample tenant arrival / job submission / departure streams.

    Parameters
    ----------
    n_users:
        Tenant population size; each job is attributed to a uniformly
        random tenant.
    arrival:
        ``"poisson"`` — exponential job inter-arrival times with rate
        ``rate``; ``"deterministic"`` — exact ``1/rate`` spacing.
    rate:
        Mean job arrivals per unit of simulated time.
    quality, cost:
        Optional ``(n_users, n_models)`` matrices (e.g. a Figure 8
        dataset): submitted jobs draw a uniform model and take its
        profiled cost as ``gpu_time`` and its accuracy as ``reward``.
        Without matrices, ``gpu_time`` is lognormal around
        ``gpu_time_mean`` and rewards are uniform in [0, 1].
    departure_delay:
        When set, each tenant departs this long after their last job's
        arrival (exercising the cancellation path).
    seed:
        Everything is drawn from one seeded generator, so the same
        configuration always yields the same trace.
    """

    def __init__(
        self,
        n_users: int,
        *,
        arrival: str = "poisson",
        rate: float = 1.0,
        quality: Optional[np.ndarray] = None,
        cost: Optional[np.ndarray] = None,
        gpu_time_mean: float = 1.0,
        departure_delay: Optional[float] = None,
        seed: SeedLike = None,
    ) -> None:
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        if arrival not in ("poisson", "deterministic"):
            raise ValueError(
                f"arrival must be 'poisson' or 'deterministic', "
                f"got {arrival!r}"
            )
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if (quality is None) != (cost is None):
            raise ValueError("provide both quality and cost, or neither")
        self.n_users = int(n_users)
        self.arrival = arrival
        self.rate = float(rate)
        self.quality = None if quality is None else np.asarray(quality, float)
        self.cost = None if cost is None else np.asarray(cost, float)
        if self.quality is not None and (
            self.quality.shape != self.cost.shape
            or self.quality.shape[0] != self.n_users
        ):
            raise ValueError(
                "quality and cost must both be (n_users, n_models), got "
                f"{self.quality.shape} and {self.cost.shape}"
            )
        self.gpu_time_mean = float(gpu_time_mean)
        self.departure_delay = (
            None if departure_delay is None else float(departure_delay)
        )
        self._rng = RandomState(seed)

    @classmethod
    def from_dataset(
        cls,
        dataset: ModelSelectionDataset,
        *,
        arrival: str = "poisson",
        rate: float = 1.0,
        departure_delay: Optional[float] = None,
        seed: SeedLike = None,
    ) -> "WorkloadGenerator":
        """A generator whose jobs replay a Figure 8 dataset's matrices."""
        return cls(
            dataset.n_users,
            arrival=arrival,
            rate=rate,
            quality=dataset.quality,
            cost=dataset.cost,
            departure_delay=departure_delay,
            seed=seed,
        )

    def generate(self, n_jobs: int) -> WorkloadTrace:
        """Sample a trace containing exactly ``n_jobs`` submissions."""
        if n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
        items: List[WorkloadItem] = []
        seen_users: set = set()
        last_submit: Dict[int, float] = {}
        t = 0.0
        for _ in range(n_jobs):
            if self.arrival == "poisson":
                t += float(self._rng.exponential(1.0 / self.rate))
            else:
                t += 1.0 / self.rate
            user = int(self._rng.integers(self.n_users))
            if user not in seen_users:
                seen_users.add(user)
                items.append(WorkloadItem(time=t, action="arrive", user=user))
            if self.quality is not None:
                model = int(self._rng.integers(self.quality.shape[1]))
                gpu_time = float(self.cost[user, model])
                reward = float(self.quality[user, model])
            else:
                model = int(self._rng.integers(8))
                gpu_time = float(
                    self.gpu_time_mean * self._rng.lognormal(0.0, 0.5)
                )
                reward = float(self._rng.uniform())
            items.append(
                WorkloadItem(
                    time=t, action="submit", user=user, model=model,
                    gpu_time=gpu_time, reward=reward,
                )
            )
            last_submit[user] = t
        if self.departure_delay is not None:
            departures = sorted(
                (last + self.departure_delay, user)
                for user, last in last_submit.items()
            )
            items.extend(
                WorkloadItem(time=when, action="depart", user=user)
                for when, user in departures
            )
            # Departures can interleave with later submissions; restore
            # time order (stable, so same-time items keep insertion
            # order: arrive < submit < depart).
            items.sort(key=lambda item: item.time)
        return WorkloadTrace(items)
