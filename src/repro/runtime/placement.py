"""Device-placement policies: who gets how many GPUs right now.

The paper's Section 5.3.2 contrasts exactly two disciplines — the
whole pool as a *single device* versus one dedicated GPU per user.
Related work widens the spectrum: Dorm (arXiv:1704.06738) dynamically
repartitions a shared cluster equally across concurrently-running jobs,
repartitioning (and hence preempting/resizing) whenever the job set
changes.  All three are expressed here as pluggable policies over the
same :class:`~repro.engine.cluster.GPUPool`.

A policy is a pure function from the current schedulable jobs to a
*desired allocation* ``{job_id: n_gpus}``.  The runtime kernel diffs
that against reality: jobs gaining devices are started or resumed,
jobs losing devices are preempted (and requeued when dropped to zero).
Policies never mutate jobs; determinism follows from building the
returned dict in the deterministic FIFO order of ``jobs``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional, Sequence

from repro.engine.cluster import GPUPool
from repro.engine.jobs import Job


class PlacementPolicy(ABC):
    """Maps schedulable jobs to a desired ``{job_id: n_gpus}``."""

    #: Short name used by the CLI / registry.
    name: str = "abstract"
    #: Jobs the scheduler may keep in flight under this policy, or
    #: ``None`` for one per tenant, capped by pool size.
    dispatch_window: Optional[int] = None

    @abstractmethod
    def allocate(
        self,
        jobs: Sequence[Job],
        current: Mapping[int, int],
        pool: GPUPool,
    ) -> Dict[int, int]:
        """Return the desired allocation.

        Parameters
        ----------
        jobs:
            All schedulable jobs (running and queued) in FIFO arrival
            order — the deterministic priority order.
        current:
            ``{job_id: n_gpus}`` for jobs currently holding devices
            (queued jobs are absent).
        pool:
            The shared pool; allocations must sum to ``<= pool.n_gpus``.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class SingleDevicePlacement(PlacementPolicy):
    """ease.ml's discipline: the whole pool trains one job at a time.

    Non-preemptive FIFO — a running job keeps all devices until it
    completes, then the next queued job takes the full pool.  Its
    dispatch window is one job, so the scheduler picks, trains and
    observes before it picks again: Algorithm 2 as written.
    """

    name = "single"
    dispatch_window = 1

    def allocate(
        self,
        jobs: Sequence[Job],
        current: Mapping[int, int],
        pool: GPUPool,
    ) -> Dict[int, int]:
        for job in jobs:
            if current.get(job.job_id, 0) > 0:
                return {job.job_id: current[job.job_id]}
        if jobs:
            return {jobs[0].job_id: pool.n_gpus}
        return {}


class DedicatedDevicePlacement(PlacementPolicy):
    """The Section 5.3.2 alternative: per-user dedicated devices.

    Each user runs at most one job at a time on ``gpus_per_user``
    devices; different users' jobs run concurrently until the pool is
    exhausted.  Non-preemptive: running jobs always keep their devices.
    """

    name = "dedicated"

    def __init__(self, gpus_per_user: int = 1) -> None:
        self.gpus_per_user = int(gpus_per_user)
        if self.gpus_per_user < 1:
            raise ValueError(
                f"gpus_per_user must be >= 1, got {gpus_per_user}"
            )

    def allocate(
        self,
        jobs: Sequence[Job],
        current: Mapping[int, int],
        pool: GPUPool,
    ) -> Dict[int, int]:
        desired: Dict[int, int] = {}
        busy_users = set()
        used = 0
        # Running jobs are sacrosanct; keep them first.
        for job in jobs:
            held = current.get(job.job_id, 0)
            if held > 0:
                desired[job.job_id] = held
                busy_users.add(job.user)
                used += held
        # Then admit at most one queued job per idle user, FIFO.
        for job in jobs:
            if job.job_id in desired or job.user in busy_users:
                continue
            if used + self.gpus_per_user > pool.n_gpus:
                continue
            desired[job.job_id] = self.gpus_per_user
            busy_users.add(job.user)
            used += self.gpus_per_user
        return desired

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DedicatedDevicePlacement(gpus_per_user={self.gpus_per_user})"


class DynamicPartitionPlacement(PlacementPolicy):
    """Dorm-style dynamic equal-share partitioning (arXiv:1704.06738).

    Every schedulable job runs concurrently (up to one device each at
    minimum), with the pool split as equally as integer arithmetic
    allows; earlier arrivals receive the remainder devices.  Whenever
    the job set changes, the partition is recomputed — the runtime
    kernel turns the resulting allocation deltas into preemptions and
    resizes, which is exactly Dorm's "utilization fairness with
    adjustment overhead" trade-off.
    """

    name = "partition"

    def __init__(self, max_parallel: Optional[int] = None) -> None:
        if max_parallel is not None and int(max_parallel) < 1:
            raise ValueError(
                f"max_parallel must be >= 1, got {max_parallel}"
            )
        self.max_parallel = None if max_parallel is None else int(max_parallel)

    def allocate(
        self,
        jobs: Sequence[Job],
        current: Mapping[int, int],
        pool: GPUPool,
    ) -> Dict[int, int]:
        k = min(len(jobs), pool.n_gpus)
        if self.max_parallel is not None:
            k = min(k, self.max_parallel)
        if k == 0:
            return {}
        base, extra = divmod(pool.n_gpus, k)
        return {
            job.job_id: base + (1 if i < extra else 0)
            for i, job in enumerate(jobs[:k])
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DynamicPartitionPlacement(max_parallel={self.max_parallel})"


#: Registry used by the CLI, the server backend and the benchmarks.
PLACEMENT_POLICIES = {
    SingleDevicePlacement.name: SingleDevicePlacement,
    DedicatedDevicePlacement.name: DedicatedDevicePlacement,
    DynamicPartitionPlacement.name: DynamicPartitionPlacement,
}


def make_placement(name: str, **kwargs) -> PlacementPolicy:
    """Instantiate a placement policy by its registry name."""
    if name not in PLACEMENT_POLICIES:
        raise ValueError(
            f"unknown placement policy {name!r}; choose from "
            f"{sorted(PLACEMENT_POLICIES)}"
        )
    return PLACEMENT_POLICIES[name](**kwargs)
