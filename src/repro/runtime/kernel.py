"""The discrete-event cluster runtime: concurrent jobs on shared GPUs.

:class:`ClusterRuntime` is the repo's one execution kernel:
submissions, completions and tenant arrivals/departures are
:class:`~repro.runtime.queue.EventQueue` entries; a pluggable :class:`~repro.runtime.placement.PlacementPolicy`
decides which jobs hold which share of the
:class:`~repro.engine.cluster.GPUPool` at every scheduling point; and
jobs are preemptible — when the policy shrinks or revokes a running
job's allocation, its progress is banked (``Job.work_done``), the job
is preempted, and it later resumes with only its remaining GPU-time.

Every state change lands in the shared :class:`EventLog`, so a run is
fully reconstructible (and, because the kernel is deterministic,
bit-for-bit reproducible from a recorded workload trace).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.engine.clock import SimClock
from repro.engine.cluster import GPUPool
from repro.engine.events import EventKind, EventLog
from repro.engine.jobs import Job, JobState
from repro.runtime.placement import PlacementPolicy, SingleDevicePlacement
from repro.runtime.queue import EventQueue, ScheduledEvent

#: Queue event kinds the kernel itself understands.
_KERNEL_KINDS = (
    EventKind.JOB_SUBMITTED,
    EventKind.JOB_FINISHED,
    EventKind.USER_ARRIVED,
    EventKind.USER_DEPARTED,
)


@dataclass
class _Slice:
    """One contiguous execution slice of a running job."""

    job: Job
    n_gpus: int
    resumed_at: float
    epoch: int


class ClusterRuntime:
    """Event-driven executor multiplexing many jobs over one GPU pool.

    Parameters
    ----------
    pool:
        The shared devices.
    policy:
        Placement policy (default: the paper's single-device
        discipline).
    clock, log:
        Optionally shared with an outer system (e.g. the platform
        server), so runtime events interleave with application events
        on one timeline.
    preemption_overhead:
        Single-GPU work units a job *loses* every time it is
        preempted (checkpoint/restore cost).  The default 0 keeps
        preemption free — which flatters preemption-happy policies
        like the Dorm-style dynamic partition; realistic values make
        the throughput/adaptivity trade-off visible.
    """

    def __init__(
        self,
        pool: Optional[GPUPool] = None,
        policy: Optional[PlacementPolicy] = None,
        *,
        clock: Optional[SimClock] = None,
        log: Optional[EventLog] = None,
        preemption_overhead: float = 0.0,
    ) -> None:
        self.pool = pool if pool is not None else GPUPool()
        self.policy = policy if policy is not None else SingleDevicePlacement()
        self.preemption_overhead = float(preemption_overhead)
        if self.preemption_overhead < 0:
            raise ValueError(
                f"preemption_overhead must be >= 0, got "
                f"{self.preemption_overhead}"
            )
        self.clock = clock if clock is not None else SimClock()
        self.log = log if log is not None else EventLog()
        self.queue = EventQueue(start=self.clock.now)
        self.jobs: List[Job] = []
        self.active_users: set = set()
        self._pending: List[int] = []
        self._running: Dict[int, _Slice] = {}
        self._arrival_order: Dict[int, int] = {}
        self._arrival_counter = 0
        self._epochs: Dict[int, int] = {}
        self._rewards: Dict[int, float] = {}
        self._completion_callbacks: List[Callable[[Job], None]] = []
        self._arrival_callbacks: List[Callable[[int], None]] = []
        self._departure_callbacks: List[Callable[[int], None]] = []
        self.preemption_count = 0
        self._handlers = {
            EventKind.JOB_SUBMITTED: self._on_submitted,
            EventKind.JOB_FINISHED: self._on_completion,
            EventKind.USER_ARRIVED: self._on_arrival,
            EventKind.USER_DEPARTED: self._on_departure,
        }
        self.bind_metrics(None)

    def bind_metrics(self, registry) -> None:
        """Report kernel event throughput into a metrics registry.

        ``registry`` is a :class:`repro.obs.MetricsRegistry` (or None
        to unbind — instruments revert to shared no-ops).  Kept as a
        local import so the runtime stays importable standalone.
        """
        from repro.obs.metrics import NULL_REGISTRY

        registry = registry if registry is not None else NULL_REGISTRY
        self._m_events = registry.counter(
            "kernel_events_total",
            "Kernel events processed, by kind.",
            ["kind"],
        )
        self._m_queue_depth = registry.gauge(
            "kernel_event_queue_depth",
            "Events waiting in the kernel's event queue.",
        )

    # ------------------------------------------------------------------
    # Submitting work
    # ------------------------------------------------------------------
    def submit(
        self,
        user: int,
        model: int,
        gpu_time: float,
        reward: float = 0.0,
        *,
        time: Optional[float] = None,
    ) -> Job:
        """Schedule a job submission at ``time`` (default: now).

        ``reward`` is the accuracy the job will report on completion —
        precomputed for trace replay, where training outcomes are known
        up front (the paper's own evaluation protocol).
        """
        when = self.clock.now if time is None else float(time)
        gpu_time = float(gpu_time)
        if gpu_time < 0:
            raise ValueError(f"gpu_time must be >= 0, got {gpu_time}")
        job = Job(
            job_id=len(self.jobs),
            user=int(user),
            model=int(model),
            submit_time=when,
            gpu_time=gpu_time,
        )
        self.jobs.append(job)
        self._rewards[job.job_id] = float(reward)
        self.queue.push(when, EventKind.JOB_SUBMITTED, job_id=job.job_id)
        return job

    def user_arrives(self, user: int, *, time: Optional[float] = None) -> None:
        """Schedule a tenant arrival."""
        when = self.clock.now if time is None else float(time)
        self.queue.push(when, EventKind.USER_ARRIVED, user=int(user))

    def user_departs(self, user: int, *, time: Optional[float] = None) -> None:
        """Schedule a tenant departure (queued jobs are cancelled)."""
        when = self.clock.now if time is None else float(time)
        self.queue.push(when, EventKind.USER_DEPARTED, user=int(user))

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------
    def step(self) -> List[Job]:
        """Process the next queued event; return jobs it completed."""
        if not self.queue:
            return []
        event = self.queue.pop()
        self.clock.advance_to(event.time)
        handler = self._handlers.get(event.kind)
        if handler is None:
            raise ValueError(
                f"the kernel cannot handle {event.kind.value!r} events; "
                f"expected one of {[k.value for k in _KERNEL_KINDS]}"
            )
        self._m_events.labels(event.kind.value).inc()
        self._m_queue_depth.set(len(self.queue))
        return handler(event)

    def run_until_next_completion(self) -> List[Job]:
        """Advance until at least one job completes (or events run out)."""
        completed: List[Job] = []
        while self.queue and not completed:
            completed = self.step()
        return completed

    def run_until_idle(self) -> List[Job]:
        """Drain the event queue; return every job completed on the way."""
        completed: List[Job] = []
        while self.queue:
            completed.extend(self.step())
        return completed

    def run_until(self, horizon: float) -> List[Job]:
        """Process all events at or before ``horizon``."""
        horizon = float(horizon)
        completed: List[Job] = []
        while self.queue:
            next_time = self.queue.peek_time()
            if next_time is None or next_time > horizon:
                break
            completed.extend(self.step())
        if self.clock.now < horizon:
            self.clock.advance_to(horizon)
        return completed

    def on_completion(self, callback: Callable[[Job], None]) -> None:
        """Register a callback fired after each job completes."""
        self._completion_callbacks.append(callback)

    def on_arrival(self, callback: Callable[[int], None]) -> None:
        """Register a callback fired when a ``USER_ARRIVED`` event lands.

        This is the hook that lets the kernel's membership events reach
        a live scheduler: :class:`~repro.runtime.oracle.
        AsyncClusterOracle` wires it to
        :meth:`~repro.core.multitenant.MultiTenantScheduler.add_tenant`.
        """
        self._arrival_callbacks.append(callback)

    def on_departure(self, callback: Callable[[int], None]) -> None:
        """Register a callback fired when a ``USER_DEPARTED`` event lands
        (after the departed tenant's queued jobs are cancelled)."""
        self._departure_callbacks.append(callback)

    def cancel(self, job_id: int, *, reason: str = "cancelled") -> bool:
        """Cancel one non-terminal job immediately (no queued event).

        Pending and preempted jobs leave the queue; a running job's
        slice is torn down (its stale completion event is ignored via
        the epoch check) and its devices return to the pool at the
        reschedule.  Returns False when the job is already terminal.
        Used by crash recovery's mark-lost policy — a departure-style
        cancellation that does *not* retire the owning tenant.
        """
        job = self.jobs[int(job_id)]
        if job.state in (JobState.FINISHED, JobState.FAILED):
            return False
        if job.job_id in self._running:
            slice_ = self._running.pop(job.job_id)
            job.account_progress(
                (self.clock.now - slice_.resumed_at)
                * self.pool.speedup(slice_.n_gpus)
            )
        if job.job_id in self._pending:
            self._pending.remove(job.job_id)
        job.fail(self.clock.now, reason=reason)
        self.log.append(
            self.clock.now, EventKind.JOB_FAILED, job_id=job.job_id,
            user=job.user, model=job.model, reason=reason,
        )
        if job.job_id in self._arrival_order:
            self._reschedule()
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def running_jobs(self) -> List[Job]:
        """Jobs currently holding devices, in FIFO arrival order."""
        return self._fifo([s.job for s in self._running.values()])

    @property
    def pending_jobs(self) -> List[Job]:
        """Queued (pending or preempted) jobs, in FIFO arrival order."""
        return self._fifo([self.jobs[jid] for jid in self._pending])

    @property
    def gpus_in_use(self) -> int:
        return sum(s.n_gpus for s in self._running.values())

    @property
    def is_idle(self) -> bool:
        return not self.queue and not self._running and not self._pending

    def finished_jobs(self) -> List[Job]:
        return [j for j in self.jobs if j.state is JobState.FINISHED]

    def failed_jobs(self) -> List[Job]:
        return [j for j in self.jobs if j.state is JobState.FAILED]

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_submitted(self, event: ScheduledEvent) -> List[Job]:
        job = self.jobs[event.payload["job_id"]]
        if job.state is not JobState.PENDING:
            # Cancelled between submission and admission (recovery's
            # mark-lost policy): the job never joins the queue.
            return []
        self._arrival_order[job.job_id] = self._arrival_counter
        self._arrival_counter += 1
        self._pending.append(job.job_id)
        self.active_users.add(job.user)
        self.log.append(
            self.clock.now, EventKind.JOB_SUBMITTED, job_id=job.job_id,
            user=job.user, model=job.model, gpu_time=job.gpu_time,
        )
        self._reschedule()
        return []

    def _on_arrival(self, event: ScheduledEvent) -> List[Job]:
        user = event.payload["user"]
        self.active_users.add(user)
        self.log.append(self.clock.now, EventKind.USER_ARRIVED, user=user)
        for callback in self._arrival_callbacks:
            callback(user)
        self._reschedule()
        return []

    def _on_departure(self, event: ScheduledEvent) -> List[Job]:
        user = event.payload["user"]
        self.active_users.discard(user)
        self.log.append(self.clock.now, EventKind.USER_DEPARTED, user=user)
        # Cancel the departed tenant's queued jobs; running jobs are
        # allowed to drain (their results land through the normal
        # completion path).  The reschedule below releases the
        # departed tenant's share of the pool to the survivors —
        # partition-style policies re-cut on the new membership.
        for jid in [j for j in self._pending if self.jobs[j].user == user]:
            self._pending.remove(jid)
            job = self.jobs[jid]
            job.fail(self.clock.now, reason="user departed")
            self.log.append(
                self.clock.now, EventKind.JOB_FAILED, job_id=jid,
                user=job.user, model=job.model, reason="user departed",
            )
        for callback in self._departure_callbacks:
            callback(user)
        self._reschedule()
        return []

    def _on_completion(self, event: ScheduledEvent) -> List[Job]:
        jid = event.payload["job_id"]
        epoch = event.payload["epoch"]
        slice_ = self._running.get(jid)
        if slice_ is None or slice_.epoch != epoch:
            # Stale completion: the job was preempted/resized after
            # this event was scheduled.  The reschedule that did so
            # queued a fresh completion under a newer epoch.
            return []
        del self._running[jid]
        job = slice_.job
        job.account_progress(
            (self.clock.now - slice_.resumed_at)
            * self.pool.speedup(slice_.n_gpus)
        )
        job.finish(self.clock.now, self._rewards.pop(jid))
        # A finished job is never placed again: drop its bookkeeping.
        del self._arrival_order[jid], self._epochs[jid]
        self.log.append(
            self.clock.now, EventKind.JOB_FINISHED, job_id=jid,
            user=job.user, model=job.model, reward=job.reward,
            n_gpus=slice_.n_gpus, duration=job.duration,
            preemptions=job.preemptions,
        )
        self._reschedule()
        for callback in self._completion_callbacks:
            callback(job)
        return [job]

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _fifo(self, jobs: List[Job]) -> List[Job]:
        return sorted(jobs, key=lambda j: self._arrival_order[j.job_id])

    def _schedulable(self) -> List[Job]:
        return self._fifo(
            [s.job for s in self._running.values()]
            + [self.jobs[jid] for jid in self._pending]
        )

    def _reschedule(self) -> None:
        jobs = self._schedulable()
        current = {jid: s.n_gpus for jid, s in self._running.items()}
        desired = self.policy.allocate(jobs, current, self.pool)
        self._validate_allocation(desired, jobs)
        # Preempt running jobs whose allocation changed or vanished.
        for jid in sorted(self._running):
            want = int(desired.get(jid, 0))
            if want != self._running[jid].n_gpus:
                self._pause(jid, requeued=want == 0)
        # Start (or resume) everything that should now hold devices.
        for jid in sorted(desired, key=self._arrival_order.__getitem__):
            if int(desired[jid]) > 0 and jid not in self._running:
                self._start_slice(jid, int(desired[jid]))

    def _validate_allocation(
        self, desired: Dict[int, int], jobs: List[Job]
    ) -> None:
        schedulable = {job.job_id for job in jobs}
        total = 0
        for jid, n_gpus in desired.items():
            if jid not in schedulable:
                raise ValueError(
                    f"policy allocated devices to job {jid}, which is "
                    "not schedulable"
                )
            if int(n_gpus) < 0:
                raise ValueError(
                    f"policy allocated {n_gpus} GPUs to job {jid}"
                )
            total += int(n_gpus)
        if total > self.pool.n_gpus:
            raise ValueError(
                f"policy allocated {total} GPUs but the pool has "
                f"{self.pool.n_gpus}"
            )

    def _pause(self, jid: int, *, requeued: bool) -> None:
        slice_ = self._running.pop(jid)
        job = slice_.job
        job.account_progress(
            (self.clock.now - slice_.resumed_at)
            * self.pool.speedup(slice_.n_gpus)
        )
        # Checkpoint/restore is not free: charge the configured
        # overhead by un-banking completed work (never below zero, so
        # a job can always still finish).
        overhead = min(self.preemption_overhead, job.work_done)
        job.work_done -= overhead
        job.preempt(self.clock.now)
        self.preemption_count += 1
        self.log.append(
            self.clock.now, EventKind.JOB_PREEMPTED, job_id=jid,
            user=job.user, model=job.model,
            remaining_gpu_time=job.remaining_gpu_time,
            overhead=overhead,
        )
        self._pending.append(jid)
        if requeued:
            self.log.append(
                self.clock.now, EventKind.JOB_REQUEUED, job_id=jid,
                user=job.user, model=job.model,
            )

    def _start_slice(self, jid: int, n_gpus: int) -> None:
        self._pending.remove(jid)
        job = self.jobs[jid]
        resumed = job.state is JobState.PREEMPTED
        if resumed:
            job.resume(self.clock.now)
        else:
            job.start(self.clock.now)
        epoch = self._epochs.get(jid, 0) + 1
        self._epochs[jid] = epoch
        duration = job.remaining_gpu_time / self.pool.speedup(n_gpus)
        self.queue.push(
            self.clock.now + duration, EventKind.JOB_FINISHED,
            job_id=jid, epoch=epoch,
        )
        self._running[jid] = _Slice(job, n_gpus, self.clock.now, epoch)
        self.log.append(
            self.clock.now, EventKind.JOB_STARTED, job_id=jid,
            user=job.user, model=job.model, n_gpus=n_gpus, resumed=resumed,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ClusterRuntime(policy={self.policy.name!r}, "
            f"running={len(self._running)}, pending={len(self._pending)}, "
            f"t={self.clock.now:.4g})"
        )
