"""Async execution driver: the scheduler keeps dispatching while jobs run.

:class:`AsyncClusterOracle` is the repo's one cluster substrate: it runs
a trainer through the event-driven :class:`ClusterRuntime`.
``run_concurrent`` drives a :class:`MultiTenantScheduler`'s pickers
directly, submitting new jobs whenever dispatch slots are free and
feeding observations back *in completion order* — which, under
concurrent placement policies, is not submission order.  That is the
regime where GREEDY/HYBRID user-picking meets genuine cluster
concurrency (queueing delay, out-of-order returns, stale confidence
bounds at dispatch time).  Under ``single`` placement the dispatch
window is one job, which is the paper's discipline: the whole pool
trains one model, the scheduler observes it, then picks again.

``observe`` satisfies the synchronous :class:`RewardOracle` contract
(submit one job, run the kernel until it completes), so the class
drops into :meth:`MultiTenantScheduler.run` and every harness built on
it.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.model_picking import ModelPicker
from repro.core.multitenant import MultiTenantScheduler, RunResult
from repro.core.oracles import Observation, RewardOracle
from repro.engine.clock import SimClock
from repro.engine.cluster import GPUPool
from repro.engine.events import EventKind, EventLog
from repro.engine.jobs import Job, JobState
from repro.engine.trainer import Trainer
from repro.runtime.kernel import ClusterRuntime
from repro.runtime.placement import PlacementPolicy


class AsyncClusterOracle(RewardOracle):
    """RewardOracle executing jobs on the event-driven runtime.

    Parameters
    ----------
    trainer:
        Produces ``(reward, gpu_time)`` pairs.  Training outcomes are
        computed at dispatch (trace-replay style) and revealed to the
        scheduler only when the simulated job completes.
    pool, policy, clock, log, preemption_overhead:
        Forwarded to the underlying :class:`ClusterRuntime`.
    max_in_flight:
        Dispatch-ahead window for ``run_concurrent`` (default: the
        policy's ``dispatch_window``, else one job per tenant, capped
        by pool size).
    """

    def __init__(
        self,
        trainer: Trainer,
        pool: Optional[GPUPool] = None,
        policy: Optional[PlacementPolicy] = None,
        *,
        clock: Optional[SimClock] = None,
        log: Optional[EventLog] = None,
        preemption_overhead: float = 0.0,
        max_in_flight: Optional[int] = None,
    ) -> None:
        self.trainer = trainer
        self.runtime = ClusterRuntime(
            pool, policy, clock=clock, log=log,
            preemption_overhead=preemption_overhead,
        )
        self.pool = self.runtime.pool
        self.clock = self.runtime.clock
        self.log = self.runtime.log
        if max_in_flight is not None and int(max_in_flight) < 1:
            raise ValueError(
                f"max_in_flight must be >= 1, got {max_in_flight}"
            )
        self.max_in_flight = (
            self.runtime.policy.dispatch_window
            if max_in_flight is None
            else int(max_in_flight)
        )
        #: Dispatches skipped because the picked tenant was busy.
        self.stalled_picks = 0
        # Membership wiring: while run_concurrent is live, kernel
        # USER_ARRIVED / USER_DEPARTED events call back into the
        # scheduler's registry through these hooks.
        self._membership_ctx: Optional[
            Tuple[MultiTenantScheduler, Optional[Callable[[int], ModelPicker]]]
        ] = None
        # Absorption observers: each completed job fed back into a
        # scheduler is announced here, *after* its StepRecord landed.
        # The durable control plane (repro.persist) journals these so
        # replay re-absorbs completions in the exact original order.
        self._absorb_callbacks: List[Callable[[Job], None]] = []
        self.runtime.on_arrival(self._handle_arrival)
        self.runtime.on_departure(self._handle_departure)

    # ------------------------------------------------------------------
    # Membership callbacks (fired by the kernel's event handlers)
    # ------------------------------------------------------------------
    def _handle_arrival(self, user: int) -> None:
        ctx = self._membership_ctx
        if ctx is None:
            return
        scheduler, picker_factory = ctx
        if scheduler.tenants.is_active(user):
            return
        if scheduler.tenants.is_known(user):
            scheduler.add_tenant(tenant_id=user)  # returning tenant
            return
        if picker_factory is None:
            raise RuntimeError(
                f"tenant {user} arrived but run_concurrent was given no "
                "picker_factory to build its model picker"
            )
        scheduler.add_tenant(picker_factory(user), tenant_id=user)

    def _handle_departure(self, user: int) -> None:
        ctx = self._membership_ctx
        if ctx is None:
            return
        scheduler, _ = ctx
        if scheduler.tenants.is_active(user):
            scheduler.retire_tenant(user)

    # ------------------------------------------------------------------
    # RewardOracle interface (one job per observe)
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return self.trainer.n_users

    def n_models(self, user: int) -> int:
        return self.trainer.n_models(user)

    def costs(self, user: int) -> np.ndarray:
        # Planning costs are profiled GPU-time under the full-pool
        # speedup (the single-device discipline).  Policies that
        # slice the pool change realised durations, not the (relative)
        # planning costs GP-UCB consumes.
        return self.trainer.expected_costs(user) / self.pool.speedup()

    def add_user(self, *args, **kwargs) -> int:
        """Grow the tenant set by delegating to the trainer's rows."""
        add = getattr(self.trainer, "add_user", None)
        if add is None:
            raise NotImplementedError(
                f"{type(self.trainer).__name__} cannot grow rows for "
                "late arrivals"
            )
        return add(*args, **kwargs)

    def observe(self, user: int, model: int) -> Observation:
        """Submit one job and run the kernel until it completes."""
        self._check_pair(user, model)
        job = self._train_and_submit(user, model)
        while job.state not in (JobState.FINISHED, JobState.FAILED):
            if not self.runtime.queue:
                raise RuntimeError(
                    f"runtime stalled before job {job.job_id} completed "
                    f"(policy {self.runtime.policy.name!r} never "
                    "allocated it devices)"
                )
            self.runtime.step()
        if job.state is JobState.FAILED:
            # Cancelled before completing (its tenant departed while it
            # was queued): the kernel logged JOB_FAILED; no model came
            # back, so the error propagates instead.
            raise RuntimeError(
                f"job {job.job_id} failed before completing: "
                f"{job.detail.get('failure_reason')}"
            )
        self.log.append(
            self.clock.now, EventKind.MODEL_RETURNED, user=user,
            model=model, reward=job.reward,
        )
        return Observation(float(job.reward), self._service_time(job))

    # ------------------------------------------------------------------
    # The concurrent driver
    # ------------------------------------------------------------------
    def run_concurrent(
        self,
        scheduler: MultiTenantScheduler,
        *,
        max_jobs: Optional[int] = None,
        cost_budget: Optional[float] = None,
        max_in_flight: Optional[int] = None,
        arrivals: Optional[Iterable] = None,
        picker_factory: Optional[Callable[[int], ModelPicker]] = None,
    ) -> RunResult:
        """Drive the scheduler with out-of-order completions and churn.

        Dispatch: while fewer than ``max_in_flight`` jobs are in
        flight (default: the oracle's ``max_in_flight``; one under
        ``single`` placement) and budgets permit, take a tenant and an
        arm from :meth:`MultiTenantScheduler.next_dispatch`, then
        submit the job to the runtime.  A tenant keeps at most one job
        in flight — if the picker selects a busy tenant, that pick is
        *deferred* by the scheduler (not discarded, so stateful pickers
        like ROUNDROBIN keep their documented sequence) and dispatch
        pauses until the next completion (counted in
        :attr:`stalled_picks`).

        Completion: each finished job is fed back exactly like a
        synchronous :meth:`MultiTenantScheduler.step` — picker
        observation, the Algorithm 2 line-6 recurrence, a
        :class:`StepRecord` (with the job's *service time* as cost) and
        the user picker's ``notify`` hook — but in completion order.

        Membership: ``arrivals`` is an optional schedule of tenant
        ``arrive`` / ``depart`` :class:`~repro.runtime.workload.
        WorkloadItem` entries (e.g. ``WorkloadTrace.membership()``);
        job submissions come from the live scheduler, never the trace.
        Each item is queued as a kernel ``USER_ARRIVED`` /
        ``USER_DEPARTED`` event at its trace time, and when the kernel
        processes it the membership flows back into the scheduler: an
        unknown arriving tenant is admitted with a picker from
        ``picker_factory(user)`` (a known retired one resumes with its
        history), and a departing tenant is retired — its queued jobs
        are cancelled by the kernel, its running jobs drain and are
        absorbed normally, and its share of the pool is released to the
        survivors at the next re-cut.  The run may even start with an
        empty active set; dispatch begins at the first arrival.

        ``max_jobs`` counts new dispatches in this call;
        ``cost_budget`` is an absolute ceiling on the scheduler's
        cumulative cost.  Membership events scheduled beyond the point
        where the budget runs out stay queued for a later call.
        Returns a :class:`RunResult` covering the records appended by
        this call.
        """
        if max_jobs is None and cost_budget is None:
            raise ValueError("provide max_jobs and/or cost_budget")
        if scheduler.oracle is not self:
            raise ValueError(
                "scheduler was built against a different oracle"
            )
        if arrivals is not None:
            for item in arrivals:
                if item.action == "submit":
                    raise ValueError(
                        "the arrivals schedule is membership-only; got a "
                        "'submit' item (pass trace.membership(), not the "
                        "full trace)"
                    )
                when = max(float(item.time), self.clock.now)
                if item.action == "arrive":
                    self.runtime.user_arrives(item.user, time=when)
                else:
                    self.runtime.user_departs(item.user, time=when)
        records_before = len(scheduler.records)
        window = (
            max_in_flight if max_in_flight is not None else self.max_in_flight
        )
        # tenant id -> (job, tenant, selection); a tenant has at most
        # one job in flight, so the keys are also the busy set.
        in_flight = {}
        dispatched = 0
        self._membership_ctx = (scheduler, picker_factory)
        try:
            while True:
                limit = window
                if limit is None:
                    limit = max(1, min(scheduler.n_users, self.pool.n_gpus))
                may_dispatch = (
                    len(in_flight) < limit
                    and (max_jobs is None or dispatched < max_jobs)
                    and (
                        cost_budget is None
                        or scheduler.total_cost < cost_budget
                    )
                )
                if may_dispatch and scheduler.n_users > 0:
                    picked = scheduler.next_dispatch(busy=in_flight)
                    if picked is not None:
                        tenant, selection = picked
                        job = self._train_and_submit(
                            tenant.index, selection.arm
                        )
                        in_flight[tenant.index] = (job, tenant, selection)
                        dispatched += 1
                        continue
                    # The picked tenant is busy: wait for a completion.
                    self.stalled_picks += 1
                if in_flight:
                    completed: List[Job] = []
                    freed = False
                    while self.runtime.queue and not completed and not freed:
                        completed = self.runtime.step()
                        # Drop jobs a departure cancelled; free slots.
                        for user, entry in list(in_flight.items()):
                            if entry[0].state is JobState.FAILED:
                                del in_flight[user]
                                freed = True
                    if not completed and not freed:
                        raise RuntimeError(
                            f"runtime stalled with {len(in_flight)} jobs "
                            f"in flight (policy "
                            f"{self.runtime.policy.name!r})"
                        )
                    for job in completed:
                        entry = in_flight.get(job.user)
                        if entry is not None and entry[0] is job:
                            del in_flight[job.user]
                            self.absorb(scheduler, *entry[1:], job)
                    continue
                if may_dispatch and self.runtime.queue:
                    # Window open but no active tenant (none arrived
                    # yet, or everybody left): advance to the next
                    # membership event.
                    self.runtime.step()
                    continue
                break
        finally:
            self._membership_ctx = None
        return RunResult(
            records=list(scheduler.records[records_before:]),
            n_users=scheduler.n_known,
        )

    def absorb(
        self,
        scheduler: MultiTenantScheduler,
        tenant,
        selection,
        job: Job,
    ) -> None:
        """Feed one completed job back into the scheduler state.

        :meth:`MultiTenantScheduler.complete` — what a synchronous
        ``step`` does after its oracle call — with the job's service
        time as cost, plus the ``MODEL_RETURNED`` event and the absorb
        callbacks.  External drivers (the service gateway) call this
        once per completion, in completion order.
        """
        scheduler.complete(
            tenant, selection, job.reward, self._service_time(job)
        )
        self.log.append(
            self.clock.now, EventKind.MODEL_RETURNED, user=tenant.index,
            model=selection.arm, reward=job.reward,
        )
        for callback in self._absorb_callbacks:
            callback(job)

    def on_absorb(self, callback: Callable[[Job], None]) -> None:
        """Register a callback fired after each completion is absorbed."""
        self._absorb_callbacks.append(callback)

    def _train_and_submit(self, user: int, model: int) -> Job:
        """Train one model and submit its job to the runtime.

        A training failure happens before any Job exists: it is logged
        as ``JOB_FAILED`` with ``job_id=None`` and propagates.
        """
        try:
            reward, gpu_time = self.trainer.train(user, model)
        except Exception as exc:
            self.log.append(
                self.clock.now, EventKind.JOB_FAILED, job_id=None,
                user=user, model=model, reason=str(exc),
            )
            raise
        return self.runtime.submit(user, model, gpu_time, reward)

    @staticmethod
    def _service_time(job: Job) -> float:
        """Wall-clock the job spent from first start to completion."""
        if job.start_time is None or job.end_time is None:
            return 0.0
        return float(job.end_time - job.start_time)

    def finished_jobs(self) -> List[Job]:
        return self.runtime.finished_jobs()
