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
        # A busy-tenant pick deferred across run_concurrent calls, so
        # budget-bounded runs never drop a stateful picker's choice.
        self._deferred_user: Optional[int] = None
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
        try:
            reward, gpu_time = self.trainer.train(user, model)
        except Exception as exc:
            # Training is computed at dispatch, so the failure happens
            # before any Job exists; job_id is None (never absent) to
            # keep the JOB_FAILED payload schema uniform.
            self.log.append(
                self.clock.now, EventKind.JOB_FAILED, job_id=None,
                user=user, model=model, reason=str(exc),
            )
            raise
        job = self.runtime.submit(user, model, gpu_time, reward)
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
        ``single`` placement) and budgets permit, ask the
        user picker for a tenant
        and its model picker for an arm, then submit the job to the
        runtime.  A tenant keeps at most one job in flight — if the
        picker selects a busy tenant, that pick is *deferred* (not
        discarded, so stateful pickers like ROUNDROBIN keep their
        documented sequence) and dispatch pauses until the next
        completion (counted in :attr:`stalled_picks`).

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
        in_flight = {}  # job_id -> (tenant, selection)
        busy_users = set()
        dispatched = 0

        def window() -> int:
            if max_in_flight is not None:
                return max_in_flight
            if self.max_in_flight is not None:
                return self.max_in_flight
            return max(1, min(scheduler.n_users, self.pool.n_gpus))

        def may_dispatch() -> bool:
            if len(in_flight) >= window():
                return False
            if max_jobs is not None and dispatched >= max_jobs:
                return False
            if cost_budget is not None and (
                scheduler.total_cost >= cost_budget
            ):
                return False
            return True

        def scrub_cancelled() -> bool:
            """Drop in-flight jobs a departure cancelled; free slots."""
            cancelled = [
                jid for jid in in_flight
                if self.runtime.jobs[jid].state is JobState.FAILED
            ]
            for jid in cancelled:
                in_flight.pop(jid)
                busy_users.discard(self.runtime.jobs[jid].user)
            return bool(cancelled)

        self._membership_ctx = (scheduler, picker_factory)
        try:
            while True:
                while scheduler.n_users > 0 and may_dispatch():
                    if self._deferred_user is not None:
                        user, self._deferred_user = self._deferred_user, None
                        if not scheduler.tenants.is_active(user):
                            continue  # deferred tenant has departed
                    else:
                        user = scheduler.user_picker.pick(scheduler)
                    if not scheduler.tenants.is_active(user):
                        raise IndexError(
                            f"user picker returned {user}, which is not an "
                            f"active tenant (active: "
                            f"{scheduler.active_ids()})"
                        )
                    if user in busy_users:
                        self._deferred_user = user
                        self.stalled_picks += 1
                        break
                    tenant = scheduler.tenants[user]
                    selection = tenant.picker.select()
                    reward, gpu_time = self.trainer.train(
                        user, selection.arm
                    )
                    job = self.runtime.submit(
                        user, selection.arm, gpu_time, reward
                    )
                    in_flight[job.job_id] = (tenant, selection)
                    busy_users.add(user)
                    dispatched += 1
                if in_flight:
                    completed: List[Job] = []
                    freed = False
                    while self.runtime.queue and not completed and not freed:
                        completed = self.runtime.step()
                        freed = scrub_cancelled()
                    if not completed and not freed and in_flight:
                        raise RuntimeError(
                            f"runtime stalled with {len(in_flight)} jobs "
                            f"in flight (policy "
                            f"{self.runtime.policy.name!r})"
                        )
                    for job in completed:
                        if job.job_id not in in_flight:
                            continue
                        tenant, selection = in_flight.pop(job.job_id)
                        busy_users.discard(job.user)
                        self.absorb(scheduler, tenant, selection, job)
                    continue
                if (
                    may_dispatch()
                    and scheduler.n_users == 0
                    and self.runtime.queue
                ):
                    # Nobody to serve yet (or everybody left): advance
                    # to the next membership event.
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

    @staticmethod
    def _service_time(job: Job) -> float:
        """Wall-clock the job spent from first start to completion."""
        if job.start_time is None or job.end_time is None:
            return 0.0
        return float(job.end_time - job.start_time)

    def finished_jobs(self) -> List[Job]:
        return self.runtime.finished_jobs()
