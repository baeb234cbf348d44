"""AsyncClusterOracle: sync fallback and genuinely concurrent runs."""

import numpy as np
import pytest

from repro.core.beta import AlgorithmOneBeta
from repro.core.model_picking import GPUCBPicker
from repro.core.multitenant import MultiTenantScheduler
from repro.core.user_picking import GreedyPicker, HybridPicker, RoundRobinPicker
from repro.datasets import generate_syn
from repro.engine.cluster import GPUPool
from repro.engine.events import EventKind
from repro.engine.trainer import TraceTrainer
from repro.gp.covariance import empirical_model_covariance
from repro.runtime.oracle import AsyncClusterOracle
from repro.runtime.placement import (
    DedicatedDevicePlacement,
    DynamicPartitionPlacement,
    SingleDevicePlacement,
)


@pytest.fixture
def dataset():
    return generate_syn(0.5, 1.0, n_users=6, n_models=8, seed=0)


def build(dataset, policy, **kwargs):
    oracle = AsyncClusterOracle(
        TraceTrainer(dataset, seed=0),
        GPUPool(4, scaling_efficiency=1.0),
        policy,
        **kwargs,
    )
    return oracle


def pickers_for(dataset, oracle):
    cov = empirical_model_covariance(dataset.quality)
    return [
        GPUCBPicker(
            cov, AlgorithmOneBeta(dataset.n_models), oracle.costs(i),
            noise=0.05,
        )
        for i in range(dataset.n_users)
    ]


class TestRewardOracleInterface:
    def test_shapes(self, dataset):
        oracle = build(dataset, SingleDevicePlacement())
        assert oracle.n_users == dataset.n_users
        assert oracle.n_models(0) == dataset.n_models
        assert oracle.costs(0).shape == (dataset.n_models,)

    def test_costs_use_full_pool_speedup(self, dataset):
        oracle = build(dataset, SingleDevicePlacement())
        np.testing.assert_allclose(
            oracle.costs(2), dataset.cost[2] / oracle.pool.speedup()
        )

    def test_observe_runs_job_synchronously(self, dataset):
        oracle = build(dataset, SingleDevicePlacement())
        observation = oracle.observe(1, 3)
        assert observation.reward == pytest.approx(dataset.quality[1, 3])
        # Single-device on a perfect 4-GPU pool: gpu_time / 4.
        assert observation.cost == pytest.approx(dataset.cost[1, 3] / 4.0)
        assert len(oracle.finished_jobs()) == 1
        assert oracle.log.filter(EventKind.MODEL_RETURNED)

    def test_clock_advances_per_job(self, dataset):
        oracle = build(dataset, SingleDevicePlacement())
        oracle.observe(0, 0)
        t1 = oracle.clock.now
        oracle.observe(1, 1)
        assert oracle.clock.now > t1

    def test_event_log_records_lifecycle(self, dataset):
        oracle = build(dataset, SingleDevicePlacement())
        oracle.observe(2, 1)
        assert [e.kind for e in oracle.log] == [
            EventKind.JOB_SUBMITTED,
            EventKind.JOB_STARTED,
            EventKind.JOB_FINISHED,
            EventKind.MODEL_RETURNED,
        ]

    def test_jobs_recorded_finished(self, dataset):
        oracle = build(dataset, SingleDevicePlacement())
        oracle.observe(0, 0)
        oracle.observe(1, 1)
        assert len(oracle.finished_jobs()) == 2
        job = oracle.finished_jobs()[0]
        assert job.user == 0
        assert job.reward == pytest.approx(dataset.quality[0, 0])

    def test_observe_on_cancelled_job_raises(self, dataset):
        # The job observe submits queues behind user 1's; user 0
        # departs before it starts, so the kernel cancels it.
        oracle = build(dataset, SingleDevicePlacement())
        oracle.runtime.submit(1, 0, gpu_time=1.0, reward=0.5)
        oracle.runtime.user_departs(0, time=0.01)
        with pytest.raises(RuntimeError, match="job 1 .*user departed"):
            oracle.observe(0, 1)
        assert oracle.runtime.jobs[1].state.value == "failed"
        assert len(oracle.log.filter(EventKind.JOB_FAILED)) == 1
        assert not oracle.log.filter(EventKind.MODEL_RETURNED)

    def test_observe_validates_pair(self, dataset):
        oracle = build(dataset, SingleDevicePlacement())
        with pytest.raises(IndexError):
            oracle.observe(99, 0)

    def test_failed_training_logged(self, dataset):
        class ExplodingTrainer(TraceTrainer):
            def train(self, user, model):
                raise RuntimeError("OOM")

        oracle = AsyncClusterOracle(
            ExplodingTrainer(dataset), GPUPool(4), SingleDevicePlacement()
        )
        with pytest.raises(RuntimeError, match="OOM"):
            oracle.observe(0, 0)
        failed = oracle.log.filter(EventKind.JOB_FAILED)
        assert len(failed) == 1
        assert failed[0].payload["reason"] == "OOM"
        # Uniform payload schema: job_id is present (None — the
        # failure precedes job creation).
        assert failed[0].payload["job_id"] is None


class TestRunConcurrent:
    def test_scheduler_keeps_dispatching(self, dataset):
        oracle = build(dataset, DedicatedDevicePlacement())
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), RoundRobinPicker()
        )
        result = oracle.run_concurrent(scheduler, max_jobs=24)
        assert result.n_steps == 24
        assert scheduler.step_count == 24
        # Dedicated placement on 4 GPUs with 6 users => genuinely
        # overlapping jobs: some job starts before an earlier one ends.
        jobs = oracle.finished_jobs()
        starts = sorted((j.start_time, j.end_time) for j in jobs)
        assert any(
            later_start < earlier_end
            for (_, earlier_end), (later_start, _) in zip(starts, starts[1:])
        )

    def test_out_of_order_completion_feeds_back(self, dataset):
        oracle = build(dataset, DedicatedDevicePlacement())
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), RoundRobinPicker()
        )
        oracle.run_concurrent(scheduler, max_jobs=12)
        # Records land in completion order: their costs differ from the
        # dispatch order's, so user order in records need not be
        # round-robin's 0..5 cycle.
        jobs = oracle.finished_jobs()
        completion_users = [
            j.user for j in sorted(jobs, key=lambda j: (j.end_time, j.job_id))
        ]
        recorded_users = [r.user for r in scheduler.records]
        assert recorded_users == completion_users

    def test_greedy_measured_under_concurrency(self, dataset):
        oracle = build(dataset, DynamicPartitionPlacement())
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), GreedyPicker(seed=0)
        )
        result = oracle.run_concurrent(scheduler, max_jobs=30)
        assert result.n_steps == 30
        # Warm-up must still reach every tenant.
        assert set(result.users()) == set(range(dataset.n_users))
        assert all(t.serves >= 1 for t in scheduler.tenants)

    def test_every_absorb_advances_the_decision_epoch(self, dataset):
        # Completions bypass scheduler.step(); they must reach the same
        # funnel, or GREEDY's candidate memo would answer from a stale
        # epoch under concurrency.
        oracle = build(dataset, DynamicPartitionPlacement())
        picker = GreedyPicker(seed=0)
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), picker
        )
        epochs = []

        def check(job):
            epochs.append(scheduler.decision_epoch)
            sigma = np.array([t.sigma_tilde for t in scheduler.tenants])
            finite = np.isfinite(sigma)
            expected = [
                t.index for t, s in zip(scheduler.tenants, sigma)
                if not np.isfinite(s) or s >= sigma[finite].mean()
            ]
            assert picker.candidate_set(scheduler) == expected

        oracle.on_absorb(check)
        oracle.run_concurrent(scheduler, max_jobs=30)
        assert len(epochs) == 30
        assert epochs == sorted(set(epochs))  # strictly increasing

    def test_hybrid_with_cost_budget(self, dataset):
        oracle = build(dataset, SingleDevicePlacement())
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), HybridPicker(seed=0)
        )
        result = oracle.run_concurrent(scheduler, cost_budget=2.0)
        assert result.n_steps >= 1
        assert scheduler.total_cost >= 2.0 or result.n_steps > 0

    def test_requires_budget(self, dataset):
        oracle = build(dataset, SingleDevicePlacement())
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), RoundRobinPicker()
        )
        with pytest.raises(ValueError, match="max_jobs"):
            oracle.run_concurrent(scheduler)

    def test_rejects_foreign_scheduler(self, dataset):
        oracle = build(dataset, SingleDevicePlacement())
        other = build(dataset, SingleDevicePlacement())
        scheduler = MultiTenantScheduler(
            other, pickers_for(dataset, other), RoundRobinPicker()
        )
        with pytest.raises(ValueError, match="different oracle"):
            oracle.run_concurrent(scheduler, max_jobs=1)

    def test_tenant_state_consistent_with_records(self, dataset):
        oracle = build(dataset, DynamicPartitionPlacement())
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), RoundRobinPicker()
        )
        oracle.run_concurrent(scheduler, max_jobs=18)
        serves = scheduler.tenants
        for user in range(dataset.n_users):
            user_records = [r for r in scheduler.records if r.user == user]
            assert serves[user].serves == len(user_records)
            if user_records:
                assert serves[user].best_observed == pytest.approx(
                    max(r.reward for r in user_records)
                )
        assert scheduler.total_cost == pytest.approx(
            sum(r.cost for r in scheduler.records)
        )

    def test_single_placement_keeps_one_job_in_flight(self, dataset):
        # Algorithm 2 as written: GREEDY picks, the whole pool trains,
        # the result is observed, and only then does GREEDY pick again.
        oracle = build(dataset, SingleDevicePlacement())
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), GreedyPicker(seed=0)
        )
        oracle.run_concurrent(scheduler, max_jobs=20)
        jobs = oracle.runtime.jobs
        assert len(jobs) == 20
        assert len({j.user for j in jobs}) >= 2
        for earlier, later in zip(jobs, jobs[1:]):
            assert later.submit_time >= earlier.end_time
        assert oracle.stalled_picks == 0

    def test_explicit_window_overrides_policy(self, dataset):
        oracle = build(dataset, SingleDevicePlacement(), max_in_flight=3)
        assert oracle.max_in_flight == 3
        assert build(dataset, SingleDevicePlacement()).max_in_flight == 1
        assert build(dataset, DynamicPartitionPlacement()).max_in_flight is None

    def test_invalid_max_in_flight(self, dataset):
        with pytest.raises(ValueError, match="max_in_flight"):
            build(dataset, SingleDevicePlacement(), max_in_flight=0)

    def test_stalled_picks_are_deferred_not_discarded(self, dataset):
        # ROUNDROBIN's contract is "user t mod n" in dispatch order;
        # a stalled pick must be reused once the tenant frees, not
        # thrown away (which would skew the rotation).
        oracle = build(dataset, SingleDevicePlacement(), max_in_flight=3)
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), RoundRobinPicker()
        )
        oracle.run_concurrent(scheduler, max_jobs=2 * dataset.n_users)
        dispatch_users = [j.user for j in oracle.runtime.jobs]
        expected = [
            t % dataset.n_users for t in range(2 * dataset.n_users)
        ]
        assert dispatch_users == expected


class TestOneDispatchSite:
    def test_failed_training_logged_under_run_concurrent(self, dataset):
        class ExplodingTrainer(TraceTrainer):
            def train(self, user, model):
                raise RuntimeError("OOM")

        oracle = AsyncClusterOracle(
            ExplodingTrainer(dataset), GPUPool(4), SingleDevicePlacement()
        )
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), RoundRobinPicker()
        )
        with pytest.raises(RuntimeError, match="OOM"):
            oracle.run_concurrent(scheduler, max_jobs=1)
        failed = oracle.log.filter(EventKind.JOB_FAILED)
        assert len(failed) == 1
        assert failed[0].payload["reason"] == "OOM"
        assert failed[0].payload["job_id"] is None
        assert failed[0].payload["user"] == 0  # ROUNDROBIN's first pick
        assert not oracle.runtime.jobs

    def test_deferred_pick_is_served_by_the_next_driver(self, dataset):
        # A budget-bounded concurrent run ends with a busy tenant's pick
        # deferred.  The deferral is the scheduler's, so the next
        # dispatch -- here a synchronous step() -- serves that tenant
        # without asking the user picker, and it is not replayed later.
        oracle = build(dataset, DynamicPartitionPlacement(), max_in_flight=4)
        scheduler = MultiTenantScheduler(
            oracle, pickers_for(dataset, oracle), GreedyPicker(seed=0)
        )
        picks = []
        pick = scheduler.user_picker.pick

        def recording_pick(sched):
            picks.append(pick(sched))
            return picks[-1]

        scheduler.user_picker.pick = recording_pick
        oracle.run_concurrent(scheduler, cost_budget=2.0)
        assert oracle.stalled_picks > 0
        n_picks = len(picks)
        assert scheduler.step().user == picks[-1]
        assert len(picks) == n_picks
        oracle.run_concurrent(scheduler, max_jobs=1)
        assert len(picks) == n_picks + 1
        assert oracle.runtime.jobs[-1].user == picks[-1]
