"""Tests for the multi-tenant scheduler loop."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beta import AlgorithmOneBeta
from repro.core.model_picking import GPUCBPicker, Selection
from repro.core.multitenant import (
    MultiTenantScheduler,
    StepRecord,
    TenantState,
)
from repro.core.oracles import MatrixOracle
from repro.core.user_picking import RoundRobinPicker


def make_sched(quality, cost=None, *, noise_std=0.0, clamp=False):
    quality = np.asarray(quality, dtype=float)
    oracle = MatrixOracle(quality, cost, noise_std=noise_std, seed=0)
    n_users, n_models = quality.shape
    pickers = [
        GPUCBPicker(
            0.09 * np.eye(n_models),
            AlgorithmOneBeta(n_models),
            oracle.costs(i) if cost is not None else None,
            noise=0.05,
        )
        for i in range(n_users)
    ]
    return MultiTenantScheduler(
        oracle, pickers, RoundRobinPicker(), clamp_potential=clamp
    )


QUALITY = [[0.5, 0.9], [0.8, 0.4]]


class TestConstruction:
    def test_picker_count_validated(self):
        oracle = MatrixOracle(np.asarray(QUALITY, dtype=float))
        picker = GPUCBPicker(np.eye(2), AlgorithmOneBeta(2))
        with pytest.raises(ValueError, match="one picker per"):
            MultiTenantScheduler(oracle, [picker], RoundRobinPicker())

    def test_arm_count_validated(self):
        oracle = MatrixOracle(np.asarray(QUALITY, dtype=float))
        bad = GPUCBPicker(np.eye(3), AlgorithmOneBeta(3))
        good = GPUCBPicker(np.eye(2), AlgorithmOneBeta(2))
        with pytest.raises(ValueError, match="arms"):
            MultiTenantScheduler(oracle, [bad, good], RoundRobinPicker())


class TestStepAccounting:
    def test_exactly_one_user_per_step(self):
        sched = make_sched(QUALITY)
        record = sched.step()
        assert isinstance(record, StepRecord)
        assert sched.step_count == 1
        assert sum(t.serves for t in sched.tenants) == 1

    def test_cost_accounting_sums(self):
        cost = np.array([[1.0, 2.0], [3.0, 4.0]])
        sched = make_sched(QUALITY, cost)
        result = sched.run(max_steps=6)
        assert result.total_cost == pytest.approx(np.sum(result.costs()))
        assert sched.total_cost == pytest.approx(result.total_cost)

    def test_cumulative_cost_monotone(self):
        cost = np.array([[1.0, 2.0], [3.0, 4.0]])
        sched = make_sched(QUALITY, cost)
        result = sched.run(max_steps=8)
        cumulative = result.cumulative_costs()
        assert np.all(np.diff(cumulative) > 0)

    def test_records_match_tenant_state(self):
        sched = make_sched(QUALITY)
        result = sched.run(max_steps=6)
        serves = result.serves_per_user()
        for tenant in sched.tenants:
            assert tenant.serves == serves[tenant.index]

    def test_best_observed_tracks_maximum(self):
        sched = make_sched(QUALITY)
        sched.run(max_steps=10)
        for tenant in sched.tenants:
            assert tenant.best_observed == pytest.approx(
                max(tenant.rewards)
            )


class TestRunBudgets:
    def test_max_steps(self):
        sched = make_sched(QUALITY)
        result = sched.run(max_steps=5)
        assert result.n_steps == 5

    def test_cost_budget_overshoot_at_most_one_job(self):
        cost = np.full((2, 2), 2.0)
        sched = make_sched(QUALITY, cost)
        result = sched.run(cost_budget=5.0)
        assert result.total_cost >= 5.0
        assert result.total_cost <= 5.0 + 2.0

    def test_stop_predicate(self):
        sched = make_sched(QUALITY)
        result = sched.run(stop=lambda s: s.step_count >= 3)
        assert result.n_steps == 3

    def test_requires_some_budget(self):
        sched = make_sched(QUALITY)
        with pytest.raises(ValueError):
            sched.run()


class TestEmpiricalConfidenceRecurrence:
    """Algorithm 2 line 6: the σ̃ recurrence."""

    def make_tenant(self):
        picker = GPUCBPicker(
            0.09 * np.eye(2), AlgorithmOneBeta(2), noise=0.05
        )
        return TenantState(index=0, picker=picker, costs=np.ones(2))

    def test_first_serve_sets_bound(self):
        tenant = self.make_tenant()
        tenant.absorb(Selection(0, ucb_value=0.8, mean=0.4, std=0.2),
                      reward=0.5, cost=1.0)
        assert tenant.ecb_min == pytest.approx(0.8)
        assert tenant.sigma_tilde == pytest.approx(0.3)

    def test_running_minimum(self):
        tenant = self.make_tenant()
        tenant.absorb(Selection(0, 0.8, 0.4, 0.2), reward=0.5, cost=1.0)
        # A looser bound later does not raise the running minimum.
        tenant.absorb(Selection(1, 1.5, 0.4, 0.2), reward=0.6, cost=1.0)
        assert tenant.ecb_min == pytest.approx(0.8)
        assert tenant.sigma_tilde == pytest.approx(0.2)

    def test_tighter_bound_replaces(self):
        tenant = self.make_tenant()
        tenant.absorb(Selection(0, 0.8, 0.4, 0.2), reward=0.5, cost=1.0)
        tenant.absorb(Selection(1, 0.7, 0.4, 0.2), reward=0.6, cost=1.0)
        assert tenant.ecb_min == pytest.approx(0.7)
        assert tenant.sigma_tilde == pytest.approx(0.1)

    def test_unclamped_can_go_negative(self):
        tenant = self.make_tenant()
        tenant.absorb(Selection(0, 0.6, 0.4, 0.1), reward=0.9, cost=1.0,
                      clamp_potential=False)
        assert tenant.sigma_tilde == pytest.approx(-0.3)

    def test_clamped_stays_nonnegative(self):
        tenant = self.make_tenant()
        tenant.absorb(Selection(0, 0.6, 0.4, 0.1), reward=0.9, cost=1.0,
                      clamp_potential=True)
        assert tenant.sigma_tilde == 0.0
        assert tenant.ecb_min == pytest.approx(0.6)

    def test_infinite_bound_from_heuristic_picker(self):
        tenant = self.make_tenant()
        tenant.absorb(Selection(0, math.inf, math.nan, math.nan),
                      reward=0.7, cost=1.0)
        assert math.isinf(tenant.ecb_min)
        assert tenant.sigma_tilde == pytest.approx(0.3)  # 1 - reward

    def test_potential_gap(self):
        tenant = self.make_tenant()
        tenant.absorb(Selection(0, 0.9, 0.4, 0.2), reward=0.6, cost=1.0)
        expected = tenant.picker.best_ucb() - 0.6
        assert tenant.potential_gap() == pytest.approx(expected)


class TestRunResult:
    def test_arrays_consistent(self):
        sched = make_sched(QUALITY)
        result = sched.run(max_steps=7)
        assert len(result.users()) == 7
        assert len(result.arms()) == 7
        assert len(result.rewards()) == 7
        assert result.records[0].t == 1
        assert result.records[-1].t == 7

    def test_empty_result(self):
        sched = make_sched(QUALITY)
        result = sched.run(max_steps=0)
        assert result.n_steps == 0
        assert result.total_cost == 0.0

    @settings(max_examples=20, deadline=None)
    @given(steps=st.integers(1, 25))
    def test_property_conservation(self, steps):
        sched = make_sched(QUALITY)
        result = sched.run(max_steps=steps)
        # Every step serves exactly one user; serve counts sum to steps.
        assert int(np.sum(result.serves_per_user())) == steps
        # Rewards recorded by tenants match the run records.
        total_rewards = sum(len(t.rewards) for t in sched.tenants)
        assert total_rewards == steps


def make_picker(n_models=2, seed=None):
    return GPUCBPicker(
        0.09 * np.eye(n_models), AlgorithmOneBeta(n_models),
        noise=0.05, seed=seed,
    )


class TestDynamicMembership:
    """The tenant registry: stable ids, arrivals, retirements."""

    def test_subset_start_via_mapping(self):
        oracle = MatrixOracle(np.asarray(QUALITY, dtype=float))
        sched = MultiTenantScheduler(
            oracle, {1: make_picker()}, RoundRobinPicker()
        )
        assert sched.active_ids() == [1]
        record = sched.step()
        assert record.user == 1

    def test_add_tenant_joins_rotation(self):
        oracle = MatrixOracle(np.asarray(QUALITY, dtype=float))
        sched = MultiTenantScheduler(
            oracle, {0: make_picker()}, RoundRobinPicker()
        )
        sched.run(max_steps=2)
        sched.add_tenant(make_picker(), tenant_id=1)
        assert sched.active_ids() == [0, 1]
        result = sched.run(max_steps=6)
        assert set(result.users()) == {0, 1}

    def test_retire_tenant_preserves_history(self):
        sched = make_sched(QUALITY)
        sched.run(max_steps=4)
        state = sched.retire_tenant(0)
        assert state.serves == 2
        assert sched.active_ids() == [1]
        # Retired state stays reachable by id; records keep its rounds.
        assert sched.tenants[0].serves == 2
        result = sched.run(max_steps=8)
        assert all(r.user == 1 for r in sched.records[4:])
        assert result.serves_per_user()[0] == 2

    def test_reactivation_keeps_state(self):
        sched = make_sched(QUALITY)
        sched.run(max_steps=4)
        before = sched.tenants[0]
        sched.retire_tenant(0)
        state = sched.add_tenant(tenant_id=0)  # no picker: resume
        assert state is before
        assert state.serves == 2
        assert sched.active_ids() == [0, 1]

    def test_new_tenant_without_picker_rejected(self):
        oracle = MatrixOracle(np.asarray(QUALITY, dtype=float))
        sched = MultiTenantScheduler(
            oracle, {0: make_picker()}, RoundRobinPicker()
        )
        with pytest.raises(ValueError, match="picker is required"):
            sched.add_tenant(tenant_id=1)

    def test_add_without_oracle_row_rejected(self):
        sched = make_sched(QUALITY)
        with pytest.raises(ValueError, match="oracle row"):
            sched.add_tenant(make_picker(), tenant_id=5)

    def test_oracle_add_user_unlocks_new_id(self):
        quality = np.asarray(QUALITY, dtype=float)
        oracle = MatrixOracle(quality)
        sched = MultiTenantScheduler(
            oracle, [make_picker(), make_picker()], RoundRobinPicker()
        )
        new_id = oracle.add_user([0.3, 0.7])
        assert new_id == 2
        state = sched.add_tenant(make_picker())
        assert state.index == 2
        result = sched.run(max_steps=6)
        assert set(result.users()) == {0, 1, 2}

    def test_double_activation_rejected(self):
        sched = make_sched(QUALITY)
        with pytest.raises(ValueError, match="already active"):
            sched.add_tenant(make_picker(), tenant_id=0)

    def test_retire_unknown_rejected(self):
        sched = make_sched(QUALITY)
        with pytest.raises(KeyError):
            sched.retire_tenant(9)

    def test_step_with_no_active_tenants_rejected(self):
        sched = make_sched(QUALITY)
        sched.retire_tenant(0)
        sched.retire_tenant(1)
        with pytest.raises(RuntimeError, match="no active tenants"):
            sched.step()

    def test_busy_pick_is_deferred_to_the_next_dispatch(self):
        sched = make_sched(QUALITY)  # ROUNDROBIN: 0, 1, 0, ...
        assert sched.next_dispatch(busy={0}) is None
        assert sched.records == []
        assert sched.step().user == 0  # the deferred pick, not a new one
        assert sched.step().user == 1

    def test_departed_deferred_pick_is_dropped(self):
        sched = make_sched(QUALITY)
        assert sched.next_dispatch(busy={0}) is None
        sched.retire_tenant(0)
        tenant, selection = sched.next_dispatch()
        assert tenant.index == 1
        assert 0 <= selection.arm < 2

    def test_next_dispatch_rejects_inactive_pick(self):
        sched = make_sched(QUALITY)
        sched.user_picker.pick = lambda scheduler: 7
        with pytest.raises(IndexError, match="user picker returned 7"):
            sched.next_dispatch()

    def test_serves_per_user_sized_to_max_id(self):
        quality = np.asarray(QUALITY, dtype=float)
        oracle = MatrixOracle(quality)
        sched = MultiTenantScheduler(
            oracle, {1: make_picker()}, RoundRobinPicker()
        )
        result = sched.run(max_steps=3)
        counts = result.serves_per_user()
        assert counts.shape == (2,)
        assert counts[1] == 3
        assert result.serves_by_tenant() == {1: 3}

    def test_n_users_tracks_active_set(self):
        sched = make_sched(QUALITY)
        assert sched.n_users == 2
        sched.retire_tenant(1)
        assert sched.n_users == 1
        assert sched.n_known == 2


class TestTenantRegistry:
    def test_iteration_is_active_only_in_id_order(self):
        sched = make_sched(QUALITY)
        sched.retire_tenant(0)
        assert [t.index for t in sched.tenants] == [1]
        assert sched.tenants.known_ids() == [0, 1]
        assert [t.index for t in sched.tenants.all_states()] == [0, 1]

    def test_contains_means_active(self):
        sched = make_sched(QUALITY)
        assert 0 in sched.tenants
        sched.retire_tenant(0)
        assert 0 not in sched.tenants
        assert sched.tenants.is_known(0)

    def test_next_id_never_recycles(self):
        sched = make_sched(QUALITY)
        sched.retire_tenant(1)
        assert sched.tenants.next_id() == 2
