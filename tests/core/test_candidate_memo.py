"""The greedy candidate-set memo: coherent, counted, and cycle-free.

``GreedyPicker`` evaluates Algorithm 2 line 7 once per scheduler state
(``(decision_epoch, tenants.version)``) and HYBRID's freeze detector
shares that evaluation with the next pick.  These tests hold the memo
to a from-scratch recomputation under every mutation path, count the
evaluations, and guard the reference cycle that would leave stepped
schedulers to the cyclic GC.
"""

import gc
import math
import weakref

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.beta import AlgorithmOneBeta
from repro.core.model_picking import GPUCBPicker, Selection
from repro.core.multitenant import MultiTenantScheduler
from repro.core.oracles import MatrixOracle
from repro.core.user_picking import GreedyPicker, HybridPicker

N_ROWS, N_ARMS = 6, 4


def make_picker(seed=0):
    return GPUCBPicker(
        0.09 * np.eye(N_ARMS), AlgorithmOneBeta(N_ARMS), noise=0.05, seed=seed
    )


def make_sched(user_picker, initial=range(N_ROWS), *, seed=0):
    quality = np.random.default_rng(seed).uniform(0.2, 0.95, (N_ROWS, N_ARMS))
    oracle = MatrixOracle(quality, noise_std=0.05, seed=seed + 1)
    return MultiTenantScheduler(
        oracle, {i: make_picker(i) for i in initial}, user_picker
    )


def from_scratch(sched):
    """Line 7 recomputed from ``TenantState.sigma_tilde`` alone."""
    ids = sched.active_ids()
    sigma = [sched.tenants[i].sigma_tilde for i in ids]
    finite = [s for s in sigma if math.isfinite(s)]
    if not finite:
        return ids
    threshold = float(np.mean(finite))
    chosen = [
        i for i, s in zip(ids, sigma)
        if not math.isfinite(s) or s >= threshold
    ]
    return chosen or ids


def count_evaluations(sched):
    """Count ``sched.potentials()`` reads — only the memo's miss branch
    makes one — as the list of decision epochs they happened in."""
    calls = []
    original = sched.potentials

    def counted():
        calls.append(sched.decision_epoch)
        return original()

    sched.potentials = counted
    return calls


OPS = st.lists(
    st.tuples(
        st.sampled_from(["step", "add", "retire", "absorb", "read"]),
        st.integers(0, N_ROWS - 1),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=40,
)


class TestMemoCoherence:
    @settings(max_examples=60, deadline=None)
    @given(ops=OPS, hybrid=st.booleans())
    def test_memo_equals_recomputation_after_every_op(self, ops, hybrid):
        user_picker = HybridPicker(s=3) if hybrid else GreedyPicker()
        greedy = user_picker._greedy if hybrid else user_picker
        sched = make_sched(user_picker, initial=range(N_ROWS - 2))
        for op, tenant_id, value in ops:
            active = sched.tenants.is_active(tenant_id)
            if op == "step" and sched.n_users:
                sched.step()
            elif op == "add" and not active:
                # Brand-new ids need a picker; retired ones reactivate.
                known = sched.tenants.is_known(tenant_id)
                sched.add_tenant(
                    None if known else make_picker(tenant_id),
                    tenant_id=tenant_id,
                )
            elif op == "retire" and active:
                sched.retire_tenant(tenant_id)
            elif op == "absorb" and active:
                # Out of band: mutate the tenant, then tell the scheduler.
                sched.tenants[tenant_id].absorb(
                    Selection(0, value + 0.5, value, 0.1), value, 1.0
                )
                sched.invalidate_tenant(tenant_id)
            assert greedy.candidate_set(sched) == from_scratch(sched)
            # ... and a second read is the same memo entry.
            assert greedy._candidates(sched)[0] is greedy._candidates(sched)[0]
            # The registry's membership set tracks its sorted id list.
            assert [
                i for i in range(N_ROWS) if sched.tenants.is_active(i)
            ] == sched.active_ids()

    def test_memo_is_not_answered_by_another_scheduler(self):
        # Same shape, same number of state changes, different rewards: a
        # per-scheduler counter would give both the same key.
        greedy = GreedyPicker()
        seen = set()
        for seed in range(8):
            sched = make_sched(GreedyPicker(), seed=seed)
            sched.run(max_steps=12)
            assert greedy.candidate_set(sched) == from_scratch(sched)
            seen.add(tuple(from_scratch(sched)))
        assert len(seen) > 1, "scenario must produce differing sets"

    def test_equal_potentials_fall_back_to_everyone(self):
        # mean([0.1] * 3) rounds above 0.1: no tenant passes the filter.
        sched = make_sched(GreedyPicker(), initial=range(3))
        for tenant in sched.tenants:
            tenant.sigma_tilde = 0.1
            sched.invalidate_tenant(tenant.index)
        assert sched.user_picker.candidate_set(sched) == [0, 1, 2]


class TestEvaluationCount:
    def test_one_evaluation_per_epoch_and_none_after_freeze(self):
        picker = HybridPicker(s=5)
        sched = make_sched(picker)
        calls = count_evaluations(sched)
        switched_at = None
        for _ in range(300):
            sched.step()
            if picker.switched and switched_at is None:
                switched_at = len(calls)
        assert switched_at is not None, "scenario must reach the freeze"
        # Each state is evaluated at most once, shared by notify(t) and
        # pick(t + 1) ...
        assert len(calls) == len(set(calls))
        assert len(calls) <= sched.step_count
        # ... and a frozen HYBRID (ROUNDROBIN) never evaluates it again.
        assert len(calls) == switched_at
        assert sched.step_count - picker.switch_step > 50

    def test_greedy_pick_evaluates_once_per_step(self):
        picker = GreedyPicker()
        sched = make_sched(picker)
        calls = count_evaluations(sched)
        sched.run(max_steps=60)
        for _ in range(5):
            picker.candidate_set(sched)  # extra reads are free
        assert len(calls) == len(set(calls))
        assert len(calls) <= 60 - N_ROWS + 1  # warm-up picks skip line 7


class TestLifetime:
    def test_stepped_scheduler_is_freed_without_the_cyclic_gc(self):
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            sched = make_sched(HybridPicker(s=3))
            sched.run(max_steps=80)
            ref = weakref.ref(sched)
            del sched
            assert ref() is None, (
                "a reference cycle keeps a stepped scheduler alive; the "
                "candidate memo must hold arrays, not the scheduler"
            )
        finally:
            if was_enabled:
                gc.enable()
