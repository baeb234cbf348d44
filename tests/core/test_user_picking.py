"""Tests for user-picking policies (FCFS, RR, RANDOM, GREEDY, HYBRID)."""

import numpy as np
import pytest

from repro.core.beta import AlgorithmOneBeta
from repro.core.model_picking import GPUCBPicker
from repro.core.multitenant import MultiTenantScheduler
from repro.core.oracles import MatrixOracle
from repro.core.user_picking import (
    FCFSPicker,
    GreedyPicker,
    HybridPicker,
    RandomUserPicker,
    RoundRobinPicker,
)


def make_scheduler(quality, picker, *, noise_std=0.0, seed=0,
                   clamp=False):
    quality = np.asarray(quality, dtype=float)
    oracle = MatrixOracle(quality, noise_std=noise_std, seed=seed)
    n_users, n_models = quality.shape
    pickers = [
        GPUCBPicker(
            0.09 * np.eye(n_models),
            AlgorithmOneBeta(n_models),
            noise=0.05,
            seed=i,
        )
        for i in range(n_users)
    ]
    return MultiTenantScheduler(oracle, pickers, picker,
                                clamp_potential=clamp)


QUALITY = [
    [0.5, 0.9, 0.6],
    [0.8, 0.4, 0.7],
    [0.3, 0.5, 0.95],
]


class TestRoundRobin:
    def test_cycles_in_order(self):
        sched = make_scheduler(QUALITY, RoundRobinPicker())
        result = sched.run(max_steps=7)
        assert list(result.users()) == [0, 1, 2, 0, 1, 2, 0]

    def test_serves_equally(self):
        sched = make_scheduler(QUALITY, RoundRobinPicker())
        result = sched.run(max_steps=9)
        assert list(result.serves_per_user()) == [3, 3, 3]


class TestRandomUser:
    def test_covers_all_users(self):
        sched = make_scheduler(QUALITY, RandomUserPicker(seed=0))
        result = sched.run(max_steps=60)
        assert set(result.users()) == {0, 1, 2}

    def test_seeded(self):
        a = make_scheduler(QUALITY, RandomUserPicker(seed=3)).run(
            max_steps=10
        )
        b = make_scheduler(QUALITY, RandomUserPicker(seed=3)).run(
            max_steps=10
        )
        assert list(a.users()) == list(b.users())


class TestFCFS:
    def test_serves_first_user_until_exhausted(self):
        sched = make_scheduler(QUALITY, FCFSPicker())
        result = sched.run(max_steps=6)
        users = list(result.users())
        # 3 models per user: user 0 occupies the first 3 rounds.
        assert users[:3] == [0, 0, 0]
        assert users[3:6] == [1, 1, 1]

    def test_cycles_after_everyone_exhausted(self):
        sched = make_scheduler(QUALITY, FCFSPicker())
        result = sched.run(max_steps=12)
        assert set(result.users()[9:]) <= {0, 1, 2}


class TestGreedy:
    def test_warmup_serves_everyone_once_first(self):
        sched = make_scheduler(QUALITY, GreedyPicker())
        result = sched.run(max_steps=3)
        assert sorted(result.users()) == [0, 1, 2]

    def test_candidate_set_above_average(self):
        sched = make_scheduler(QUALITY, GreedyPicker())
        sched.run(max_steps=3)
        picker = sched.user_picker
        candidates = picker.candidate_set(sched)
        potentials = sched.potentials()
        threshold = np.mean(potentials[np.isfinite(potentials)])
        for i in candidates:
            assert potentials[i] >= threshold or not np.isfinite(
                potentials[i]
            )

    def test_rules_accepted(self):
        for rule in ("max_gap", "max_potential", "random"):
            sched = make_scheduler(QUALITY, GreedyPicker(rule, seed=0))
            sched.run(max_steps=6)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="rule"):
            GreedyPicker("fanciest")

    def test_prioritizes_user_with_room_to_improve(self):
        # User 0 has a flat landscape (no potential); user 1 has a big
        # spread.  After warm-up greedy should lean toward user 1.
        quality = [
            [0.70, 0.70, 0.70, 0.70],
            [0.10, 0.30, 0.60, 0.95],
        ]
        sched = make_scheduler(quality, GreedyPicker(), noise_std=0.0)
        result = sched.run(max_steps=8)
        serves = result.serves_per_user()
        assert serves[1] >= serves[0]


class TestHybrid:
    def test_behaves_like_greedy_before_switch(self):
        g = make_scheduler(QUALITY, GreedyPicker())
        h = make_scheduler(QUALITY, HybridPicker(s=10**6))
        ru = g.run(max_steps=6).users()
        hu = h.run(max_steps=6).users()
        assert list(ru) == list(hu)

    def test_switches_to_round_robin_when_frozen(self):
        # Noiseless flat rewards freeze the candidate set quickly.
        quality = [[0.5] * 3, [0.5] * 3, [0.5] * 3]
        picker = HybridPicker(s=4)
        sched = make_scheduler(quality, picker)
        sched.run(max_steps=25)
        assert picker.switched
        assert picker.switch_step is not None
        # Post-switch serves follow the round-robin pattern.
        post = [r.user for r in sched.records if r.t > picker.switch_step]
        if len(post) >= 3:
            expected = [(post[0] + k) % 3 for k in range(len(post))]
            assert post == expected

    def test_progress_resets_stall_counter(self):
        quality = [
            [0.2, 0.4, 0.6, 0.8, 0.9, 0.95],
            [0.1, 0.3, 0.5, 0.7, 0.85, 0.9],
        ]
        picker = HybridPicker(s=50)
        sched = make_scheduler(quality, picker, noise_std=0.01, seed=1)
        sched.run(max_steps=10)
        assert not picker.switched

    def test_reset_clears_state(self):
        picker = HybridPicker(s=2)
        sched = make_scheduler([[0.5] * 2] * 2, picker)
        sched.run(max_steps=10)
        assert picker.switched
        # Attaching to a new scheduler resets the freeze detector.
        make_scheduler([[0.5] * 2] * 2, picker)
        assert not picker.switched

    def test_frozen_detector_is_inert_until_an_arrival(self):
        # The paper switches once: after the freeze, notify() touches
        # nothing, and renewed progress does not switch back.
        picker = HybridPicker(s=2)
        sched = make_scheduler([[0.5, 0.9]] * 2, picker, noise_std=0.05)
        sched.run(max_steps=40)
        assert picker.switched
        frozen = (picker.switch_step, picker._stall_rounds,
                  picker._last_candidates, picker._last_progress)
        sched.run(max_steps=60)
        assert picker.switched
        assert frozen == (picker.switch_step, picker._stall_rounds,
                          picker._last_candidates, picker._last_progress)
        with pytest.raises(TypeError):
            HybridPicker(allow_reentry=True)

    def test_invalid_s_rejected(self):
        with pytest.raises(ValueError):
            HybridPicker(s=0)


class TestMembershipChurn:
    """Pickers range over the live active set, not range(n_users)."""

    def test_round_robin_skips_retired(self):
        sched = make_scheduler(QUALITY, RoundRobinPicker())
        sched.run(max_steps=3)
        sched.retire_tenant(1)
        result = sched.run(max_steps=7)
        assert set(result.users()[3:]) == {0, 2}

    def test_round_robin_includes_arrival(self):
        sched = make_scheduler(QUALITY, RoundRobinPicker())
        sched.run(max_steps=3)
        sched.oracle.add_user([0.2, 0.5, 0.9])
        sched.add_tenant(
            GPUCBPicker(
                0.09 * np.eye(3), AlgorithmOneBeta(3), noise=0.05, seed=9
            )
        )
        result = sched.run(max_steps=11)
        assert 3 in set(result.users())

    def test_random_only_picks_active(self):
        sched = make_scheduler(QUALITY, RandomUserPicker(seed=0))
        sched.retire_tenant(0)
        result = sched.run(max_steps=40)
        assert set(result.users()) == {1, 2}

    def test_fcfs_survives_departure_of_current(self):
        sched = make_scheduler(QUALITY, FCFSPicker())
        sched.run(max_steps=2)  # serving tenant 0
        sched.retire_tenant(0)
        result = sched.run(max_steps=5)
        assert set(result.users()[2:]) <= {1, 2}

    def test_greedy_warm_starts_arrival(self):
        sched = make_scheduler(QUALITY, GreedyPicker())
        sched.run(max_steps=6)
        sched.oracle.add_user([0.1, 0.5, 0.8])
        sched.add_tenant(
            GPUCBPicker(
                0.09 * np.eye(3), AlgorithmOneBeta(3), noise=0.05, seed=4
            )
        )
        # The newcomer has never been served: warm-up picks it next.
        assert sched.step().user == 3

    def test_hybrid_reenters_greedy_on_arrival(self):
        quality = [[0.5] * 3, [0.5] * 3, [0.5] * 3]
        picker = HybridPicker(s=4)
        sched = make_scheduler(quality, picker)
        sched.run(max_steps=20)
        assert picker.switched
        sched.oracle.add_user([0.2, 0.9, 0.4])
        sched.add_tenant(
            GPUCBPicker(
                0.09 * np.eye(3), AlgorithmOneBeta(3), noise=0.05, seed=5
            )
        )
        assert not picker.switched  # newcomer gets an exploration phase
        assert sched.step().user == 3  # greedy warm-up serves it first

    def test_candidate_set_uses_stable_ids(self):
        sched = make_scheduler(QUALITY, GreedyPicker())
        sched.run(max_steps=6)
        sched.retire_tenant(0)
        picker = sched.user_picker
        candidates = picker.candidate_set(sched)
        assert candidates
        assert set(candidates) <= {1, 2}
