"""Tests for the GP-EI / GP-PI model pickers (§4.5 future work)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.acquisitions import GPEIPicker, GPPIPicker
from repro.core.multitenant import MultiTenantScheduler
from repro.core.oracles import MatrixOracle
from repro.core.user_picking import GreedyPicker, HybridPicker


PICKER_CLASSES = [GPEIPicker, GPPIPicker]


def make_picker(cls, n_arms=5, costs=None, **kwargs):
    return cls(0.09 * np.eye(n_arms), costs, noise=0.05, **kwargs)


@pytest.mark.parametrize("cls", PICKER_CLASSES, ids=lambda c: c.__name__)
class TestAcquisitionPickers:
    def test_selection_interface(self, cls):
        picker = make_picker(cls)
        sel = picker.select()
        assert 0 <= sel.arm < 5
        assert math.isfinite(sel.ucb_value)
        assert sel.ucb_value >= sel.mean

    def test_finds_best_arm(self, cls, rng):
        means = np.array([0.3, 0.5, 0.9, 0.4, 0.6])
        picker = make_picker(cls)
        for _ in range(60):
            sel = picker.select()
            picker.observe(sel.arm, means[sel.arm] + 0.03 * rng.normal())
        assert picker.best_observed > 0.85

    def test_cost_scaling_prefers_cheap(self, cls):
        costs = np.array([1.0, 1.0, 1.0, 1.0, 500.0])
        picker = make_picker(cls, costs=costs)
        picker.observe(0, 0.5)  # give the acquisition a baseline
        for _ in range(5):
            assert picker.select().arm != 4

    def test_best_observed_tracking(self, cls):
        picker = make_picker(cls)
        assert picker.best_observed == 0.0
        picker.observe(1, 0.4)
        picker.observe(2, 0.7)
        assert picker.best_observed == 0.7

    def test_cost_validation(self, cls):
        with pytest.raises(ValueError, match="positive"):
            make_picker(cls, costs=np.array([1.0, 0.0, 1.0, 1.0, 1.0]))
        with pytest.raises(ValueError, match="shape"):
            make_picker(cls, costs=np.array([1.0]))
        with pytest.raises(ValueError, match="xi"):
            make_picker(cls, xi=-0.1)

    def test_composes_with_greedy_user_picking(self, cls):
        """The §4.5 integration: acquisition pickers run under the
        multi-tenant GREEDY/HYBRID user-picking phase unchanged."""
        quality = np.array(
            [[0.4, 0.9, 0.5], [0.8, 0.3, 0.6], [0.2, 0.5, 0.95]]
        )
        oracle = MatrixOracle(quality, noise_std=0.02, seed=0)
        pickers = [make_picker(cls, n_arms=3) for _ in range(3)]
        sched = MultiTenantScheduler(oracle, pickers, HybridPicker())
        result = sched.run(max_steps=18)
        assert result.n_steps == 18
        for user in range(3):
            rewards = [
                r.reward for r in result.records if r.user == user
            ]
            assert rewards, f"user {user} never served"
            assert max(rewards) > 0.3


class TestAcquisitionValues:
    def test_ei_collapses_on_saturated_arm(self):
        picker = GPEIPicker(
            0.09 * np.eye(2),
            noise=0.05,
            prior_mean=np.array([0.9, 0.9]),
        )
        # Saturate arm 0 at a high value: its variance collapses, so
        # its headroom over the best observation vanishes, while the
        # untouched arm keeps both prior mean and prior variance.
        for _ in range(30):
            picker.observe(0, 0.99)
        ei = picker._acquisition()
        assert ei[0] < ei[1]

    def test_pi_is_probability(self):
        picker = make_picker(GPPIPicker, n_arms=4)
        picker.observe(0, 0.5)
        pi = picker._acquisition()
        assert np.all((pi >= 0.0) & (pi <= 1.0))

    def test_xi_raises_exploration_bar(self):
        eager = make_picker(GPPIPicker, n_arms=2, xi=0.0)
        picky = make_picker(GPPIPicker, n_arms=2, xi=0.3)
        for picker in (eager, picky):
            picker.observe(0, 0.5)
        assert np.all(
            picky._acquisition() <= eager._acquisition() + 1e-12
        )


@st.composite
def posteriors(draw):
    """(mean, variance, best, xi): K arms, some with std → 0, some
    pushed far enough from ``best`` that |z| > 8."""
    k = draw(st.integers(1, 8))
    finite = dict(allow_nan=False, allow_infinity=False)
    mean = draw(st.lists(st.floats(-2.0, 2.0, **finite), min_size=k, max_size=k))
    variance = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, 1e-300, 1e-18, 1e-12]),
                st.floats(0.0, 1.0, **finite),
            ),
            min_size=k, max_size=k,
        )
    )
    best = draw(st.floats(-2.0, 2.0, **finite))
    xi = draw(st.sampled_from([0.0, 0.01, 0.3]))
    return np.array(mean), np.array(variance), best, xi


@pytest.mark.parametrize("cls", PICKER_CLASSES, ids=lambda c: c.__name__)
@settings(deadline=None, max_examples=200)
@given(drawn=posteriors())
def test_acquisition_is_bit_equal_to_scipy_stats_norm(cls, drawn):
    """Φ and φ come from ``scipy.special.ndtr`` and a closed form, not
    ``scipy.stats`` (kept off the import path); the values must be the
    ones ``norm.cdf`` / ``norm.pdf`` gave, to the last bit."""
    from scipy.stats import norm

    mean, variance, best, xi = drawn
    picker = make_picker(cls, n_arms=mean.shape[0], xi=xi)
    picker.gp.posterior = lambda: (mean, variance)
    picker._rewards = [best]
    std = np.sqrt(np.maximum(variance, 1e-18))
    z = (mean - best - xi) / std
    if cls is GPEIPicker:
        expected = np.maximum(
            (mean - best - xi) * norm.cdf(z) + std * norm.pdf(z), 0.0
        )
    else:
        expected = norm.cdf(z)
    assert np.array_equal(picker._acquisition(), expected)
