"""Tests for the finite-arm GP posterior (Algorithm 1 lines 6–7)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gp.kernels import RBF, ConstantKernel
from repro.gp.covariance import covariance_from_features
from repro.gp.regression import _LOG_2PI, FiniteArmGP


def make_gp(n_arms=6, noise=0.1, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_arms, 3))
    cov = covariance_from_features(ConstantKernel(1.0) * RBF(1.5), X)
    return FiniteArmGP(cov, noise=noise), cov, rng


class TestConstruction:
    def test_prior_posterior_is_prior(self):
        gp, cov, _ = make_gp()
        mean, var = gp.posterior()
        assert np.allclose(mean, 0.0)
        assert np.allclose(var, np.diag(cov))

    def test_prior_mean_respected(self):
        cov = np.eye(3)
        gp = FiniteArmGP(cov, prior_mean=[0.5, 0.6, 0.7])
        assert gp.posterior_mean(1) == pytest.approx(0.6)

    def test_asymmetric_cov_rejected(self):
        bad = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            FiniteArmGP(bad)

    def test_wrong_mean_shape_rejected(self):
        with pytest.raises(ValueError, match="prior_mean"):
            FiniteArmGP(np.eye(3), prior_mean=[0.0, 1.0])

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            FiniteArmGP(np.ones((2, 3)))


class TestUpdates:
    def test_observation_count(self):
        gp, _, _ = make_gp()
        gp.update(0, 0.5)
        gp.update(3, 0.7)
        assert gp.n_observations == 2
        assert gp.observed_arms == (0, 3)
        assert gp.observed_rewards == (0.5, 0.7)

    def test_out_of_range_arm_rejected(self):
        gp, _, _ = make_gp(n_arms=4)
        with pytest.raises(IndexError):
            gp.update(4, 0.5)
        with pytest.raises(IndexError):
            gp.update(-1, 0.5)

    def test_nan_reward_rejected(self):
        gp, _, _ = make_gp()
        with pytest.raises(ValueError, match="finite"):
            gp.update(0, float("nan"))

    def test_observing_shrinks_variance(self):
        gp, cov, _ = make_gp()
        before = gp.posterior_variance(2)
        gp.update(2, 0.8)
        after = gp.posterior_variance(2)
        assert after < before

    def test_mean_moves_toward_observation(self):
        gp, _, _ = make_gp(noise=0.01)
        gp.update(1, 0.9)
        assert gp.posterior_mean(1) == pytest.approx(0.9, abs=0.05)

    def test_correlated_arm_learns_too(self):
        # Two identical feature rows => perfectly correlated arms.
        X = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 10.0]])
        cov = covariance_from_features(RBF(1.0), X)
        gp = FiniteArmGP(cov, noise=0.05)
        gp.update(0, 0.8)
        assert gp.posterior_mean(1) == pytest.approx(
            gp.posterior_mean(0), abs=1e-6
        )
        # The distant arm stays at the prior.
        assert abs(gp.posterior_mean(2)) < 0.05

    def test_repeated_arm_observations_stable(self):
        gp, _, _ = make_gp(noise=0.05)
        for _ in range(50):
            gp.update(0, 0.6)
        assert gp.posterior_mean(0) == pytest.approx(0.6, abs=0.01)
        assert np.isfinite(gp.posterior_variance()).all()


class TestIncrementalMatchesRefit:
    @pytest.mark.parametrize("noise", [0.01, 0.1, 0.5])
    def test_posterior_agreement(self, noise):
        gp, _, rng = make_gp(noise=noise, seed=3)
        for _ in range(40):
            gp.update(int(rng.integers(6)), float(rng.normal(0.5, 0.2)))
        ref = gp.refit()
        mean_a, var_a = gp.posterior()
        mean_b, var_b = ref.posterior()
        assert np.allclose(mean_a, mean_b, atol=1e-7)
        assert np.allclose(var_a, var_b, atol=1e-7)

    def test_lml_agreement(self):
        gp, _, rng = make_gp(seed=5)
        for _ in range(25):
            gp.update(int(rng.integers(6)), float(rng.normal()))
        assert gp.log_marginal_likelihood() == pytest.approx(
            gp.refit().log_marginal_likelihood(), rel=1e-7, abs=1e-4
        )

    @settings(max_examples=25, deadline=None)
    @given(
        arms=st.lists(st.integers(0, 4), min_size=1, max_size=30),
        seed=st.integers(0, 100),
    )
    def test_property_incremental_equals_refit(self, arms, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(5, 2))
        cov = covariance_from_features(RBF(1.0), X) + 0.01 * np.eye(5)
        gp = FiniteArmGP(cov, noise=0.1)
        for arm in arms:
            gp.update(arm, float(rng.normal()))
        ref = gp.refit()
        mean_a, var_a = gp.posterior()
        mean_b, var_b = ref.posterior()
        assert np.allclose(mean_a, mean_b, atol=1e-6)
        assert np.allclose(var_a, var_b, atol=1e-6)


class TestPosteriorProperties:
    def test_variance_never_negative(self):
        gp, _, rng = make_gp(noise=0.01, seed=9)
        for _ in range(80):
            gp.update(int(rng.integers(6)), float(rng.normal()))
        _, var = gp.posterior()
        assert np.all(var >= 0.0)

    def test_zero_noise_limit_interpolates(self):
        gp, _, _ = make_gp(noise=1e-4)
        gp.update(2, 0.73)
        assert gp.posterior_mean(2) == pytest.approx(0.73, abs=1e-3)
        assert gp.posterior_std(2) < 1e-2

    def test_copy_is_independent(self):
        gp, _, _ = make_gp()
        gp.update(0, 0.5)
        clone = gp.copy()
        clone.update(1, 0.9)
        assert gp.n_observations == 1
        assert clone.n_observations == 2
        assert gp.posterior_mean(1) != pytest.approx(
            clone.posterior_mean(1)
        )

    def test_posterior_returns_read_only_views(self):
        gp, _, _ = make_gp()
        mean, var = gp.posterior()
        with pytest.raises(ValueError):
            mean[:] = 99.0
        with pytest.raises(ValueError):
            var[:] = 99.0
        assert not np.allclose(gp.posterior_mean(), 99.0)

    def test_posterior_views_stay_valid_across_updates(self):
        gp, _, _ = make_gp()
        mean_before, _ = gp.posterior()
        snapshot = mean_before.copy()
        gp.update(1, 0.9)
        # The old view must not silently change under the caller.
        np.testing.assert_array_equal(mean_before, snapshot)

    def test_lml_empty_is_zero(self):
        gp, _, _ = make_gp()
        assert gp.log_marginal_likelihood() == 0.0


class TestAgainstClosedForm:
    def test_single_observation_closed_form(self):
        """One observation: posterior has the textbook 1-point form."""
        cov = np.array([[1.0, 0.6], [0.6, 1.0]])
        noise = 0.3
        gp = FiniteArmGP(cov, noise=noise)
        y = 0.8
        gp.update(0, y)
        denom = cov[0, 0] + noise**2
        assert gp.posterior_mean(0) == pytest.approx(
            cov[0, 0] / denom * y
        )
        assert gp.posterior_mean(1) == pytest.approx(
            cov[1, 0] / denom * y
        )
        assert gp.posterior_variance(1) == pytest.approx(
            cov[1, 1] - cov[1, 0] ** 2 / denom
        )


class TestUpdateBatch:
    """`update_batch` must be bit-identical to sequential `update`."""

    @staticmethod
    def _history(seed, n, n_arms=6):
        rng = np.random.default_rng(seed)
        arms = rng.integers(0, n_arms, size=n)
        rewards = rng.normal(scale=0.3, size=n)
        return arms, rewards

    def test_bit_identical_to_sequential_update(self):
        arms, rewards = self._history(seed=3, n=200)
        seq, _, _ = make_gp(seed=1)
        batch, _, _ = make_gp(seed=1)
        for a, r in zip(arms, rewards):
            seq.update(int(a), float(r))
        batch.update_batch(arms, rewards)
        np.testing.assert_array_equal(seq.posterior()[0], batch.posterior()[0])
        np.testing.assert_array_equal(seq.posterior()[1], batch.posterior()[1])
        assert seq.log_marginal_likelihood() == batch.log_marginal_likelihood()
        assert seq.observed_arms == batch.observed_arms
        assert seq.observed_rewards == batch.observed_rewards

    def test_chunked_batches_bit_identical(self):
        arms, rewards = self._history(seed=7, n=150)
        whole, _, _ = make_gp(seed=1)
        chunked, _, _ = make_gp(seed=1)
        whole.update_batch(arms, rewards)
        for start in range(0, 150, 40):
            chunked.update_batch(
                arms[start:start + 40], rewards[start:start + 40]
            )
        np.testing.assert_array_equal(
            whole.posterior()[0], chunked.posterior()[0]
        )
        np.testing.assert_array_equal(
            whole.posterior()[1], chunked.posterior()[1]
        )

    def test_empty_batch_is_noop(self):
        gp, _, _ = make_gp()
        gp.update(0, 0.4)
        mean_before = gp.posterior()[0].copy()
        gp.update_batch([], [])
        assert gp.n_observations == 1
        np.testing.assert_array_equal(gp.posterior()[0], mean_before)

    def test_batch_validates_before_mutating(self):
        gp, _, _ = make_gp()
        with pytest.raises(IndexError):
            gp.update_batch([0, 99], [0.1, 0.2])
        with pytest.raises(ValueError):
            gp.update_batch([0, 1], [0.1, float("nan")])
        with pytest.raises(ValueError, match="matching lengths"):
            gp.update_batch([0, 1], [0.1])
        assert gp.n_observations == 0


class TestLongHorizonParity:
    """Incremental Cholesky vs block refit at t >= 1000 (repeated arms,
    tiny noise) — the regime where per-row error accumulation would
    show up if the one-row extension drifted."""

    @pytest.mark.parametrize("n_arms", [8, 20])
    def test_incremental_matches_refit_at_t_1000(self, n_arms):
        rng = np.random.default_rng(42)
        base = rng.normal(size=(n_arms, n_arms))
        cov = base @ base.T / n_arms + 0.5 * np.eye(n_arms)
        gp = FiniteArmGP(cov, noise=1e-3)
        arms = rng.integers(0, n_arms, size=1000)
        rewards = rng.normal(scale=0.2, size=1000)
        gp.update_batch(arms, rewards)
        assert gp.n_observations == 1000

        ref = gp.refit()
        np.testing.assert_allclose(
            gp.posterior()[0], ref.posterior()[0], rtol=0, atol=1e-8
        )
        np.testing.assert_allclose(
            gp.posterior()[1], ref.posterior()[1], rtol=0, atol=1e-8
        )
        # refit() regularises the whole Gram diagonal with jitter while
        # the incremental path only floors degenerate pivots, so the
        # (huge, ~1e7) log-likelihoods agree in relative terms only.
        assert gp.log_marginal_likelihood() == pytest.approx(
            ref.log_marginal_likelihood(), rel=1e-3
        )


class _FullFactorGP:
    """The same one-row extension, keeping the whole (t, t) factor L."""

    def __init__(self, cov, noise, n, jitter=1e-10):
        self.cov, self.noise, self.jitter, self.t = cov, noise, jitter, 0
        self.L = np.zeros((n, n))
        self.V = np.empty((n, cov.shape[0]))
        self.z = np.empty(n)
        self.mean_acc = np.zeros(cov.shape[0])
        self.explained_acc = np.zeros(cov.shape[0])

    def update(self, arm, reward):
        t, L, V, z = self.t, self.L, self.V, self.z
        w = np.ascontiguousarray(V[:t, arm])
        pivot_sq = self.cov[arm, arm] + self.noise**2
        if t:
            pivot_sq -= w @ w
        L[t, t] = pivot = math.sqrt(max(pivot_sq, self.jitter))
        L[t, :t] = w
        if t:
            V[t] = (self.cov[arm, :] - w @ V[:t]) / pivot
            z[t] = (reward - w @ z[:t]) / pivot
        else:
            V[t] = self.cov[arm, :] / pivot
            z[t] = reward / pivot
        self.mean_acc += z[t] * V[t]
        self.explained_acc += V[t] * V[t]
        self.t = t + 1

    def posterior(self):
        variance = np.diag(self.cov) - self.explained_acc
        return self.mean_acc.copy(), np.maximum(variance, 0.0)

    def log_marginal_likelihood(self):
        t, z = self.t, self.z[: self.t]
        log_det_half = float(np.sum(np.log(np.diag(self.L[:t, :t]))))
        return float(-0.5 * (z @ z) - log_det_half - 0.5 * t * _LOG_2PI)


class TestPivotsOnly:
    """The GP keeps the factor's diagonal only; nothing it computes may
    differ from keeping the whole factor, and its memory is O(tK)."""

    def test_bit_identical_to_full_factor(self):
        gp, cov, rng = make_gp(n_arms=6, seed=11)
        ref = _FullFactorGP(cov, gp.noise, n=500)
        arms = rng.integers(0, 6, size=500)
        rewards = rng.normal(scale=0.3, size=500)
        # One-at-a-time updates up to t = 200, then chunked batches of
        # uneven sizes: the capacity doubles 16 -> 32 -> ... -> 512.
        bounds = list(range(0, 201)) + [237, 256, 300, 411, 500]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi - lo == 1:
                gp.update(int(arms[lo]), float(rewards[lo]))
            else:
                gp.update_batch(arms[lo:hi], rewards[lo:hi])
            for a, r in zip(arms[lo:hi], rewards[lo:hi]):
                ref.update(int(a), float(r))
            t = gp.n_observations
            assert t == ref.t == hi
            for mine, theirs in zip(gp.posterior(), ref.posterior()):
                assert np.array_equal(mine, theirs)
            assert np.array_equal(gp._V[:t], ref.V[:t])
            assert np.array_equal(gp._z[:t], ref.z[:t])
            assert np.array_equal(gp._pivots[:t], np.diag(ref.L[:t, :t]))
            assert gp.log_marginal_likelihood() == (
                ref.log_marginal_likelihood()
            )
        assert gp._capacity == 512
        # Every off-diagonal row of the factor is a column of V.
        for t in range(1, 500):
            assert np.array_equal(ref.L[t, :t], gp._V[:t, arms[t]])

    def test_memory_is_linear_in_t_and_copy_keeps_the_likelihood(self):
        gp, _, rng = make_gp(n_arms=4, seed=5)
        arms = rng.integers(0, 4, size=700)
        rewards = rng.normal(scale=0.3, size=700)
        for a, r in zip(arms[:600], rewards[:600]):
            gp.update(int(a), float(r))
        held = sum(
            v.nbytes for v in vars(gp).values() if isinstance(v, np.ndarray)
        )
        # A (capacity, capacity) factor would be 8 MiB at capacity 1024.
        assert held < 256 * 1024
        clone = gp.copy()
        assert clone.log_marginal_likelihood() == gp.log_marginal_likelihood()
        for a, r in zip(arms[600:], rewards[600:]):
            gp.update(int(a), float(r))
            clone.update(int(a), float(r))
        for mine, theirs in zip(gp.posterior(), clone.posterior()):
            assert np.array_equal(mine, theirs)
        assert clone.log_marginal_likelihood() == gp.log_marginal_likelihood()
