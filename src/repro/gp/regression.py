"""Finite-arm Gaussian-process posterior with incremental updates.

This implements exactly lines 6–7 of Algorithm 1 in the paper: given a
prior covariance ``Σ`` over the K arms (candidate models) and noisy
observations ``y_{1:t}`` at arms ``a_{1:t}``,

.. math::

    \\mu_t(k)    &= \\Sigma_t(k)^T (\\Sigma_t + \\sigma^2 I)^{-1} y_{1:t} \\\\
    \\sigma_t^2(k) &= \\Sigma(k, k)
                    - \\Sigma_t(k)^T (\\Sigma_t + \\sigma^2 I)^{-1} \\Sigma_t(k)

An update extends a Cholesky factorisation of ``Σ_t + σ²I`` by one row
in O(tK), not the O(t³ + t²K) of a refit, and the state is O(tK): the
pivots (the factor's diagonal), ``V = L⁻¹ Σ_t(·)``, ``z = L⁻¹ (y − m(a))``
and two O(K) posterior accumulators.  The factor's off-diagonal is never
stored: its row ``t`` is ``L⁻¹ Σ_t(a_t)``, column ``a_t`` of ``V``, and
the log-likelihood reads only the pivots.  In capacity-doubling buffers
an update is a strided read plus a few vectorized dots — no triangular
solve, no per-element Python arithmetic, no reallocation on the hot
path.  Appending row ``t`` adds ``z_t·V_t`` to the mean accumulator and
``V_t²`` to the explained variance, so queries never re-reduce the
history.  :meth:`update_batch` is bit-identical to looping :meth:`update`.
``refit()`` recomputes everything from scratch through a different code
path (block Cholesky) and is used by the test suite to validate the
incremental path.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_matrix, check_positive

_LOG_2PI = math.log(2.0 * math.pi)

#: Initial capacity (rows) of the incremental buffers.
_MIN_CAPACITY = 16


class FiniteArmGP:
    """Gaussian-process belief over a finite set of arms.

    After t observations it holds O(tK) floats: the Cholesky pivots,
    ``V``, ``z`` and the history, never the (t, t) factor itself.

    Parameters
    ----------
    prior_cov:
        ``(K, K)`` symmetric positive semi-definite prior covariance
        between the arms (the paper's ``Σ``).
    prior_mean:
        Optional ``(K,)`` prior mean vector (the paper assumes ``μ = 0``
        as is conventional for GPs not conditioned on data).
    noise:
        Observation noise standard deviation ``σ`` (not variance).
    jitter:
        Numerical floor added when the incremental Cholesky pivot would
        otherwise be non-positive (repeated arms with tiny noise).
    """

    def __init__(
        self,
        prior_cov: np.ndarray,
        prior_mean: Optional[np.ndarray] = None,
        *,
        noise: float = 0.1,
        jitter: float = 1e-10,
    ) -> None:
        self._cov = check_matrix(prior_cov, "prior_cov", square=True)
        if not np.allclose(self._cov, self._cov.T, atol=1e-8):
            raise ValueError("prior_cov must be symmetric")
        self._n_arms = self._cov.shape[0]
        if prior_mean is None:
            self._prior_mean = np.zeros(self._n_arms)
        else:
            self._prior_mean = np.asarray(prior_mean, dtype=float)
            if self._prior_mean.shape != (self._n_arms,):
                raise ValueError(
                    f"prior_mean must have shape ({self._n_arms},), "
                    f"got {self._prior_mean.shape}"
                )
        self.noise = check_positive(noise, "noise")
        self.jitter = check_positive(jitter, "jitter")

        # Incremental state, stored in contiguous capacity-doubling
        # buffers whose first ``_t`` rows are live: ``pivots`` is the
        # diagonal of L, the lower Cholesky factor of (Σ_t + σ²I) (its
        # off-diagonal rows are columns of V and are never stored);
        # V = L⁻¹ Σ_t(·) is (t, K); z = L⁻¹ (y - m(a)); ``arms``/``y``
        # are the observation history.
        self._t = 0
        self._capacity = 0
        self._pivots = np.empty(0)
        self._V = np.empty((0, self._n_arms))
        self._z = np.empty(0)
        self._arms = np.empty(0, dtype=np.intp)
        self._y = np.empty(0)

        # Running posterior sufficient statistics: appending row t
        # changes the mean by z_t·V_t and the explained variance by
        # V_t², so both are maintained as O(K) accumulators instead of
        # re-reducing the whole (t, K) V matrix on every query.
        self._prior_var = np.ascontiguousarray(np.diag(self._cov))
        self._mean_acc = np.zeros(self._n_arms)
        self._explained_acc = np.zeros(self._n_arms)

        # Cached posterior (invalidated on update); the cached arrays
        # are handed out as read-only views, never copied.
        self._posterior_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_arms(self) -> int:
        """Number of arms K."""
        return self._n_arms

    @property
    def n_observations(self) -> int:
        """Number of observations incorporated so far (the paper's t)."""
        return self._t

    @property
    def observed_arms(self) -> Tuple[int, ...]:
        return tuple(int(a) for a in self._arms[: self._t])

    @property
    def observed_rewards(self) -> Tuple[float, ...]:
        return tuple(float(v) for v in self._y[: self._t])

    @property
    def prior_cov(self) -> np.ndarray:
        return self._cov.copy()

    def _check_arm(self, arm: int) -> int:
        arm = int(arm)
        if not 0 <= arm < self._n_arms:
            raise IndexError(f"arm {arm} out of range [0, {self._n_arms})")
        return arm

    # ------------------------------------------------------------------
    # Buffer management
    # ------------------------------------------------------------------
    def _reserve(self, rows: int) -> None:
        """Grow the incremental buffers to hold at least ``rows``."""
        if rows <= self._capacity:
            return
        capacity = max(_MIN_CAPACITY, self._capacity)
        while capacity < rows:
            capacity *= 2
        pivots = np.empty(capacity)
        V = np.empty((capacity, self._n_arms))
        z = np.empty(capacity)
        arms = np.empty(capacity, dtype=np.intp)
        y = np.empty(capacity)
        t = self._t
        if t:
            pivots[:t] = self._pivots[:t]
            V[:t] = self._V[:t]
            z[:t] = self._z[:t]
            arms[:t] = self._arms[:t]
            y[:t] = self._y[:t]
        self._pivots, self._V, self._z = pivots, V, z
        self._arms, self._y = arms, y
        self._capacity = capacity

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _append_row(self, arm: int, reward: float) -> None:
        """Extend the factorisation by one observation (O(tK)).

        The caller has already validated ``arm``/``reward`` and
        reserved capacity for the new row.
        """
        t = self._t
        # New column of (Σ_t + σ²I): covariance of the new point with
        # the already observed points, plus its own noisy variance.
        d = self._cov[arm, arm] + self.noise**2
        if t:
            # The forward-substitution solution w = L⁻¹ Σ_t(a_new) —
            # the new off-diagonal row of L — is column a_new of
            # V = L⁻¹ Σ_t(·), which the recurrence below already
            # maintains: a strided O(t) read replaces the O(t²)
            # triangular solve, and the row itself need not be kept.
            w = np.ascontiguousarray(self._V[:t, arm])
            pivot_sq = d - w @ w
        else:
            w = None
            pivot_sq = d
        pivot = math.sqrt(max(pivot_sq, self.jitter))

        self._pivots[t] = pivot
        if t:
            # V row: (Σ(a_new, ·) − wᵀ V) / pivot.
            self._V[t] = (self._cov[arm, :] - w @ self._V[:t]) / pivot
            # z entry: centred residual.
            resid = reward - self._prior_mean[arm]
            self._z[t] = (resid - w @ self._z[:t]) / pivot
        else:
            self._V[t] = self._cov[arm, :] / pivot
            self._z[t] = (reward - self._prior_mean[arm]) / pivot
        row = self._V[t]
        self._mean_acc += self._z[t] * row
        self._explained_acc += row * row
        self._arms[t] = arm
        self._y[t] = reward
        self._t = t + 1

    def update(self, arm: int, reward: float) -> None:
        """Incorporate one observation ``reward`` at ``arm`` (O(tK))."""
        arm = self._check_arm(arm)
        reward = float(reward)
        if not np.isfinite(reward):
            raise ValueError(f"reward must be finite, got {reward}")
        self._reserve(self._t + 1)
        self._append_row(arm, reward)
        self._posterior_cache = None

    def update_batch(
        self, arms: Sequence[int], rewards: Sequence[float]
    ) -> None:
        """Incorporate a block of observations in one call.

        Numerically **bit-identical** to calling :meth:`update` once
        per ``(arm, reward)`` pair — the same incremental kernel runs
        row by row — but the buffers are reserved once for the whole
        block, inputs are validated in bulk, and the posterior cache is
        invalidated once.
        """
        arms = np.asarray(arms, dtype=np.intp).ravel()
        rewards = np.asarray(rewards, dtype=float).ravel()
        if arms.shape != rewards.shape:
            raise ValueError(
                f"arms and rewards must have matching lengths, got "
                f"{arms.shape[0]} arms and {rewards.shape[0]} rewards"
            )
        if arms.size == 0:
            return
        if arms.min() < 0 or arms.max() >= self._n_arms:
            bad = arms[(arms < 0) | (arms >= self._n_arms)][0]
            raise IndexError(
                f"arm {int(bad)} out of range [0, {self._n_arms})"
            )
        if not np.all(np.isfinite(rewards)):
            bad = rewards[~np.isfinite(rewards)][0]
            raise ValueError(f"reward must be finite, got {bad}")
        self._reserve(self._t + arms.size)
        for arm, reward in zip(arms, rewards):
            self._append_row(int(arm), float(reward))
        self._posterior_cache = None

    # ------------------------------------------------------------------
    # Posterior queries
    # ------------------------------------------------------------------
    def posterior(self) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior ``(mean, variance)`` vectors over all K arms.

        Returns **read-only views** of the cached posterior (writing to
        them raises) so repeated queries between observations cost one
        attribute lookup, not an O(K) copy.  Callers that need a
        mutable array must copy explicitly.
        """
        if self._posterior_cache is None:
            mean = self._prior_mean + self._mean_acc
            variance = self._prior_var - self._explained_acc
            np.maximum(variance, 0.0, out=variance)
            mean.setflags(write=False)
            variance.setflags(write=False)
            self._posterior_cache = (mean, variance)
        return self._posterior_cache

    def posterior_mean(self, arm: Optional[int] = None):
        """Posterior mean for one arm, or the full (read-only) vector."""
        mean, _ = self.posterior()
        if arm is None:
            return mean
        return float(mean[self._check_arm(arm)])

    def posterior_variance(self, arm: Optional[int] = None):
        """Posterior variance for one arm, or the full (read-only) vector."""
        _, variance = self.posterior()
        if arm is None:
            return variance
        return float(variance[self._check_arm(arm)])

    def posterior_std(self, arm: Optional[int] = None):
        """Posterior standard deviation for one arm, or the full vector."""
        variance = self.posterior_variance(arm)
        return np.sqrt(variance)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def log_marginal_likelihood(self) -> float:
        """Log p(y | arms, Σ, σ) of the observations seen so far."""
        t = self._t
        if t == 0:
            return 0.0
        z = self._z[:t]
        log_det_half = float(np.sum(np.log(self._pivots[:t])))
        return float(-0.5 * (z @ z) - log_det_half - 0.5 * t * _LOG_2PI)

    def refit(self) -> "FiniteArmGP":
        """Fresh GP replaying the full history (numerical ground truth)."""
        # The only scipy call in the module; the serving path (update,
        # posterior) is numpy alone and must not pay for the import.
        from scipy.linalg import solve_triangular

        clone = FiniteArmGP(
            self._cov,
            self._prior_mean,
            noise=self.noise,
            jitter=self.jitter,
        )
        t = self._t
        if t:
            arms = self._arms[:t].copy()
            y = self._y[:t].copy()
            gram = self._cov[np.ix_(arms, arms)] + self.noise**2 * np.eye(t)
            L = np.linalg.cholesky(gram + self.jitter * np.eye(t))
            clone._reserve(t)
            clone._pivots[:t] = np.diag(L)
            clone._V[:t] = solve_triangular(
                L, self._cov[arms, :], lower=True
            )
            clone._z[:t] = solve_triangular(
                L, y - self._prior_mean[arms], lower=True
            )
            clone._mean_acc = clone._V[:t].T @ clone._z[:t]
            clone._explained_acc = np.einsum(
                "tk,tk->k", clone._V[:t], clone._V[:t]
            )
            clone._arms[:t] = arms
            clone._y[:t] = y
            clone._t = t
        return clone

    def copy(self) -> "FiniteArmGP":
        """Deep copy preserving the incremental state."""
        clone = FiniteArmGP(
            self._cov,
            self._prior_mean,
            noise=self.noise,
            jitter=self.jitter,
        )
        t = self._t
        if t:
            clone._reserve(t)
            clone._pivots[:t] = self._pivots[:t]
            clone._V[:t] = self._V[:t]
            clone._z[:t] = self._z[:t]
            clone._mean_acc = self._mean_acc.copy()
            clone._explained_acc = self._explained_acc.copy()
            clone._arms[:t] = self._arms[:t]
            clone._y[:t] = self._y[:t]
            clone._t = t
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FiniteArmGP(n_arms={self._n_arms}, "
            f"t={self.n_observations}, noise={self.noise:.4g})"
        )
