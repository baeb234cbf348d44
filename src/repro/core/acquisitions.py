"""GP-EI and GP-PI model pickers (the paper's §4.5 future work).

Section 4.5: "our analysis focuses on GP-UCB and it is not clear how
to integrate other algorithms such as GP-EI [32] and GP-PI [25] into a
multi-tenant framework."  This module supplies that integration at the
*mechanism* level: both acquisitions implement the same
:class:`~repro.core.model_picking.ModelPicker` interface, so every
user-picking strategy (including GREEDY/HYBRID) composes with them
unchanged — the :class:`Selection`'s ``ucb_value`` reports a UCB-style
optimistic bound so the Algorithm 2 σ̃ recurrence keeps working.  No
regret bound is claimed (that remains open, as the paper says).

Acquisitions, with ``z = (μ(k) − y⁺ − ξ) / σ(k)`` and ``y⁺`` the best
observed reward:

* expected improvement  ``EI(k) = (μ − y⁺ − ξ)Φ(z) + σφ(z)``;
* probability of improvement  ``PI(k) = Φ(z)``.

Cost-awareness divides the acquisition by ``c_k`` (EI per unit cost),
the standard practical recipe the paper cites from Snoek et al.

``Φ`` and ``φ`` are computed with the formulas ``scipy.stats.norm``
itself uses — ``scipy.special.ndtr(z)`` and ``exp(−z²/2)/√(2π)`` — so
the values are bit-equal to ``norm.cdf`` / ``norm.pdf``, without
importing ``scipy.stats`` (0.7 s and ≈ 60 MiB in every process that
imports :mod:`repro`, for two functions the default GP-UCB pickers
never call).  ``scipy.special`` is imported where EI/PI evaluate it.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.beta import AlgorithmOneBeta, BetaSchedule
from repro.core.model_picking import ModelPicker, Selection
from repro.gp.regression import FiniteArmGP
from repro.utils.rng import SeedLike


_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal Φ(z), as ``scipy.stats.norm.cdf`` computes it."""
    from scipy.special import ndtr

    return ndtr(z)


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    """Standard normal φ(z), as ``scipy.stats.norm.pdf`` computes it."""
    return np.exp(-z**2 / 2.0) / _SQRT_2PI


class _AcquisitionPicker(ModelPicker):
    """Shared machinery for GP-EI / GP-PI pickers."""

    def __init__(
        self,
        prior_cov: np.ndarray,
        costs: Optional[np.ndarray] = None,
        *,
        xi: float = 0.01,
        noise: float = 0.1,
        prior_mean: Optional[np.ndarray] = None,
        beta: Optional[BetaSchedule] = None,
        seed: SeedLike = None,
    ) -> None:
        self.gp = FiniteArmGP(prior_cov, prior_mean, noise=noise)
        if costs is None:
            self.costs = np.ones(self.gp.n_arms)
        else:
            self.costs = np.asarray(costs, dtype=float).copy()
            if self.costs.shape != (self.gp.n_arms,):
                raise ValueError(
                    f"costs must have shape ({self.gp.n_arms},), "
                    f"got {self.costs.shape}"
                )
            if np.any(self.costs <= 0):
                raise ValueError("all costs must be strictly positive")
        if xi < 0:
            raise ValueError(f"xi must be >= 0, got {xi}")
        self.xi = float(xi)
        # β only feeds the Selection's optimistic bound for the greedy
        # user-picking phase; the arm choice itself uses the
        # acquisition value.
        self._beta = beta if beta is not None else AlgorithmOneBeta(
            self.gp.n_arms
        )
        self._rewards: list = []

    # -- acquisition ----------------------------------------------------
    def _z(self) -> tuple:
        mean, variance = self.gp.posterior()
        std = np.sqrt(np.maximum(variance, 1e-18))
        best = self.best_observed
        z = (mean - best - self.xi) / std
        return mean, std, z

    def _acquisition(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    # -- ModelPicker interface -------------------------------------------
    @property
    def n_arms(self) -> int:
        return self.gp.n_arms

    @property
    def n_observations(self) -> int:
        return self.gp.n_observations

    @property
    def best_observed(self) -> float:
        return max(self._rewards) if self._rewards else 0.0

    def select(self) -> Selection:
        scores = self._acquisition() / self.costs
        arm = int(np.argmax(scores))
        mean = self.gp.posterior_mean(arm)
        std = float(self.gp.posterior_std(arm))
        beta_t = self._beta(self.n_observations + 1)
        ucb = mean + math.sqrt(beta_t / self.costs[arm]) * std
        return Selection(arm, float(ucb), float(mean), std)

    def observe(self, arm: int, reward: float) -> None:
        self.gp.update(arm, reward)
        self._rewards.append(float(reward))

    def best_ucb(self) -> float:
        mean, variance = self.gp.posterior()
        beta_t = self._beta(self.n_observations + 1)
        scores = mean + np.sqrt(beta_t / self.costs) * np.sqrt(variance)
        return float(np.max(scores))

    def _tried(self) -> set:
        return set(self.gp.observed_arms)


class GPEIPicker(_AcquisitionPicker):
    """Expected-improvement model picking (GP-EI, Snoek et al.)."""

    def _acquisition(self) -> np.ndarray:
        mean, std, z = self._z()
        improvement = mean - self.best_observed - self.xi
        ei = improvement * _norm_cdf(z) + std * _norm_pdf(z)
        return np.maximum(ei, 0.0)


class GPPIPicker(_AcquisitionPicker):
    """Probability-of-improvement model picking (GP-PI, Kushner)."""

    def _acquisition(self) -> np.ndarray:
        _, _, z = self._z()
        return _norm_cdf(z)
