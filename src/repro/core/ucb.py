"""Single-tenant model selection: GP-UCB and the cost-aware twist.

Algorithm 1 of the paper, with the Section 3.2 modification available
through ``costs``: the selection rule becomes

.. math:: a_t = \\arg\\max_k \\; \\mu_{t-1}(k) + \\sqrt{\\beta_t / c_k}\\,\\sigma_{t-1}(k)

so that, everything else being equal, slower models get a lower
priority — but a large enough potential reward still makes an expensive
arm worth a bet.

A classic (Gaussian-process-free) UCB1 implementation is included as
the baseline the paper contrasts GP-UCB with in Section 3.1: its regret
bound ``C·K log T`` depends linearly on the number of arms because it
ignores arm correlations, and it must pull every arm once before the
confidence terms are defined.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.beta import AlgorithmOneBeta, BetaSchedule
from repro.gp.regression import FiniteArmGP
from repro.utils.rng import RandomState, SeedLike


class GPUCB:
    """Single-tenant (cost-aware) GP-UCB over a finite arm set.

    Parameters
    ----------
    gp:
        The Gaussian-process belief (Algorithm 1's prior + update
        rules).  The GPUCB instance owns and mutates it.
    beta:
        Exploration schedule; defaults to Algorithm 1's
        ``log(K t²/δ)`` with δ = 0.1.
    costs:
        Optional per-arm positive costs ``c_k``.  ``None`` means
        cost-oblivious (all ones), reproducing Algorithm 1 exactly.
    tie_break:
        "first" (deterministic ``argmax``) or "random" (uniform among
        the maximisers; needs ``seed``).
    """

    def __init__(
        self,
        gp: FiniteArmGP,
        beta: Optional[BetaSchedule] = None,
        costs: Optional[np.ndarray] = None,
        *,
        tie_break: str = "first",
        seed: SeedLike = None,
    ) -> None:
        self.gp = gp
        self.beta = beta if beta is not None else AlgorithmOneBeta(gp.n_arms)
        if costs is None:
            self.costs = np.ones(gp.n_arms)
        else:
            self.costs = np.asarray(costs, dtype=float).copy()
            if self.costs.shape != (gp.n_arms,):
                raise ValueError(
                    f"costs must have shape ({gp.n_arms},), "
                    f"got {self.costs.shape}"
                )
            if np.any(self.costs <= 0):
                raise ValueError("all costs must be strictly positive")
        if tie_break not in ("first", "random"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.tie_break = tie_break
        self._rng = RandomState(seed)

        #: Per-round records used by the theory module: the posterior
        #: variance of the selected arm at selection time, the cost
        #: paid, and the β used.
        self.selected_variances: List[float] = []
        self.selected_costs: List[float] = []
        self.betas_used: List[float] = []
        self.arms_played: List[int] = []
        self.rewards_seen: List[float] = []

        # Memoized score vector keyed by (n_observations, t, β
        # schedule): one posterior evaluation is shared by select(),
        # best_ucb() and the scheduler's potential_gap() within a round.
        self._scores_cache: Optional[
            Tuple[int, int, BetaSchedule, np.ndarray]
        ] = None

    # ------------------------------------------------------------------
    # Scores
    # ------------------------------------------------------------------
    @property
    def t_next(self) -> int:
        """The (1-based) round index of the *next* selection."""
        return self.gp.n_observations + 1

    def ucb_scores(self, t: Optional[int] = None) -> np.ndarray:
        """``B_t(k) = μ_{t-1}(k) + sqrt(β_t / c_k) σ_{t-1}(k)`` for all k.

        The score vector is memoized per ``(t, β schedule)`` against
        the GP's observation count, and returned as a **read-only**
        array: ``select()``, :meth:`best_ucb` and the greedy
        user-picking phase all share one posterior evaluation (and one
        ``β_t``) per round instead of recomputing it three times.
        """
        t = self.t_next if t is None else int(t)
        cache = self._scores_cache
        n_obs = self.gp.n_observations
        if (
            cache is not None
            and cache[0] == n_obs
            and cache[1] == t
            and cache[2] is self.beta
        ):
            return cache[3]
        beta_t = self.beta(t)
        mean, variance = self.gp.posterior()
        scores = mean + np.sqrt(beta_t / self.costs) * np.sqrt(variance)
        scores.setflags(write=False)
        self._scores_cache = (n_obs, t, self.beta, scores)
        return scores

    def best_ucb(self) -> float:
        """``max_k B_t(k)`` — the optimistic quality reachable next."""
        return float(np.max(self.ucb_scores()))

    # ------------------------------------------------------------------
    # Bandit loop
    # ------------------------------------------------------------------
    def select(self) -> int:
        """Choose the next arm (Algorithm 1 line 4 / the §3.2 twist)."""
        scores = self.ucb_scores()
        if self.tie_break == "first":
            return int(np.argmax(scores))
        best = np.max(scores)
        candidates = np.flatnonzero(scores >= best - 1e-12)
        return int(self._rng.choice(candidates))

    def observe(self, arm: int, reward: float) -> None:
        """Record the reward of playing ``arm`` (Algorithm 1 lines 5–7)."""
        t = self.t_next
        variance_before = self.gp.posterior_variance(arm)
        self.gp.update(arm, reward)
        self.selected_variances.append(float(variance_before))
        self.selected_costs.append(float(self.costs[arm]))
        self.betas_used.append(float(self.beta(t)))
        self.arms_played.append(int(arm))
        self.rewards_seen.append(float(reward))

    def step(self, draw: Callable[[int], float]) -> Tuple[int, float]:
        """One select–observe round; ``draw(arm)`` supplies the reward."""
        arm = self.select()
        reward = float(draw(arm))
        self.observe(arm, reward)
        return arm, reward

    def run(self, draw: Callable[[int], float], n_rounds: int) -> List[Tuple[int, float]]:
        """Run ``n_rounds`` select–observe rounds; return the history."""
        if n_rounds < 0:
            raise ValueError(f"n_rounds must be >= 0, got {n_rounds}")
        return [self.step(draw) for _ in range(n_rounds)]

    @property
    def best_observed(self) -> float:
        """Best reward seen so far (what ease.ml serves to ``infer``)."""
        if not self.rewards_seen:
            return float("-inf")
        return max(self.rewards_seen)

    def recommend(self) -> int:
        """Arm with the best *posterior mean* (the model to hand back)."""
        return int(np.argmax(self.gp.posterior_mean()))


class UCB1:
    """Classic cost-aware UCB1 (no arm correlations).

    Selection rule: play each arm once, then
    ``argmax_k  ȳ_k + sqrt(2 log t / (c_k n_k))`` where ``n_k`` counts
    plays of arm k.  With unit costs this is the textbook UCB1 whose
    ``C·K log T`` regret the paper quotes; the ``1/c_k`` scaling mirrors
    the Section 3.2 twist so the two algorithms stay comparable in the
    cost-aware benchmarks.
    """

    def __init__(
        self,
        n_arms: int,
        costs: Optional[np.ndarray] = None,
        *,
        seed: SeedLike = None,
    ) -> None:
        self.n_arms = int(n_arms)
        if self.n_arms < 1:
            raise ValueError(f"n_arms must be >= 1, got {n_arms}")
        if costs is None:
            self.costs = np.ones(self.n_arms)
        else:
            self.costs = np.asarray(costs, dtype=float).copy()
            if self.costs.shape != (self.n_arms,):
                raise ValueError(
                    f"costs must have shape ({self.n_arms},), "
                    f"got {self.costs.shape}"
                )
            if np.any(self.costs <= 0):
                raise ValueError("all costs must be strictly positive")
        self._rng = RandomState(seed)
        self.counts = np.zeros(self.n_arms, dtype=int)
        self.sums = np.zeros(self.n_arms)
        self.arms_played: List[int] = []
        self.rewards_seen: List[float] = []

    @property
    def t(self) -> int:
        return int(np.sum(self.counts))

    def select(self) -> int:
        unplayed = np.flatnonzero(self.counts == 0)
        if unplayed.size:
            return int(unplayed[0])
        means = self.sums / self.counts
        bonus = np.sqrt(
            2.0 * math.log(max(self.t, 2)) / (self.costs * self.counts)
        )
        return int(np.argmax(means + bonus))

    def observe(self, arm: int, reward: float) -> None:
        if not 0 <= arm < self.n_arms:
            raise IndexError(f"arm {arm} out of range [0, {self.n_arms})")
        self.counts[arm] += 1
        self.sums[arm] += float(reward)
        self.arms_played.append(int(arm))
        self.rewards_seen.append(float(reward))

    def step(self, draw: Callable[[int], float]) -> Tuple[int, float]:
        arm = self.select()
        reward = float(draw(arm))
        self.observe(arm, reward)
        return arm, reward

    @property
    def best_observed(self) -> float:
        if not self.rewards_seen:
            return float("-inf")
        return max(self.rewards_seen)
