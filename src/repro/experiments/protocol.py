"""Experiment configuration and the strategy registry.

A *strategy* is a named (user picker, model picker) combination.  The
registry covers everything the paper evaluates:

=================  =======================  ==============================
name               user picking             model picking
=================  =======================  ==============================
``easeml``         HYBRID (§4.4)            GP-UCB (cost-aware if config)
``greedy``         GREEDY (Alg. 2)          GP-UCB
``round_robin``    ROUNDROBIN (§4.2)        GP-UCB
``random``         RANDOM                   GP-UCB
``fcfs``           FCFS (§4.1)              GP-UCB
``most_cited``     ROUNDROBIN               citation-count heuristic
``most_recent``    ROUNDROBIN               publication-date heuristic
``easeml_no_cost`` HYBRID                   GP-UCB, cost term disabled
``random_model``   ROUNDROBIN               uniformly random model
``ucb1``           ROUNDROBIN               classic UCB1 (no kernel)
=================  =======================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.core.beta import AlgorithmOneBeta, TheoremBeta
from repro.core.model_picking import (
    GPUCBPicker,
    ModelPicker,
    MostCitedPicker,
    MostRecentPicker,
    RandomModelPicker,
    UCB1Picker,
)
from repro.core.user_picking import (
    FCFSPicker,
    GreedyPicker,
    HybridPicker,
    RandomUserPicker,
    RoundRobinPicker,
    UserPicker,
)
from repro.datasets.base import ModelSelectionDataset
from repro.gp.covariance import empirical_model_covariance
from repro.gp.kernels import RBF, ConstantKernel
from repro.gp.likelihood import fit_kernel_pooled
from repro.utils.rng import RandomState, SeedLike

#: Strategies understood by :func:`make_user_picker` / the harness.
STRATEGY_NAMES: Tuple[str, ...] = (
    "easeml",
    "greedy",
    "round_robin",
    "random",
    "fcfs",
    "most_cited",
    "most_recent",
    "easeml_no_cost",
    "random_model",
    "ucb1",
)

#: Strategies whose model picker is GP-UCB.
_GP_STRATEGIES = (
    "easeml",
    "greedy",
    "round_robin",
    "random",
    "fcfs",
    "easeml_no_cost",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the Section 5 protocol.

    Attributes
    ----------
    n_test_users / n_trials:
        Test-set size per split and number of random splits (the paper
        uses 10 and 50).
    budget_fraction:
        Cost-oblivious: fraction of the total number of (user, model)
        runs available; cost-aware: fraction of the test users' total
        runtime.
    cost_aware:
        Whether costs drive both the budget axis and the GP-UCB rule.
    noise_std:
        Observation noise added by the oracle on each draw.
    kernel_mode:
        ``"empirical"`` — shrunk empirical covariance of model columns
        (fast); ``"lml"`` — scaled-RBF kernel over model quality
        vectors with hyperparameters fitted by log-marginal-likelihood
        maximisation (the paper's protocol, slower).
    train_fraction:
        Fraction of the *training users* made available to the kernel
        (Figure 14 sweeps 10% / 50% / 100%).
    hybrid_s:
        The freezing-detection window of the HYBRID picker (paper: 10).
    """

    n_test_users: int = 10
    n_trials: int = 50
    budget_fraction: float = 0.5
    cost_aware: bool = False
    noise_std: float = 0.01
    gp_noise: float = 0.05
    delta: float = 0.1
    kernel_mode: str = "empirical"
    shrinkage: float = 0.1
    train_fraction: float = 1.0
    n_checkpoints: int = 51
    hybrid_s: int = 10
    clamp_potential: bool = False
    base_seed: int = 0
    lml_max_targets: int = 16
    lml_restarts: int = 1
    #: Give each tenant's GP a prior mean equal to the per-model average
    #: training quality.  The paper's convention is a zero-mean GP
    #: (Appendix A); the informed mean is this repository's extension
    #: and is ablated in benchmarks/bench_ablation_prior_mean.py.
    use_prior_mean: bool = True

    def __post_init__(self) -> None:
        if self.kernel_mode not in ("empirical", "lml"):
            raise ValueError(
                "kernel_mode must be 'empirical' or 'lml', "
                f"got {self.kernel_mode!r}"
            )
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        if not 0.0 < self.budget_fraction <= 1.0:
            raise ValueError(
                f"budget_fraction must be in (0, 1], got {self.budget_fraction}"
            )
        if not 0.0 < self.train_fraction <= 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1], got {self.train_fraction}"
            )

    def with_changes(self, **kwargs) -> "ExperimentConfig":
        """Copy with fields replaced."""
        return replace(self, **kwargs)


def build_prior(
    train_quality: np.ndarray,
    config: ExperimentConfig,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, Optional[np.ndarray], float]:
    """Prior (covariance, mean, gp_noise) over models, from training users.

    Appendix A: a model's feature vector is its quality vector on the
    training users.  The prior *mean* is each model's average training
    quality — the transferable part of the multi-task estimate ("the
    performance of a model on other users' data sets defines the
    similarity between models", §5.3.2) — and the covariance captures
    the residual correlation structure.  ``train_fraction < 1`` first
    drops training users (Figure 14's sweep).
    """
    rng = RandomState(seed)
    train_quality = np.asarray(train_quality, dtype=float)
    n_train = train_quality.shape[0]
    kept = max(2, int(round(config.train_fraction * n_train)))
    if kept < n_train:
        rows = rng.choice(n_train, kept, replace=False)
        train_quality = train_quality[rows]
    prior_mean = (
        train_quality.mean(axis=0) if config.use_prior_mean else None
    )

    if config.kernel_mode == "empirical":
        cov = empirical_model_covariance(
            train_quality, shrinkage=config.shrinkage
        )
        return cov, prior_mean, config.gp_noise

    # "lml": scaled RBF over model feature vectors, hyperparameters by
    # pooled log-marginal-likelihood maximisation over (a subsample of)
    # training users.
    features = train_quality.T  # (n_models, n_train_users)
    n_targets = min(config.lml_max_targets, train_quality.shape[0])
    target_rows = rng.choice(
        train_quality.shape[0], n_targets, replace=False
    )
    targets = [train_quality[r] for r in target_rows]
    template = ConstantKernel(0.05, bounds=(1e-4, 1.0)) * RBF(
        1.0, bounds=(1e-2, 1e3)
    )
    fit = fit_kernel_pooled(
        template,
        features,
        targets,
        noise=config.gp_noise,
        n_restarts=config.lml_restarts,
        noise_bounds=(1e-3, 0.5),
        seed=rng,
    )
    cov = fit.kernel(features)
    return 0.5 * (cov + cov.T), prior_mean, fit.noise


def make_user_picker(
    strategy: str, config: ExperimentConfig, seed: SeedLike = None
) -> UserPicker:
    """The user-picking half of a strategy."""
    if strategy not in STRATEGY_NAMES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGY_NAMES}"
        )
    if strategy in ("easeml", "easeml_no_cost"):
        return HybridPicker(s=config.hybrid_s, seed=seed)
    if strategy == "greedy":
        return GreedyPicker(seed=seed)
    if strategy == "random":
        return RandomUserPicker(seed=seed)
    if strategy == "fcfs":
        return FCFSPicker()
    # round_robin, most_cited, most_recent, random_model all schedule
    # users round-robin (Section 5.2: "different users are scheduled
    # with a round-robin scheduler").
    return RoundRobinPicker()


def make_model_picker(
    strategy: str,
    dataset: ModelSelectionDataset,
    user: int,
    prior_cov: np.ndarray,
    prior_mean: Optional[np.ndarray],
    gp_noise: float,
    config: ExperimentConfig,
    seed: SeedLike = None,
) -> ModelPicker:
    """The model-picking half of a strategy, for one tenant.

    Cost-aware GP-UCB pickers use the Theorem 1–3 β schedule
    (``β_t = 2 c* log(π² n K t² / 6δ)``): the ``c*`` factor makes the
    ``sqrt(β_t / c_k)`` rule invariant to the cost unit, exactly as the
    theory requires.
    """
    if strategy not in STRATEGY_NAMES:
        raise ValueError(
            f"unknown strategy {strategy!r}; choose from {STRATEGY_NAMES}"
        )
    if strategy == "most_cited":
        return MostCitedPicker(dataset.citations())
    if strategy == "most_recent":
        return MostRecentPicker(dataset.years())
    if strategy == "random_model":
        return RandomModelPicker(dataset.n_models, seed=seed)
    if strategy == "ucb1":
        return UCB1Picker(
            dataset.n_models,
            dataset.cost[user] if config.cost_aware else None,
            seed=seed,
        )

    use_cost = config.cost_aware and strategy != "easeml_no_cost"
    if use_cost:
        costs = dataset.cost[user]
        beta: object = TheoremBeta(
            dataset.n_models,
            config.delta,
            c_star=float(np.max(costs)),
            n_users=dataset.n_users,
        )
    else:
        costs = None
        beta = AlgorithmOneBeta(dataset.n_models, config.delta)
    return GPUCBPicker(
        prior_cov,
        beta,
        costs,
        noise=gp_noise,
        prior_mean=prior_mean,
        seed=seed,
    )
