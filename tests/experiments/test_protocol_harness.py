"""Tests for the experiment protocol and harness."""

import numpy as np
import pytest

from repro.core.model_picking import (
    GPUCBPicker,
    MostCitedPicker,
    MostRecentPicker,
    RandomModelPicker,
)
from repro.core.user_picking import (
    FCFSPicker,
    GreedyPicker,
    HybridPicker,
    RandomUserPicker,
    RoundRobinPicker,
)
from repro.datasets.synthetic import generate_syn
from repro.experiments.harness import run_experiment, run_trial
from repro.experiments.protocol import (
    STRATEGY_NAMES,
    ExperimentConfig,
    build_prior,
    make_model_picker,
    make_user_picker,
)


@pytest.fixture(scope="module")
def small_syn():
    return generate_syn(0.5, 0.5, n_users=16, n_models=8, seed=0)


class TestConfig:
    def test_defaults_valid(self):
        config = ExperimentConfig()
        assert config.n_test_users == 10
        assert config.n_trials == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(kernel_mode="psychic")
        with pytest.raises(ValueError):
            ExperimentConfig(budget_fraction=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(train_fraction=1.5)

    @pytest.mark.parametrize("n_trials", [0, -3])
    def test_needs_at_least_one_trial(self, n_trials):
        # Accepted once, it reached np.concatenate of zero trials.
        with pytest.raises(ValueError, match="n_trials must be >= 1"):
            ExperimentConfig(n_trials=n_trials)
        with pytest.raises(ValueError, match="n_trials"):
            ExperimentConfig().with_changes(n_trials=n_trials)
        assert ExperimentConfig(n_trials=1).n_trials == 1

    def test_with_changes(self):
        config = ExperimentConfig()
        changed = config.with_changes(n_trials=3)
        assert changed.n_trials == 3
        assert config.n_trials == 50  # frozen original


class TestBuildPrior:
    def test_empirical_prior_shapes(self, small_syn):
        config = ExperimentConfig(kernel_mode="empirical")
        cov, mean, noise = build_prior(small_syn.quality, config, seed=0)
        assert cov.shape == (8, 8)
        assert mean.shape == (8,)
        assert noise == config.gp_noise
        assert np.all(np.linalg.eigvalsh(cov) > -1e-9)

    def test_lml_prior_shapes(self, small_syn):
        config = ExperimentConfig(
            kernel_mode="lml", lml_max_targets=4, lml_restarts=0
        )
        cov, mean, noise = build_prior(small_syn.quality, config, seed=0)
        assert cov.shape == (8, 8)
        assert noise > 0

    def test_prior_mean_optional(self, small_syn):
        config = ExperimentConfig(use_prior_mean=False)
        _, mean, _ = build_prior(small_syn.quality, config, seed=0)
        assert mean is None

    def test_train_fraction_subsamples(self, small_syn):
        config = ExperimentConfig(train_fraction=0.2)
        cov_small, _, _ = build_prior(small_syn.quality, config, seed=0)
        cov_full, _, _ = build_prior(
            small_syn.quality, config.with_changes(train_fraction=1.0),
            seed=0,
        )
        assert not np.allclose(cov_small, cov_full)


class TestStrategyFactories:
    def test_user_picker_types(self):
        config = ExperimentConfig()
        assert isinstance(
            make_user_picker("easeml", config), HybridPicker
        )
        assert isinstance(
            make_user_picker("greedy", config), GreedyPicker
        )
        assert isinstance(
            make_user_picker("round_robin", config), RoundRobinPicker
        )
        assert isinstance(
            make_user_picker("random", config), RandomUserPicker
        )
        assert isinstance(make_user_picker("fcfs", config), FCFSPicker)
        assert isinstance(
            make_user_picker("most_cited", config), RoundRobinPicker
        )

    def test_unknown_strategy_rejected(self):
        config = ExperimentConfig()
        with pytest.raises(ValueError):
            make_user_picker("oracle", config)

    def test_model_picker_types(self, small_syn):
        config = ExperimentConfig(cost_aware=True)
        cov = np.eye(8) * 0.09
        kwargs = dict(
            dataset=small_syn, user=0, prior_cov=cov,
            prior_mean=None, gp_noise=0.05, config=config,
        )
        assert isinstance(
            make_model_picker("easeml", **kwargs), GPUCBPicker
        )
        assert isinstance(
            make_model_picker("most_cited", **kwargs), MostCitedPicker
        )
        assert isinstance(
            make_model_picker("most_recent", **kwargs), MostRecentPicker
        )
        assert isinstance(
            make_model_picker("random_model", **kwargs),
            RandomModelPicker,
        )

    def test_no_cost_variant_ignores_costs(self, small_syn):
        config = ExperimentConfig(cost_aware=True)
        cov = np.eye(8) * 0.09
        picker = make_model_picker(
            "easeml_no_cost", small_syn, 0, cov, None, 0.05, config
        )
        assert np.allclose(picker.ucb.costs, 1.0)

    def test_cost_variant_uses_dataset_costs(self, small_syn):
        config = ExperimentConfig(cost_aware=True)
        cov = np.eye(8) * 0.09
        picker = make_model_picker(
            "easeml", small_syn, 2, cov, None, 0.05, config
        )
        assert np.allclose(picker.ucb.costs, small_syn.cost[2])


class TestRunTrial:
    def test_returns_curve_per_strategy(self, small_syn):
        config = ExperimentConfig(
            n_test_users=4, n_trials=1, budget_fraction=0.5,
            n_checkpoints=11, base_seed=0,
        )
        curves = run_trial(
            small_syn, ["easeml", "round_robin"], config, 0
        )
        assert set(curves) == {"easeml", "round_robin"}
        for curve in curves.values():
            assert curve.shape == (11,)
            assert np.all(np.diff(curve) <= 1e-12)  # loss non-increasing

    def test_deterministic_per_trial_index(self, small_syn):
        config = ExperimentConfig(
            n_test_users=4, budget_fraction=0.4, n_checkpoints=9,
            base_seed=3,
        )
        a = run_trial(small_syn, ["easeml"], config, 5)
        b = run_trial(small_syn, ["easeml"], config, 5)
        assert np.allclose(a["easeml"], b["easeml"])

    def test_different_trials_differ(self, small_syn):
        config = ExperimentConfig(
            n_test_users=4, budget_fraction=0.4, n_checkpoints=9,
            base_seed=3, noise_std=0.05,
        )
        a = run_trial(small_syn, ["random"], config, 0)
        b = run_trial(small_syn, ["random"], config, 1)
        assert not np.allclose(a["random"], b["random"])

    def test_cost_aware_budget_axis(self, small_syn):
        config = ExperimentConfig(
            n_test_users=4, budget_fraction=0.2, cost_aware=True,
            n_checkpoints=9, base_seed=1,
        )
        curves = run_trial(small_syn, ["easeml"], config, 0)
        assert curves["easeml"].shape == (9,)


class TestRunExperiment:
    def test_aggregation_shapes(self, small_syn):
        config = ExperimentConfig(
            n_test_users=4, n_trials=3, budget_fraction=0.4,
            n_checkpoints=9, base_seed=0,
        )
        result = run_experiment(
            small_syn, ["easeml", "random"], config
        )
        strategy = result.strategies["easeml"]
        assert strategy.trial_curves.shape == (3, 9)
        assert strategy.mean_curve.shape == (9,)
        assert np.all(
            strategy.worst_curve >= strategy.mean_curve - 1e-12
        )

    def test_render_includes_strategies(self, small_syn):
        config = ExperimentConfig(
            n_test_users=4, n_trials=2, budget_fraction=0.4,
            n_checkpoints=9,
        )
        result = run_experiment(small_syn, ["easeml"], config)
        out = result.render()
        assert "easeml" in out
        assert "% of runs" in out

    def test_x_label_cost_aware(self, small_syn):
        config = ExperimentConfig(
            n_test_users=4, n_trials=1, budget_fraction=0.2,
            cost_aware=True, n_checkpoints=5,
        )
        result = run_experiment(small_syn, ["easeml"], config)
        assert result.x_label == "% of total cost"

    def test_requires_strategy(self, small_syn):
        with pytest.raises(ValueError):
            run_experiment(small_syn, [], ExperimentConfig())

    def test_all_registry_strategies_run(self, small_syn):
        config = ExperimentConfig(
            n_test_users=3, n_trials=1, budget_fraction=0.3,
            n_checkpoints=5, base_seed=0, cost_aware=True,
        )
        result = run_experiment(small_syn, list(STRATEGY_NAMES), config)
        assert set(result.strategies) == set(STRATEGY_NAMES)
