"""The top-level package surface stays importable and coherent."""

import repro


def test_version():
    assert repro.__version__ == "1.5.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_docstring_quickstart_runs():
    """The workflow advertised in the package docstring works."""
    result = repro.run_experiment(
        repro.load_deeplearning(seed=0),
        ["easeml", "most_cited"],
        repro.ExperimentConfig(
            n_trials=2, cost_aware=True, budget_fraction=0.10,
            n_checkpoints=11,
        ),
    )
    rendered = result.render()
    assert "easeml" in rendered
    speedups = result.speedups()
    assert "most_cited" in speedups


def test_subpackages_importable():
    import repro.core
    import repro.datasets
    import repro.engine
    import repro.experiments
    import repro.gp
    import repro.ml
    import repro.obs
    import repro.platform
    import repro.service
    import repro.utils

    assert repro.core.__doc__
    assert repro.obs.__doc__
    assert repro.platform.__doc__
    assert repro.service.__doc__


def test_infer_surface():
    import repro.infer

    for name in repro.infer.__all__:
        assert hasattr(repro.infer, name), name
    # The benchmark's trace wraps these by name.
    assert callable(repro.infer.BatchQueue.submit)
    assert callable(repro.infer.InferPlane.predict)
    assert callable(repro.infer.PredictionCache.lookup)
    assert callable(repro.infer.PredictionCache.store)
    assert not hasattr(repro.infer, "AdaptiveBatchController")


def test_service_has_one_frontend_and_no_selector():
    import inspect

    import repro.service as service

    for name in service.__all__:
        assert hasattr(service, name), name
    assert "ServiceHTTPServer" not in service.__all__
    assert "FRONTENDS" not in service.__all__
    for bind in (service.serve, service.serve_background):
        assert "frontend" not in inspect.signature(bind).parameters
    assert "shard_read_locks" not in inspect.signature(
        service.ServiceGateway.__init__
    ).parameters
