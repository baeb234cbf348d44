"""The top-level package surface stays importable and coherent."""

import importlib

import pytest

import repro

#: The packages whose names resolve on first use.
LAZY_PACKAGES = ("repro", "repro.obs", "repro.service")


def test_version():
    assert repro.__version__ == "1.5.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_exports_are_the_defining_modules_objects(package):
    module = importlib.import_module(package)
    table = module._EXPORTS
    assert [n for n in module.__all__ if n != "__version__"] == list(table)
    for name, defining in table.items():
        value = getattr(module, name)
        assert value is getattr(importlib.import_module(defining), name)
        # Stored on first use: later lookups are plain attribute hits.
        assert vars(module)[name] is value


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_dir_lists_all(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_unknown_attribute_raises_attribute_error(package):
    module = importlib.import_module(package)
    message = f"module '{package}' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_star_import_binds_every_name(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), name


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
