"""Each entry point loads only its own layers.

``import scipy.stats`` alone was 0.76 s of a 1.0 s start and ≈ 60 MiB
of every server's RSS.  scipy stays a dependency of ``refit()``, kernel
fitting and GP-EI/PI — all import it where they call it.

The package ``__init__``s of ``repro``, ``repro.obs`` and
``repro.service`` resolve their names on first use, and ``repro.cli``
imports what a command needs inside that command.  So the paper's
scheduler runs without the service stack, ``repro serve`` without the
experiment harness, and the SDK without the server.

The checks here are on module presence in a fresh interpreter, not on
wall-clock.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

SERVE_CRASH_RECOVER = """
import sys, tempfile
from repro.ml.data import TaskSpec, make_task
from repro.persist import open_gateway, recover_gateway, state_digest
from repro.service.api import (
    FeedRequest, InferRequest, JobStatusRequest, RegisterAppRequest,
    SubmitTrainingRequest,
)

state_dir = tempfile.mkdtemp()
gateway, _ = open_gateway(state_dir, sync="buffered", seed=0)
token = gateway.create_tenant("alice")
gateway.handle(RegisterAppRequest(
    auth_token=token, app="moons",
    program="{input: {[Tensor[2]], []}, output: {[Tensor[2]], []}}",
))
X, y = make_task(TaskSpec("moons", 60, 0.3, seed=0))
gateway.handle(FeedRequest(
    auth_token=token, app="moons",
    inputs=tuple(tuple(float(v) for v in row) for row in X),
    outputs=tuple(int(v) for v in y),
))
for handle in gateway.handle(
    SubmitTrainingRequest(auth_token=token, app="moons", steps=2)
).handles:
    status = gateway.handle(
        JobStatusRequest(auth_token=token, job_id=handle.job_id, wait=30.0)
    )
    assert status.state == "finished", status
gateway.handle(InferRequest(
    auth_token=token, app="moons", x=tuple(float(v) for v in X[0]),
))
digest = state_digest(gateway)
gateway.store.close()  # what a SIGKILL leaves: no goodbye record
recovered, report = recover_gateway(state_dir)
assert state_digest(recovered) == digest
recovered.store.close()
"""

#: The paper's scheduler as the benchmark and the experiment harness
#: build it (Algorithms 1-2 on SYN data), stepped 50 times.
SCHEDULER = """
from repro import ExperimentConfig, MatrixOracle, MultiTenantScheduler
from repro import generate_syn
from repro.experiments.protocol import (
    build_prior, make_model_picker, make_user_picker,
)

dataset = generate_syn(0.5, 1.0, n_users=30, n_models=12, seed=0)
config = ExperimentConfig(n_test_users=10, cost_aware=True)
train, test = dataset.split_users(config.n_test_users, seed=1)
cov, mean, noise = build_prior(train.quality, config, 2)
pickers = [
    make_model_picker("easeml", test, user, cov, mean, noise, config, seed=user)
    for user in range(test.n_users)
]
scheduler = MultiTenantScheduler(
    MatrixOracle(test.quality, test.cost, noise_std=0.01, seed=3),
    pickers,
    make_user_picker("easeml", config, seed=4),
)
for _ in range(50):
    scheduler.step()
assert scheduler.step_count == 50
"""

#: What ``repro serve --state-dir DIR`` runs before ``serve_forever``.
SERVE = """
import tempfile
from repro.cli import _build_parser, build_service

args = _build_parser().parse_args(
    ["serve", "--port", "0", "--tenant", "demo",
     "--state-dir", tempfile.mkdtemp()]
)
gateway, tokens, server, report = build_service(args)
assert set(tokens) == {"demo"}
server.server_close()
gateway.store.close()
"""


def loaded_modules(code):
    """The names in ``sys.modules`` after ``code`` ran in a fresh
    interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(*sorted(sys.modules), sep='\\n')"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return set(done.stdout.split())


def under(modules, *packages):
    """The members of ``modules`` that are one of ``packages`` or
    inside one of them."""
    return sorted(
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    )


def test_importing_the_cli_loads_no_scipy():
    assert under(loaded_modules("import repro.cli"), "scipy") == []


def test_serve_train_infer_crash_recover_loads_no_scipy():
    assert under(loaded_modules(SERVE_CRASH_RECOVER), "scipy") == []


def test_the_scheduler_loads_without_the_service_stack():
    loaded = loaded_modules(SCHEDULER)
    assert "repro.core.multitenant" in loaded
    assert under(
        loaded,
        *(f"repro.{layer}" for layer in (
            "service", "platform", "ml", "runtime", "engine", "persist",
            "infer", "replica", "cli",
        )),
        "repro.obs.tracing", "repro.obs.slo", "repro.obs.logging",
        "asyncio",
    ) == []


def test_serve_loads_no_experiment_harness_and_no_sdk():
    loaded = loaded_modules(SERVE)
    assert "repro.service.http" in loaded
    assert under(
        loaded,
        "repro.experiments", "repro.datasets", "repro.replica",
        "repro.service.client",
    ) == []


def test_the_sdk_loads_without_the_server():
    loaded = loaded_modules("from repro import EaseMLClient")
    assert "repro.service.client" in loaded
    assert under(
        loaded,
        "repro.service.gateway", "repro.service.http", "repro.platform",
        "repro.ml", "repro.gp", "repro.core", "repro.persist",
        "repro.runtime",
    ) == []
