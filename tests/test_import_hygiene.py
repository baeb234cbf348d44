"""``repro serve`` comes up, trains, crashes and recovers without scipy.

``import scipy.stats`` alone was 0.76 s of a 1.0 s start and ≈ 60 MiB
of every server's RSS.  scipy stays a dependency of ``refit()``, kernel
fitting and GP-EI/PI — all import it where they call it — so the checks
here are on module presence in a fresh interpreter, not on wall-clock.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

REPORT = """
import sys
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, f"scipy on the serving path: {loaded[:8]}"
"""

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


def run_fresh(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", code + REPORT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_importing_the_cli_loads_no_scipy():
    run_fresh("import repro.cli")


def test_serve_train_infer_crash_recover_loads_no_scipy():
    run_fresh(SERVE_CRASH_RECOVER)
