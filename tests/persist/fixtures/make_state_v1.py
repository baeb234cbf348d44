"""Write the ``state_v1`` fixture: a state directory for recovery tests.

Usage (from the repository root)::

    PYTHONPATH=src:tests/persist python tests/persist/fixtures/make_state_v1.py

It refuses to overwrite an existing ``state_v1/``.  The directory was
written once, before ``ExampleStore`` became columnar, and is kept as
written: ``test_fixture_recovery.py`` cold-starts it and checks the
digest and predictions recorded in ``state_v1.json``.  Regenerating it
would only prove that the current code reads its own output.
"""

import json
import sys
from pathlib import Path

from persist_helpers import BLOBS_PROGRAM, MOONS_PROGRAM, gateway_kwargs

from repro.ml.data import TaskSpec, make_task
from repro.persist import open_gateway, state_digest
from repro.service.api import (
    FeedRequest,
    InferRequest,
    JobStatusRequest,
    RegisterAppRequest,
    SetExampleEnabledRequest,
    SubmitTrainingRequest,
)

HERE = Path(__file__).resolve().parent
STATE = HERE / "state_v1"
RECORD = HERE / "state_v1.json"
#: (tenant, app, program, task kind, data seed)
TENANTS = (
    ("alice", "moons", MOONS_PROGRAM, "moons", 0),
    ("bob", "blobs", BLOBS_PROGRAM, "blobs", 1),
)
CYCLES = 10
PROBES = ((0.5, -0.25), (1.5, 0.75), (-1.0, 0.5))


def rows(kind, n, seed):
    X, y = make_task(TaskSpec(kind, n, 0.3, seed=seed))
    return (
        tuple(tuple(float(v) for v in row) for row in X),
        tuple(int(v) for v in y),
    )


def main() -> int:
    if STATE.exists():
        print(f"{STATE} exists; remove it first", file=sys.stderr)
        return 1
    gateway, _ = open_gateway(STATE, **gateway_kwargs())
    tokens, pools = {}, {}
    for tenant, app, program, kind, seed in TENANTS:
        token = tokens[tenant] = gateway.create_tenant(tenant)
        gateway.handle(
            RegisterAppRequest(auth_token=token, app=app, program=program)
        )
        inputs, outputs = pools[app] = rows(kind, 30 + 5 * CYCLES, seed)
        gateway.handle(FeedRequest(
            auth_token=token, app=app, inputs=inputs[:30], outputs=outputs[:30]
        ))
    for k in range(CYCLES):
        for tenant, app, *_ in TENANTS:
            token = tokens[tenant]
            inputs, outputs = pools[app]
            batch = slice(30 + 5 * k, 35 + 5 * k)
            fed = gateway.handle(FeedRequest(
                auth_token=token, app=app,
                inputs=inputs[batch], outputs=outputs[batch],
            ))
            gateway.handle(SetExampleEnabledRequest(
                auth_token=token, app=app,
                example_id=fed.example_ids[0], enabled=False,
            ))
            handle = gateway.handle(
                SubmitTrainingRequest(auth_token=token, app=app, steps=1)
            ).handles[0]
            status = gateway.handle(JobStatusRequest(
                auth_token=token, job_id=handle.job_id, wait=30.0
            ))
            assert status.state == "finished", status
    token = tokens["alice"]
    predictions = list(gateway.handle(
        InferRequest(auth_token=token, app="moons", rows=PROBES)
    ).predictions)
    record = {
        "state_digest": state_digest(gateway),
        "tokens": tokens,
        "probes": [list(p) for p in PROBES],
        "predictions": predictions,
    }
    gateway.store.close()
    RECORD.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {STATE} and {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
