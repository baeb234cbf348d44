"""Inference data plane: coalesced vectorized predict vs the seed path.

Races four serving disciplines over the same in-process gateway under
64-way request concurrency:

* **per-row (seed)** — the pre-data-plane path, reconstructed here:
  every request takes the gateway lock, then transforms, predicts, and
  journals an INFER event *one row at a time*;
* **plane off** — vectorized predict (one ``(B, n)`` matrix, one
  ``predict``, one event) but no cross-request coalescing;
* **fixed 2ms** — an explicit 2 ms timer in front of the convoy: a
  leader waits for company before it flushes;
* **adaptive** — the default: the work-conserving convoy.  One predict
  in flight per app; whatever arrives while it runs rides the next
  flush; nothing waits on a clock.

A second race sweeps the prediction cache across target hit rates
(0 / 50 / 90%) in the default mode; every thread asks its own disjoint
fresh rows, so the measured hit ratio is the target, not an accident
of thread timing.  Before any timed run the harness asserts the new
path's predictions are bit-identical to the seed path's, row for row.

Run standalone (CI smoke uses ``--quick``, which also enforces the
>=3x batched-vs-per-row floor, the p99-within-SLO bound, and measured
cache hits within 10 points of each target)::

    PYTHONPATH=src python benchmarks/bench_infer_plane.py --quick

or under pytest like the figure benchmarks::

    cd benchmarks && PYTHONPATH=../src python -m pytest \
        bench_infer_plane.py -q
"""

import argparse
import threading
import time

import numpy as np

from conftest import save_report

from repro.engine.events import EventKind
from repro.infer import InferPlaneConfig
from repro.ml.data import TaskSpec, make_task
from repro.ml.zoo import default_zoo
from repro.obs import MetricsRegistry
from repro.service import ServiceGateway
from repro.service.api import (
    FeedRequest,
    InferRequest,
    JobStatusRequest,
    RegisterAppRequest,
    SubmitTrainingRequest,
)
from repro.utils.tables import ascii_table

PROGRAM = "{input: {[Tensor[2]], []}, output: {[Tensor[2]], []}}"
ZOO = ["naive-bayes", "ridge", "tree-d4"]
APP = "bench-app"
#: The acceptance floor: default-mode coalescing vs the seed path.
SPEEDUP_FLOOR = 3.0
#: Rows every thread may repeat (the cache sweep's warm set).
WARM_ROWS = 32
#: ``--quick`` fails when a sweep lane's measured hit ratio is further
#: than this from its target.
HIT_RATIO_TOLERANCE = 0.10


def _build_gateway(seed):
    """Gateway + one trained app; returns (gateway, token, app)."""
    gateway = ServiceGateway(
        placement="partition",
        n_gpus=4,
        seed=seed,
        zoo=default_zoo().subset(ZOO),
        metrics=MetricsRegistry(),
    )
    token = gateway.create_tenant("bench")
    gateway.handle(
        RegisterAppRequest(auth_token=token, app=APP, program=PROGRAM)
    )
    X, y = make_task(TaskSpec("moons", 120, 0.3, seed=seed))
    gateway.handle(FeedRequest(
        auth_token=token,
        app=APP,
        inputs=tuple(tuple(map(float, row)) for row in X),
        outputs=tuple(int(v) for v in y),
    ))
    handles = gateway.handle(SubmitTrainingRequest(
        auth_token=token, app=APP, steps=3
    )).handles
    for handle in handles:
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            status = gateway.handle(JobStatusRequest(
                auth_token=token, job_id=handle.job_id, wait=10.0
            ))
            if status.done:
                break
        else:
            raise RuntimeError("training did not finish in time")
    tenant = gateway._tenants[token]
    app = gateway._get_app(tenant, APP)
    return gateway, token, app


def _legacy_per_row(gateway, app, X):
    """The seed serving path, reconstructed for the race.

    One gateway-lock hold per request, then per row: a ``(1, n)``
    transform, a single-row ``predict``, and one INFER event appended
    to the journal — B predicts and B events for a B-row request,
    exactly the per-row loop the vectorized path replaced.
    """
    server = gateway.server
    out = np.empty(len(X), dtype=np.int64)
    with gateway._lock:
        for i, row in enumerate(X):
            x = np.asarray(row, dtype=float).ravel()[None, :]
            if app._best_transform is not None:
                x = app._best_transform(x)
            out[i] = int(app._best_estimator.predict(x)[0])
            server.log.append(
                server.clock.now, EventKind.INFER, app=app.name
            )
    return out


def _assert_parity(gateway, token, app, probes):
    """New path must be bit-identical to the seed path, row for row."""
    legacy = _legacy_per_row(gateway, app, probes)
    response = gateway.handle(InferRequest(
        auth_token=token,
        app=APP,
        rows=tuple(tuple(map(float, row)) for row in probes),
    ))
    fresh = np.asarray(response.predictions, dtype=np.int64)
    assert np.array_equal(legacy, fresh), (
        "vectorized predictions diverged from the seed per-row path: "
        f"{legacy.tolist()} != {fresh.tolist()}"
    )


def _probe_pool(seed, size):
    """Distinct finite probe rows (the app's 2-feature input space)."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(size, 2)) * 2.0


def _request_stream(warm, fresh, n_requests, rows_per_request,
                    hit_fraction, seed):
    """Per-request row matrices with ``hit_fraction`` repeated rows.

    Repeats draw from the small ``warm`` set every thread shares;
    ``fresh`` is this thread's own slice of never-asked rows, walked in
    order — so a 0.9 stream really does re-ask mostly already-answered
    rows, and a 0.0 stream can never hit.
    """
    rng = np.random.default_rng(seed)
    fresh_at = 0
    stream = []
    for _ in range(n_requests):
        rows = []
        for _ in range(rows_per_request):
            if hit_fraction > 0 and rng.random() < hit_fraction:
                rows.append(warm[rng.integers(len(warm))])
            else:
                rows.append(fresh[fresh_at])
                fresh_at += 1
        stream.append(np.asarray(rows))
    return stream


def _drive(n_threads, per_thread_streams, fire):
    """Race ``fire(X)`` across threads; returns (wall, latencies)."""
    barrier = threading.Barrier(n_threads + 1)
    per_thread = [[] for _ in range(n_threads)]

    def worker(stream, latencies):
        barrier.wait()
        for X in stream:
            start = time.perf_counter()
            fire(X)
            latencies.append(time.perf_counter() - start)

    threads = [
        threading.Thread(target=worker, args=(stream, latencies))
        for stream, latencies in zip(per_thread_streams, per_thread)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    return wall, np.array([v for b in per_thread for v in b])


def _run_mode(gateway, token, app, mode, n_threads, n_requests,
              rows_per_request, seed, hit_fraction=0.0, config=None):
    """One timed lane; returns dict(rows/s, p50 ms, p99 ms, ...)."""
    per_thread = n_requests * rows_per_request
    pool = _probe_pool(seed + 17, WARM_ROWS + n_threads * per_thread)
    streams = [
        _request_stream(
            pool[:WARM_ROWS],
            pool[WARM_ROWS + i * per_thread:][:per_thread],
            n_requests, rows_per_request, hit_fraction, seed + 1000 + i,
        )
        for i in range(n_threads)
    ]
    if mode == "per-row (seed)":
        def fire(X):
            _legacy_per_row(gateway, app, X)
    else:
        if config is None:
            # The race lanes disable the cache so repeated probes do
            # not hand the plane a win the seed path cannot have; the
            # cache sweep passes its own config instead.
            config = {
                "plane off": InferPlaneConfig(
                    mode="off", cache_rows=0
                ),
                "fixed 2ms": InferPlaneConfig(
                    mode="fixed", window=0.002, cache_rows=0
                ),
                "adaptive": InferPlaneConfig(
                    mode="adaptive", cache_rows=0
                ),
            }[mode]
        gateway.configure_infer_plane(config)

        def fire(X):
            gateway.handle(InferRequest(
                auth_token=token,
                app=APP,
                rows=tuple(tuple(map(float, row)) for row in X),
            ))

    hits0 = _cache_hits(gateway)
    wall, latencies = _drive(n_threads, streams, fire)
    total_rows = n_threads * n_requests * rows_per_request
    return {
        "mode": mode,
        "rows/s": round(total_rows / wall, 1),
        "req/s": round(n_threads * n_requests / wall, 1),
        "p50 (ms)": round(1e3 * float(np.percentile(latencies, 50)), 2),
        "p99 (ms)": round(1e3 * float(np.percentile(latencies, 99)), 2),
        "cache hits": _cache_hits(gateway) - hits0,
        "total rows": total_rows,
    }


def _cache_hits(gateway):
    family = gateway.metrics.get("infer_cache_hits_total")
    if family is None:
        return 0
    return int(sum(
        child.value for _, child in family.children()
    ))


def run_race(n_threads=64, n_requests=16, rows_per_request=8, seed=0):
    """The headline race: four disciplines, same workload, same app."""
    gateway, token, app = _build_gateway(seed)
    _assert_parity(gateway, token, app, _probe_pool(seed + 5, size=16))
    rows = []
    results = {}
    for mode in ("per-row (seed)", "plane off", "fixed 2ms", "adaptive"):
        result = _run_mode(
            gateway, token, app, mode, n_threads, n_requests,
            rows_per_request, seed,
        )
        results[mode] = result
    baseline = results["per-row (seed)"]["rows/s"]
    for mode, result in results.items():
        rows.append([
            mode,
            result["rows/s"],
            result["req/s"],
            result["p50 (ms)"],
            result["p99 (ms)"],
            f"{result['rows/s'] / baseline:.2f}x",
        ])
    return rows, results


def run_cache_sweep(n_threads=16, n_requests=16, rows_per_request=8,
                    seed=0):
    """Default mode with the cache on, across target hit rates.

    Returns the table rows and ``{target: measured}`` hit ratios.
    """
    gateway, token, app = _build_gateway(seed)
    rows = []
    measured = {}
    for hit_fraction in (0.0, 0.5, 0.9):
        result = _run_mode(
            gateway, token, app, "adaptive-cached", n_threads,
            n_requests, rows_per_request, seed,
            hit_fraction=hit_fraction,
            config=InferPlaneConfig(mode="adaptive", cache_rows=4096),
        )
        measured[hit_fraction] = (
            result["cache hits"] / result["total rows"]
        )
        rows.append([
            f"{int(hit_fraction * 100)}%",
            result["rows/s"],
            result["p50 (ms)"],
            result["p99 (ms)"],
            f"{100.0 * measured[hit_fraction]:.1f}%",
        ])
    return rows, measured


def render_race(rows, n_threads, rows_per_request):
    return ascii_table(
        ["discipline", "rows/s", "req/s", "p50 (ms)", "p99 (ms)",
         "speedup"],
        rows,
        title=f"Infer serving disciplines ({n_threads} concurrent "
        f"requests x {rows_per_request} rows; speedup vs per-row seed "
        "path)",
    )


def render_cache_sweep(rows, n_threads, rows_per_request):
    return ascii_table(
        ["target hits", "rows/s", "p50 (ms)", "p99 (ms)",
         "measured hits"],
        rows,
        title=f"Prediction cache sweep (default mode, {n_threads} "
        f"concurrent requests x {rows_per_request} rows)",
    )


def test_infer_plane(once):
    """Pytest entry point, sized like the other figure benchmarks."""
    race, results = once(
        run_race, n_threads=16, n_requests=4, rows_per_request=4
    )
    save_report("infer_plane", render_race(race, 16, 4))
    assert results["adaptive"]["rows/s"] > 0
    assert results["per-row (seed)"]["rows/s"] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=64,
                        help="concurrent infer requests in flight")
    parser.add_argument("--requests", type=int, default=16,
                        help="measured requests per thread")
    parser.add_argument("--rows", type=int, default=8,
                        help="rows per infer request")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: one race + one sweep, then enforce the "
        f">= {SPEEDUP_FLOOR:g}x adaptive-vs-seed floor, the "
        "p99-within-SLO bound and the sweep's measured-vs-target hit "
        "ratios (exit 1 on miss)",
    )
    args = parser.parse_args(argv)
    race, results = run_race(
        n_threads=args.threads, n_requests=args.requests,
        rows_per_request=args.rows, seed=args.seed,
    )
    sweep, measured_hits = run_cache_sweep(
        n_threads=min(args.threads, 16), n_requests=args.requests,
        rows_per_request=args.rows, seed=args.seed,
    )
    report = (
        render_race(race, args.threads, args.rows)
        + "\n\n"
        + render_cache_sweep(sweep, min(args.threads, 16), args.rows)
    )
    save_report("infer_plane", report)
    if args.quick:
        speedup = (
            results["adaptive"]["rows/s"]
            / results["per-row (seed)"]["rows/s"]
        )
        p99_ms = results["adaptive"]["p99 (ms)"]
        # The default SLO objective's latency bound
        # (repro.obs.slo DEFAULT_OBJECTIVE).
        bound_ms = 1000.0
        vs_off = (
            results["adaptive"]["rows/s"] / results["plane off"]["rows/s"]
        )
        print(
            f"\nquick gate: adaptive speedup {speedup:.2f}x "
            f"(floor {SPEEDUP_FLOOR:g}x; {vs_off:.2f}x plane off), "
            f"adaptive p99 {p99_ms:.2f}ms (bound {bound_ms:g}ms)"
        )
        if speedup < SPEEDUP_FLOOR:
            print("FAIL: batched speedup below the acceptance floor")
            return 1
        if p99_ms > bound_ms:
            print("FAIL: adaptive p99 above the SLO bound")
            return 1
        for target, measured in measured_hits.items():
            if abs(measured - target) > HIT_RATIO_TOLERANCE:
                print(
                    f"FAIL: cache sweep lane {target:.0%} measured "
                    f"{measured:.1%} hits"
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
