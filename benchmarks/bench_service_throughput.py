"""Service throughput: requests/sec and latency percentiles over HTTP.

Spins up the versioned v1 service in process, onboards N tenants
(register app, feed examples, train a couple of async jobs to
completion), then drives N concurrent
:class:`~repro.service.client.EaseMLClient` threads through a
read-heavy request mix (infer / app-status / refine / events, with a
periodic async submit+poll training cycle).  Reports aggregate
requests/sec and per-request latency percentiles — the serving-path
numbers later PRs optimize against.

Three comparison races ride along:

* **metrics overhead** — a read-only mix with the metrics registry
  enabled (default instrumentation) versus disabled
  (``repro serve --no-metrics``), the observability plane's ~5%
  overhead guard;
* **tracing overhead** — the same mix across tracing configurations
  (no metrics / tracing off / 1% head sampling / 100%), the span
  tracer's <=2%-at-1%-sampling budget guard;
* **journal sync modes** — a mutation-heavy mix (feed / toggle /
  submit+wait cycles) against ``--sync off | buffered | group |
  fsync``, the over-HTTP companion to ``bench_persist_overhead.py``.

Run standalone (CI smoke uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --quick

or under pytest like the figure benchmarks::

    cd benchmarks && PYTHONPATH=../src python -m pytest \
        bench_service_throughput.py -q
"""

import argparse
import shutil
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from conftest import save_report

from repro.ml.data import TaskSpec, make_task
from repro.ml.zoo import default_zoo
from repro.service import ServiceGateway, TenantQuota, serve_background
from repro.service.client import EaseMLClient
from repro.utils.tables import ascii_table

PROGRAM = "{input: {[Tensor[2]], []}, output: {[Tensor[2]], []}}"
ZOO = ["naive-bayes", "ridge", "tree-d4"]
#: One periodic async training cycle per this many measured requests.
TRAIN_EVERY = 10


def _onboard(server, gateway, index):
    """Create a tenant with a registered, fed app.

    Registration stays open for the lifetime of the service (dynamic
    tenant membership); onboarding everyone up front just keeps the
    measured section free of admission work.
    """
    token = gateway.create_tenant(f"tenant-{index}")
    client = EaseMLClient(server.url, token)
    app = f"app-{index}"
    client.register_app(app, PROGRAM)
    X, y = make_task(TaskSpec("moons", 60, 0.3, seed=index))
    client.feed(app, X.tolist(), [int(v) for v in y])
    return client, app, [float(v) for v in X[0]]


def _drive(client, app, probe, n_requests, latencies, read_only=False):
    """One tenant's measured request loop; appends per-request seconds.

    ``read_only`` restricts the mix to the snapshot-read endpoints
    (app-status / refine / events): no predict, no training, so the
    overhead races measure the serving path and not the model.
    """
    for i in range(n_requests):
        start = time.perf_counter()
        if read_only:
            step = i % 3
            if step == 0:
                client.app_status(app)
            elif step == 1:
                client.refine(app)
            else:
                client.events(kinds=["job_finished"])
            latencies.append(time.perf_counter() - start)
            continue
        step = i % 4
        if step == 0:
            client.infer(app, probe)
        elif step == 1:
            client.app_status(app)
        elif step == 2:
            client.refine(app)
        else:
            client.events(kinds=["job_finished"])
        latencies.append(time.perf_counter() - start)
        if (i + 1) % TRAIN_EVERY == 0:
            start = time.perf_counter()
            client.wait_all(client.submit_training(app, steps=1))
            latencies.append(time.perf_counter() - start)


def _make_gateway(n_gpus, seed, *, state_dir=None, sync=None,
                  metrics=None):
    quota = TenantQuota(
        max_apps=2, max_pending_jobs=8,
        max_store_bytes=64 * 1024 * 1024,
    )
    kwargs = dict(
        placement="partition",
        n_gpus=n_gpus,
        seed=seed,
        zoo=default_zoo().subset(ZOO),
        default_quota=quota,
    )
    if metrics is not None:
        kwargs["metrics"] = metrics
    if sync is None:
        return ServiceGateway(**kwargs)
    from repro.persist import open_gateway

    gateway, _ = open_gateway(
        state_dir, sync=sync, snapshot_every=0, **kwargs
    )
    return gateway


def run_benchmark(n_clients=4, n_requests=100, n_gpus=4, seed=0,
                  *, read_only=False, metrics=None, tracer=None):
    """Returns the report rows; prints nothing."""
    gateway = _make_gateway(n_gpus, seed, metrics=metrics)
    if tracer is not None:
        gateway.tracer = tracer
    server, _ = serve_background(gateway)
    try:
        tenants = [
            _onboard(server, gateway, i) for i in range(n_clients)
        ]
        for client, app, _ in tenants:
            client.wait_all(client.submit_training(app, steps=2))
        per_thread = [[] for _ in tenants]
        threads = [
            threading.Thread(
                target=_drive,
                args=(client, app, probe, n_requests, latencies,
                      read_only),
            )
            for (client, app, probe), latencies in zip(
                tenants, per_thread
            )
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - wall_start
    finally:
        server.shutdown()
        server.server_close()

    latencies = np.array(
        [value for bucket in per_thread for value in bucket]
    )
    assert latencies.size > 0, "no requests were measured"
    total = int(latencies.size)
    return [
        ["concurrent clients", n_clients],
        ["requests (total)", total],
        ["wall time (s)", round(wall, 3)],
        ["requests/sec", round(total / wall, 1)],
        ["latency p50 (ms)", round(1e3 * np.percentile(latencies, 50), 2)],
        ["latency p99 (ms)", round(1e3 * np.percentile(latencies, 99), 2)],
        ["latency max (ms)", round(1e3 * latencies.max(), 2)],
    ]


def render(rows):
    return ascii_table(
        ["metric", "value"],
        rows,
        title="Service throughput (HTTP frontend, v1 API)",
    )


def run_metrics_overhead(n_clients=4, n_requests=100, n_gpus=4, seed=0):
    """Race the read-only mix with the metrics registry on vs off.

    The overhead guard for the observability plane: the instrumented
    serving path (per-route counters + latency histograms + request
    tracing, the default) against ``repro serve --no-metrics`` (a
    disabled registry handing out no-op instruments).  The budget is
    ~5% on requests/sec; the rendered row records the measured gap.

    The effect being measured is ~10us per ~1ms request (~1%), which
    is far below the 5-10% run-to-run scheduler noise of one smoke-
    sized run — so the race interleaves five repetitions of each
    configuration over at least 150 requests per client and compares
    *medians*, the standard way to pull a small systematic effect out
    of heavy-tailed timing noise.
    """
    import statistics

    from repro.obs import MetricsRegistry

    n_requests = max(n_requests, 150)
    configs = (("instrumented", True), ("--no-metrics", False))
    samples = {label: [] for label, _ in configs}
    for _ in range(5):
        for label, enabled in configs:
            result = run_benchmark(
                n_clients=n_clients, n_requests=n_requests,
                n_gpus=n_gpus, seed=seed, read_only=True,
                metrics=MetricsRegistry(enabled=enabled),
            )
            samples[label].append(
                {name: value for name, value in result}
            )
    medians = {
        label: {
            key: round(
                statistics.median(run[key] for run in runs), 2
            )
            for key in (
                "requests/sec", "latency p50 (ms)", "latency p99 (ms)"
            )
        }
        for label, runs in samples.items()
    }
    rows = [
        [
            label,
            medians[label]["requests/sec"],
            medians[label]["latency p50 (ms)"],
            medians[label]["latency p99 (ms)"],
        ]
        for label, _ in configs
    ]
    overhead = 100.0 * (
        1.0
        - medians["instrumented"]["requests/sec"]
        / medians["--no-metrics"]["requests/sec"]
    )
    rows.append(["overhead (%)", round(overhead, 2), "", ""])
    return rows


def render_metrics_overhead(rows, n_clients):
    return ascii_table(
        ["registry", "requests/sec", "p50 (ms)", "p99 (ms)"],
        rows,
        title=f"Read-only mix: metrics overhead guard "
        f"({n_clients} concurrent tenants; budget ~5%)",
    )


def _tracer_fastpath_us(tracer, n=200_000):
    """Min-of-5 per-request cost (µs) of ``start`` + ``finish``.

    The HTTP race below cannot resolve a ~2% effect on this host —
    lane medians swing ±25% between runs — so the budget claim rests
    on this direct measurement: the tracer's whole per-request
    surface, timed over a tight loop, divided by the race's observed
    p50 service time.
    """
    from repro.obs.context import RequestContext

    context = RequestContext(request_id="req-bench")
    best = None
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(n):
            tracer.start(context)
            tracer.finish(
                context, route="/v1/apps/{app}/infer", status=200,
                tenant="bench", frontend="bench",
            )
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / n * 1e6


def run_tracing_overhead(n_clients=4, n_requests=100, n_gpus=4, seed=0):
    """Race the read-only mix across tracing configurations.

    Four lanes: ``--no-metrics`` (no registry, no tracer), metrics
    with tracing disabled (the ``--trace-sample 0`` shape), head
    sampling at 1% (the recommended production setting), and head
    sampling at 100% (every request carries a span accumulator).  The
    budget is <=2% on requests/sec at 1% sampling versus the
    metrics-only baseline: a sampled-out request costs one RNG draw
    at start and every ``span()`` site returns the shared null span.

    Same discipline as :func:`run_metrics_overhead` — five
    interleaved repetitions per lane (ABBA-ordered), medians compared
    — but the race only *bounds* the effect: single-core scheduler
    noise is an order of magnitude larger than the budget.  The
    decisive number is the :func:`_tracer_fastpath_us` microbench,
    reported as ``implied overhead`` rows against the baseline lane's
    p50 service time.
    """
    import statistics

    from repro.obs import MetricsRegistry, NULL_TRACER
    from repro.obs.tracing import Tracer

    n_requests = max(n_requests, 150)

    def configs():
        # Fresh registry/tracer per repetition: no cross-run state.
        return (
            ("--no-metrics", MetricsRegistry(enabled=False), None),
            ("metrics, tracing off",
             MetricsRegistry(enabled=True), NULL_TRACER),
            ("tracing @ 1%", MetricsRegistry(enabled=True),
             Tracer(sample_rate=0.01, seed=seed)),
            ("tracing @ 100%", MetricsRegistry(enabled=True),
             Tracer(sample_rate=1.0, seed=seed)),
        )

    labels = [label for label, _, _ in configs()]
    samples = {label: [] for label in labels}
    for repetition in range(5):
        lanes = list(configs())
        if repetition % 2:
            # ABBA ordering: alternate the lane order so a monotonic
            # machine-speed drift across the race cancels out of the
            # medians instead of biasing whichever lane runs last.
            lanes.reverse()
        for label, registry, tracer in lanes:
            result = run_benchmark(
                n_clients=n_clients, n_requests=n_requests,
                n_gpus=n_gpus, seed=seed, read_only=True,
                metrics=registry, tracer=tracer,
            )
            samples[label].append(
                {name: value for name, value in result}
            )
    medians = {
        label: {
            key: round(
                statistics.median(run[key] for run in runs), 2
            )
            for key in (
                "requests/sec", "latency p50 (ms)", "latency p99 (ms)"
            )
        }
        for label, runs in samples.items()
    }
    rows = [
        [
            label,
            medians[label]["requests/sec"],
            medians[label]["latency p50 (ms)"],
            medians[label]["latency p99 (ms)"],
        ]
        for label in labels
    ]
    baseline = medians["metrics, tracing off"]["requests/sec"]
    for label in ("tracing @ 1%", "tracing @ 100%"):
        overhead = 100.0 * (
            1.0 - medians[label]["requests/sec"] / baseline
        )
        rows.append(
            [f"{label} overhead (%)", round(overhead, 2), "", ""]
        )
    # Deterministic per-request cost: the race rows above bound the
    # effect, these resolve it.
    null_us = _tracer_fastpath_us(NULL_TRACER)
    p50_us = (
        medians["metrics, tracing off"]["latency p50 (ms)"] * 1000.0
    )
    for label, rate in (("1%", 0.01), ("100%", 1.0)):
        cost = _tracer_fastpath_us(Tracer(sample_rate=rate, seed=seed))
        implied = 100.0 * max(cost - null_us, 0.0) / p50_us
        rows.append(
            [f"fast path @ {label} (us/req)", round(cost, 3), "", ""]
        )
        rows.append(
            [f"implied @ {label} overhead (%)", round(implied, 4),
             "", ""]
        )
    return rows


def render_tracing_overhead(rows, n_clients):
    return ascii_table(
        ["tracing", "requests/sec", "p50 (ms)", "p99 (ms)"],
        rows,
        title=f"Read-only mix: tracing overhead "
        f"({n_clients} concurrent tenants; budget <=2% @ 1% sampling)",
    )


def _drive_mutations(client, app, rows, labels, n_cycles, latencies):
    """One tenant's mutation loop: feed, toggle, submit, wait-to-done."""
    for i in range(n_cycles):
        start = time.perf_counter()
        fed = client.feed(app, rows[i % len(rows)], labels[i % len(rows)])
        client.set_example_enabled(
            app, fed.example_ids[0], i % 2 == 0
        )
        handle = client.submit_training(app, steps=1)[0]
        client.wait(handle.job_id, timeout=120)
        latencies.append(time.perf_counter() - start)


def run_sync_comparison(n_clients=4, n_cycles=10, n_gpus=4, seed=0):
    """Race journal sync modes on a mutation-heavy mix over HTTP.

    ``off`` is the no-store baseline; ``buffered`` / ``group`` /
    ``fsync`` journal every mutation, differing only in when the fsync
    happens (never / once per commit convoy / once per record).  With
    N concurrent mutating tenants, ``group`` is where convoys actually
    form: writers ride each other's flushes.
    """
    rows = []
    state_root = Path(tempfile.mkdtemp(prefix="bench-service-sync-"))
    try:
        for sync in ("off", "buffered", "group", "fsync"):
            gateway = _make_gateway(
                n_gpus, seed,
                state_dir=state_root / sync,
                sync=None if sync == "off" else sync,
            )
            server, _ = serve_background(gateway)
            try:
                tenants = [
                    _onboard(server, gateway, i) for i in range(n_clients)
                ]
                for client, app, _ in tenants:
                    client.wait_all(client.submit_training(app, steps=1))
                X, y = make_task(TaskSpec("moons", 100, 0.3, seed=seed))
                batch = 5
                feed_rows = [
                    [list(map(float, r)) for r in X[i:i + batch]]
                    for i in range(0, 100, batch)
                ]
                feed_labels = [
                    [int(v) for v in y[i:i + batch]]
                    for i in range(0, 100, batch)
                ]
                per_thread = [[] for _ in tenants]
                threads = [
                    threading.Thread(
                        target=_drive_mutations,
                        args=(client, app, feed_rows, feed_labels,
                              n_cycles, latencies),
                    )
                    for (client, app, _), latencies in zip(
                        tenants, per_thread
                    )
                ]
                wall_start = time.perf_counter()
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall = time.perf_counter() - wall_start
                journaled = (
                    0 if gateway.store is None else gateway.store.last_seq
                )
            finally:
                server.shutdown()
                server.server_close()
                if gateway.store is not None:
                    gateway.store.close()
            latencies = np.array(
                [v for bucket in per_thread for v in bucket]
            )
            total = n_clients * n_cycles
            rows.append([
                sync,
                journaled,
                round(total / wall, 1),
                round(1e3 * float(np.percentile(latencies, 50)), 2),
                round(1e3 * float(np.percentile(latencies, 99)), 2),
            ])
    finally:
        shutil.rmtree(state_root, ignore_errors=True)
    return rows


def render_sync_comparison(rows, n_clients):
    return ascii_table(
        ["sync", "records", "cycles/sec", "p50 (ms)", "p99 (ms)"],
        rows,
        title=f"Mutation mix (feed+toggle+submit+wait) over HTTP: "
        f"journal sync mode ({n_clients} concurrent tenants)",
    )


def test_service_throughput(once):
    """Pytest entry point, sized like the other figure benchmarks."""
    rows = once(run_benchmark, n_clients=2, n_requests=40)
    save_report("service_throughput", render(rows))
    by_name = {name: value for name, value in rows}
    assert by_name["requests (total)"] >= 80
    assert by_name["requests/sec"] > 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--requests", type=int, default=100,
                        help="measured requests per client")
    parser.add_argument("--cycles", type=int, default=10,
                        help="mutation cycles per client in the sync-"
                        "mode race")
    parser.add_argument("--n-gpus", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="small smoke configuration (2 clients x 20 requests)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.clients, args.requests, args.cycles = 2, 20, 4
    rows = run_benchmark(
        n_clients=args.clients,
        n_requests=args.requests,
        n_gpus=args.n_gpus,
        seed=args.seed,
    )
    overhead = run_metrics_overhead(
        n_clients=args.clients,
        n_requests=args.requests,
        n_gpus=args.n_gpus,
        seed=args.seed,
    )
    tracing = run_tracing_overhead(
        n_clients=args.clients,
        n_requests=args.requests,
        n_gpus=args.n_gpus,
        seed=args.seed,
    )
    syncs = run_sync_comparison(
        n_clients=args.clients,
        n_cycles=args.cycles,
        n_gpus=args.n_gpus,
        seed=args.seed,
    )
    report = (
        render(rows)
        + "\n\n"
        + render_metrics_overhead(overhead, args.clients)
        + "\n\n"
        + render_tracing_overhead(tracing, args.clients)
        + "\n\n"
        + render_sync_comparison(syncs, args.clients)
    )
    save_report("service_throughput", report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
