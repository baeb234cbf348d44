"""The five workloads: inputs from the seed, load, output checks.

Every HTTP workload drives one ``repro serve`` child (see
``serve_main.py``) through the SDK from this process, closed loop:
2 clients = 2 threads = 2 connections, each sending its next request
only when the previous reply arrived.  SDK callers block on a reply, so
a closed loop is the honest model, and with two connections no backlog
can build.  Operation *counts* are fixed per run (the requested seconds
times a per-workload rate measured on the reference host), so journal
records, cache hits and scheduler steps repeat exactly for one seed.
The first 5% of each client's operations are warm-up and untimed.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import layers
import reference
import spans
import stats
from serve_main import HERE, REPO_ROOT, Server, peak_rss_mb

NAMES = ("sched_sim", "http_read", "http_mutate", "infer_unique", "infer_repeat")

#: Operations per requested second of measurement, sized on the
#: reference host (2 cores) so the timed section lasts about as long
#: as ``--seconds`` asks.  sched_sim counts trials (about 5 000 steps
#: each), the others count requests or cycles over both clients.
OPS_PER_SECOND = {
    "sched_sim": 1.6,
    "http_read": 1400.0,
    "http_mutate": 85.0,
    "infer_unique": 95.0,
    "infer_repeat": 1100.0,
}
N_CLIENTS = 2
WARMUP_SHARE = 0.05
SETUPS = 3
RESTARTS = 1
#: The tail every workload reports.  Higher percentiles sit on a cliff
#: somewhere: 5% of http_mutate's cycles meet a snapshot pause, so its
#: p95 is half way up from 22 ms to 90 ms and moved by 60% between ten
#: runs of unchanged code where its p90 moved by 13%.
TAIL = 90.0
ROWS_PER_INFER = 8
PROGRAM = "{input: {[Tensor[2]], []}, output: {[Tensor[2]], []}}"


@dataclass
class Measurement:
    """What one run of one workload produced."""

    ops: int = 0  # throughput operations that succeeded in the timed section
    wall_s: float = 0.0  # the whole timed section
    throughput: float = 0.0  # operations per second; see the runners
    latencies_ms: List[float] = field(default_factory=list)  # every timed op
    host_factor: float = 1.0  # timings were divided by this (reference.py)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)  # failed output checks
    setup_s: List[float] = field(default_factory=list)
    restart_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    info: Dict[str, Any] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)  # traced runs only


class WorkRoot:
    """Benchmark-owned scratch directory inside the checkout, removed on
    success and on failure."""

    def __init__(self) -> None:
        self.path = REPO_ROOT / ".bench_e2e" / f"run-{time.time_ns()}"

    def __enter__(self) -> Path:
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # unless another run is using it
        except OSError:
            pass


def moons(rng: np.random.Generator, n: int) -> Tuple[List[List[float]], List[int]]:
    """Two interleaved half circles with noise: rows and 0/1 labels."""
    label = np.arange(n) % 2
    angle = rng.uniform(0.0, math.pi, n)
    x = np.where(label == 0, np.cos(angle), 1.0 - np.cos(angle))
    y = np.where(label == 0, np.sin(angle), 0.5 - np.sin(angle))
    points = np.column_stack([x, y]) + rng.normal(0.0, 0.17, (n, 2))
    return points.tolist(), [int(v) for v in label]


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
@dataclass
class _ClientRun:
    #: per timed operation: (end time, latency in seconds or None if it failed)
    timed: List[Tuple[float, Optional[float]]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    start: float = 0.0
    exchange_s: List[float] = field(default_factory=list)  # reference.py

    def attempt(self, op: Callable[[], bool], timed: bool) -> None:
        self.attempted += 1
        started = time.perf_counter()
        try:
            ok = op()
        except Exception as exc:  # noqa: BLE001 - a failed op is a result
            ok = False
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc}")
        ended = time.perf_counter()
        if not ok:
            self.failed += 1
        if timed:
            self.timed.append((ended, ended - started if ok else None))


#: Reference exchanges made in a row each time one is due.
EXCHANGES = 3


def drive(
    op_lists: Sequence[Sequence[Callable[[], bool]]],
    exchange_every: int = 0,
    exchange_port: int = 0,
) -> List[_ClientRun]:
    """Run each list on its own thread; time all but the warm-up.  With
    ``exchange_every`` each thread also makes EXCHANGES reference
    exchanges before every that many timed operations."""
    runs = [_ClientRun() for _ in op_lists]
    barrier = threading.Barrier(len(op_lists))

    def client(ops: Sequence[Callable[[], bool]], run: _ClientRun) -> None:
        far = reference.ExchangeClient(exchange_port) if exchange_every else None
        warm = max(1, math.ceil(WARMUP_SHARE * len(ops)))
        for op in ops[:warm]:
            run.attempt(op, timed=False)
        barrier.wait(timeout=600.0)  # both clients enter the timed part together
        run.start = time.perf_counter()
        for index, op in enumerate(ops[warm:]):
            if far is not None and index % exchange_every == 0:
                run.exchange_s += [far.exchange() for _ in range(EXCHANGES)]
            run.attempt(op, timed=True)
        if far is not None:
            far.close()

    threads = [
        threading.Thread(target=client, args=pair) for pair in zip(op_lists, runs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return runs


def _collect(
    measurement: Measurement, runs: Sequence[_ClientRun], ops_per_request: int
) -> Tuple[float, float]:
    """Fold client runs into the measurement; the timed window.

    Throughput is the sum over clients of each one's operations per
    second of its own timed section (the time its reference exchanges
    took left out), so a client that finishes first does not credit the
    other's quieter last moments to both.  With reference exchanges,
    throughput and latencies are then put at reference host speed.
    """
    start = min(run.start for run in runs)
    end = max(run.timed[-1][0] for run in runs)
    measurement.wall_s = end - start
    exchange_s = [s for run in runs for s in run.exchange_s]
    if exchange_s:
        measurement.host_factor = reference.host_factor(
            exchange_s, reference.EXCHANGE_REFERENCE_S
        )
    for run in runs:
        done = [s * 1e3 for _, s in run.timed if s is not None]
        busy_s = run.timed[-1][0] - run.start - sum(run.exchange_s)
        measurement.ops += len(done) * ops_per_request
        measurement.throughput += (
            len(done) * ops_per_request * measurement.host_factor / busy_s
        )
        measurement.latencies_ms += [ms / measurement.host_factor for ms in done]
        measurement.attempted += run.attempted
        measurement.failed += run.failed
        for error in run.errors:
            measurement.problems.append(f"operation failed: {error}")
    return start, end


# ----------------------------------------------------------------------
# HTTP workloads
# ----------------------------------------------------------------------
class HttpWorkload:
    """One traffic mix against ``repro serve``; subclasses fill it in."""

    name = ""
    tenants: Tuple[str, ...] = ("t0", "t1")
    #: latency ops per throughput op (infer counts rows, times requests)
    ops_per_request = 1
    #: timed operations between reference exchanges (about 4% of the
    #: timed section); 0 reports the workload's timings raw
    exchange_every = 60

    def __init__(self, seed: int, per_client: int) -> None:
        self.per_client = per_client
        self.rng = np.random.default_rng([seed, NAMES.index(self.name)])
        self.train = {t: moons(self.rng, 60) for t in self.tenants}

    def app(self, tenant: str) -> str:
        return f"moons-{tenant}"

    def client_tenant(self, index: int) -> str:
        return self.tenants[index % len(self.tenants)]

    def onboard(self, server: Server) -> None:
        """Register, feed 60 rows, two training steps — per tenant."""
        from repro.service import EaseMLClient

        for tenant in self.tenants:
            client = EaseMLClient(server.url, server.tokens[tenant])
            try:
                app = self.app(tenant)
                client.register_app(app, PROGRAM)
                client.feed(app, *self.train[tenant])
                for status in client.wait_all(client.submit_training(app, steps=2)):
                    if status.state != "finished":
                        raise RuntimeError(f"onboarding job ended {status.state}")
            finally:
                client.close()

    def ops(self, index: int, client) -> List[Callable[[], bool]]:
        raise NotImplementedError

    def check(self, measurement: Measurement, clients) -> None:
        """Output checks against the live server, after the timed part."""

    def check_layers(self, measurement: Measurement) -> None:
        """Checks on the traced run's counts: reads and predictions must
        leave the journal idle even with a store attached."""
        appended = measurement.layer["persist.append.calls"]
        if appended:
            measurement.problems.append(
                f"{appended:g} journal records per op in the timed section "
                "of a workload that mutates nothing"
            )

    def after_restart(self, measurement: Measurement, clients) -> None:
        """Output checks against a server restarted on the used directory."""
        for index, client in enumerate(clients):
            status = client.app_status(self.app(self.client_tenant(index)))
            if status.n_examples < 60 or status.training_runs < 2:
                measurement.problems.append(
                    f"after restart: {status.app} lost state ({status})"
                )


class HttpRead(HttpWorkload):
    name = "http_read"

    def ops(self, index, client):
        app = self.app(self.client_tenant(index))

        def status() -> bool:
            return client.app_status(app).app == app

        def refine() -> bool:
            return client.refine(app).app == app

        def events() -> bool:
            found = client.events(kinds=["job_finished"]).events
            return bool(found) and all(e["kind"] == "job_finished" for e in found)

        def jobs() -> bool:
            found = client.list_jobs(app).jobs
            return bool(found) and all(job.app == app for job in found)

        cycle = (status, refine, events, jobs)
        return [cycle[i % 4] for i in range(self.per_client)]


class HttpMutate(HttpWorkload):
    name = "http_mutate"
    exchange_every = 6

    def __init__(self, seed, per_client):
        super().__init__(seed, per_client)
        self.fed = [moons(self.rng, 5 * per_client) for _ in range(N_CLIENTS)]
        #: per client: (job id, accuracy) of every acked training job
        self.acked: List[List[Tuple[str, float]]] = [[] for _ in range(N_CLIENTS)]

    def ops(self, index, client):
        app = self.app(self.client_tenant(index))
        rows, labels = self.fed[index]
        acked = self.acked[index]

        def cycle(k: int) -> bool:
            fed = client.feed(app, rows[5 * k:5 * k + 5], labels[5 * k:5 * k + 5])
            client.set_example_enabled(app, fed.example_ids[0], False)
            handle = client.submit_training(app, steps=1)[0]
            status = client.wait(handle.job_id)
            if status.state != "finished":
                return False
            acked.append((handle.job_id, status.accuracy))
            return True

        return [lambda k=k: cycle(k) for k in range(self.per_client)]

    def check_layers(self, measurement):
        """A cycle journals the feed, the toggle, the submission and the
        completion at the least."""
        appended = measurement.layer["persist.append.calls"]
        if appended < 4:
            measurement.problems.append(
                f"{appended:g} journal records per cycle, expected >= 4"
            )

    def after_restart(self, measurement, clients):
        """Every acked job survived SIGKILL with its accuracy, and the
        example counts are what was fed."""
        for index, client in enumerate(clients):
            app = self.app(self.client_tenant(index))
            acked = self.acked[index]
            for job_id, accuracy in acked:
                status = client.job_status(job_id)
                if status.state != "finished" or status.accuracy != accuracy:
                    measurement.problems.append(
                        f"after restart: {job_id} is {status.state} "
                        f"accuracy {status.accuracy}, acked {accuracy}"
                    )
                    break
            status = client.app_status(app)
            expect = (60 + 5 * len(acked), 60 + 4 * len(acked))
            if (status.n_examples, status.n_enabled) != expect:
                measurement.problems.append(
                    f"after restart: {app} holds {status.n_examples} examples, "
                    f"{status.n_enabled} enabled; fed {expect}"
                )


class InferUnique(HttpWorkload):
    name = "infer_unique"
    #: one app for both clients, so two riders can coalesce
    tenants = ("t0",)
    ops_per_request = ROWS_PER_INFER
    #: Raw: 20 of a request's 22 ms are the coalescing window, a timer,
    #: which no host level moves; dividing by the host factor would add
    #: the host's drift to a figure that does not have it.
    exchange_every = 0
    #: every ``fresh_every``-th request carries fresh rows, the others
    #: rows of the fixed 64-row pool; 0 means every request is fresh
    fresh_every = 0

    def __init__(self, seed, per_client):
        super().__init__(seed, per_client)
        shape = (N_CLIENTS, per_client, ROWS_PER_INFER)
        rows = self.rng.standard_normal(shape + (2,))
        pool = self.rng.standard_normal((64, 2))
        # A repeat is a whole request of pool rows, and the fresh
        # requests come at a fixed stride, not by a coin flip per row or
        # per request: a request is a pure cache hit or a pure miss,
        # and the share of each is exact.
        every = self.fresh_every or 1
        repeated = np.arange(per_client) % every != every - 1
        rows[:, repeated] = pool[
            self.rng.integers(0, 64, shape)[:, repeated]
        ]
        self.rows = rows.tolist()
        self.answers: List[List[Tuple[int, ...]]] = [
            [None] * per_client for _ in range(N_CLIENTS)
        ]

    def ops(self, index, client):
        app = self.app(self.client_tenant(index))
        answers = self.answers[index]

        def infer(k: int, rows) -> bool:
            answers[k] = client.infer_batch(app, rows).predictions
            return len(answers[k]) == len(rows)

        return [
            lambda k=k, rows=rows: infer(k, rows)
            for k, rows in enumerate(self.rows[index])
        ]

    #: the cache hit ratio the workload is built to produce
    hit_ratio = (0.0, 0.05)

    def check_layers(self, measurement):
        super().check_layers(measurement)
        ratio = measurement.layer["infer.cache_hit_ratio"]
        low, high = self.hit_ratio
        if not low <= ratio <= high:
            measurement.problems.append(
                f"cache hit ratio {ratio:.3f} outside [{low}, {high}]"
            )

    def check(self, measurement, clients):
        """100 sampled rows, re-asked one at a time, get the same label."""
        for _ in range(100):
            c = int(self.rng.integers(N_CLIENTS))
            k = int(self.rng.integers(self.per_client))
            r = int(self.rng.integers(ROWS_PER_INFER))
            batch = self.answers[c][k]
            if batch is None:
                continue  # that request failed and is already counted
            app = self.app(self.client_tenant(c))
            single = clients[c].infer(app, self.rows[c][k][r]).prediction
            if single != batch[r]:
                measurement.problems.append(
                    f"row {(c, k, r)} predicted {batch[r]} in its batch "
                    f"and {single} alone"
                )
                break


class InferRepeat(InferUnique):
    name = "infer_repeat"
    #: One app per client: nothing coalesces, the adaptive window decays
    #: to zero, and what is left is the cache (infer_unique has the
    #: window).  With both clients on one app every miss waits out the
    #: 20 ms window, the p90 is that timer and the median is not, and no
    #: single host factor fits both.
    tenants = ("t0", "t1")
    fresh_every = 10
    hit_ratio = (0.8, 1.0)
    exchange_every = 60


HTTP = {w.name: w for w in (HttpRead, HttpMutate, InferUnique, InferRepeat)}


def run_http(
    name: str,
    seed: int,
    per_client: int,
    *,
    recorder: Optional[spans.Recorder],
    setups: int,
    restarts: int,
) -> Measurement:
    """Set up ``setups`` times, load once, restart ``restarts`` times."""
    from repro.service import EaseMLClient

    traced = recorder is not None
    workload = HTTP[name](seed, per_client)
    measurement = Measurement()
    with WorkRoot() as root:
        trace_out = root / "server-spans.json" if traced else None
        server = None
        try:
            for attempt in range(setups):
                if server is not None:  # only the last set-up is loaded
                    server.stop(kill=True)
                state_dir = root / f"state-{attempt}"
                server = Server(state_dir, seed, workload.tenants, trace_out)
                server.wait_ready()
                workload.onboard(server)
                measurement.setup_s.append(time.perf_counter() - server.spawned)

            def connect() -> List[Any]:
                return [
                    EaseMLClient(
                        server.url, server.tokens[workload.client_tenant(i)]
                    )
                    for i in range(N_CLIENTS)
                ]

            clients = connect()
            op_lists = [workload.ops(i, c) for i, c in enumerate(clients)]
            if workload.exchange_every:
                far = reference.ExchangeServer()
                try:
                    runs = drive(op_lists, workload.exchange_every, far.port)
                finally:
                    far.stop()
            else:
                runs = drive(op_lists)
            window = _collect(measurement, runs, workload.ops_per_request)
            measurement.peak_rss_mb = peak_rss_mb(server.pid)
            workload.check(measurement, clients)
            program_spans: List[spans.Span] = []
            if traced:
                server.dump_spans()
                program_spans = spans.in_window(spans.load(trace_out)[0], *window)
            for client in clients:
                client.close()
            # A crash, not a shutdown: every ack must already be on disk.
            # (SIGKILL keeps the OS page cache, so this checks
            # ack => journaled, not power loss.)
            server.stop(kill=True)

            restart_sets: List[List[spans.Span]] = []
            for attempt in range(restarts):
                server = Server(state_dir, seed, workload.tenants, trace_out)
                measurement.restart_s.append(server.wait_ready())
                if attempt == 0:
                    clients = connect()
                    workload.after_restart(measurement, clients)
                    for client in clients:
                        client.close()
                server.stop(kill=not traced)  # a traced child writes spans on SIGTERM
                if traced:
                    restart_sets.append(spans.load(trace_out)[0])
        finally:
            if server is not None:
                server.stop(kill=True)

        if name == "http_mutate" and traced:
            # Two more full replays: affordable at the traced run's quarter
            # history, and that run needs their spans anyway.
            _compare_digests(measurement, state_dir)
        if traced:
            mine = list(recorder.spans)
            restart_sets.append(
                [s for s in mine if s[3] > window[1]]
            )
            latencies = measurement.latencies_ms
            measurement.layer = layers.compute(
                ops=measurement.ops,
                # spans are in host seconds, so the latency is put back too
                mean_latency_ms=(
                    sum(latencies) / len(latencies) * measurement.host_factor
                    / workload.ops_per_request
                ),
                program=program_spans,
                client=spans.in_window(mine, *window),
                restart_sets=restart_sets,
            )
            if measurement.restart_s:
                measurement.layer["restart_to_ready_s"] = stats.percentile(
                    measurement.restart_s, 50.0
                )
            workload.check_layers(measurement)
    measurement.info.update(
        per_client=per_client,
        clients=N_CLIENTS,
        acked=sum(len(a) for a in getattr(workload, "acked", [])),
        restart_to_ready_s=measurement.restart_s,
        host_factor=measurement.host_factor,
        raw_throughput_ops_s=measurement.throughput / measurement.host_factor,
        raw_latency_p50_ms=(
            stats.percentile(measurement.latencies_ms, 50.0)
            * measurement.host_factor
        ),
    )
    return measurement


def _compare_digests(measurement: Measurement, state_dir: Path) -> None:
    """A replica seeded from the killed writer's directory and an
    in-process recovery must reach the same state."""
    from repro.persist import recover_gateway, state_digest
    from repro.replica import ReadReplica

    replica = ReadReplica(state_dir)
    replica.start()
    replica.stop()
    followed = state_digest(replica.gateway)
    gateway, _report = recover_gateway(state_dir)
    try:
        recovered = state_digest(gateway)
    finally:
        gateway.store.close()
    measurement.info["state_digest"] = recovered
    if followed != recovered:
        measurement.problems.append(
            f"replica digest {followed[:16]} != recovered digest {recovered[:16]}"
        )


# ----------------------------------------------------------------------
# sched_sim
# ----------------------------------------------------------------------
#: SYN(0.5, 1.0) at service-provider scale; the smoke run shrinks it.
SCHED_SHAPE = {"n_users": 200, "n_models": 100, "n_test_users": 100}


def sched_dataset(seed: int, shape: Dict[str, int] = SCHED_SHAPE):
    """The synthetic dataset and the protocol config of sched_sim."""
    from repro.datasets.synthetic import generate_syn
    from repro.experiments.protocol import ExperimentConfig

    dataset = generate_syn(
        0.5, 1.0, n_users=shape["n_users"], n_models=shape["n_models"], seed=seed
    )
    config = ExperimentConfig(
        n_test_users=shape["n_test_users"],
        budget_fraction=0.3,
        cost_aware=True,
        noise_std=0.02,
        base_seed=seed,
    )
    return dataset, config


def sched_trial(dataset, config, trial: int, strategy: str):
    """One split and one scheduler, built the way ``run_trial`` builds
    them; returns ``(scheduler, test quality, cost budget)``."""
    from repro.core.multitenant import MultiTenantScheduler
    from repro.core.oracles import MatrixOracle
    from repro.experiments.protocol import (
        build_prior,
        make_model_picker,
        make_user_picker,
    )
    from repro.utils.rng import derive_seed

    seed = config.base_seed
    train, test = dataset.split_users(
        config.n_test_users, seed=derive_seed(seed, "split", trial)
    )
    cov, mean, noise = build_prior(
        train.quality, config, derive_seed(seed, "prior", trial)
    )
    oracle = MatrixOracle(
        test.quality,
        test.cost,
        noise_std=config.noise_std,
        seed=derive_seed(seed, "noise", trial, strategy),
    )
    picker_seed = derive_seed(seed, "picker", trial, strategy)
    pickers = [
        make_model_picker(
            strategy, test, user, cov, mean, noise, config,
            seed=derive_seed(picker_seed, user),
        )
        for user in range(test.n_users)
    ]
    scheduler = MultiTenantScheduler(
        oracle, pickers, make_user_picker(strategy, config, seed=picker_seed)
    )
    budget = config.budget_fraction * float(np.sum(test.cost))
    return scheduler, test.quality, budget


def loss_curve(records, quality: np.ndarray, budget: float, points: int = 51) -> np.ndarray:
    """Average accuracy loss over the test users at ``points`` evenly
    spaced shares of the cost budget (the paper's figures' y axis)."""
    best_possible = quality.max(axis=1)
    best = np.zeros(quality.shape[0])
    gap = float(np.sum(best_possible))
    spent = np.empty(len(records))
    loss = np.empty(len(records))
    for i, record in enumerate(records):
        gained = quality[record.user, record.arm] - best[record.user]
        if gained > 0:
            best[record.user] += gained
            gap -= gained
        spent[i] = record.cumulative_cost
        loss[i] = gap / quality.shape[0]
    at = np.searchsorted(spent, np.linspace(0.0, budget, points), side="right") - 1
    return np.where(at < 0, float(np.mean(best_possible)), loss[np.maximum(at, 0)])


#: A timed trial runs the reference kernel every KERNEL_EVERY steps
#: (about 2% of the trial).
KERNEL_EVERY = 250


def _run_strategy(dataset, config, trial: int, strategy: str, kernel: bool = False):
    """Step one scheduler through its cost budget; ``(records, loss
    curve, seconds of each step, seconds of each kernel run)``."""
    scheduler, quality, budget = sched_trial(dataset, config, trial, strategy)
    clock = time.perf_counter
    step_s: List[float] = []
    kernel_s: List[float] = []
    while scheduler.total_cost < budget:
        if kernel and len(step_s) % KERNEL_EVERY == 0:
            kernel_s.append(reference.host_kernel())
        started = clock()
        scheduler.step()
        step_s.append(clock() - started)
    records = scheduler.records
    return records, loss_curve(records, quality, budget), step_s, kernel_s


def sched_setup_probe(seed: int) -> None:
    """Everything sched_sim does before its first timed step."""
    dataset, config = sched_dataset(seed)
    sched_trial(dataset, config, 0, "easeml")


def run_sched(
    seed: int,
    trials: int,
    *,
    recorder: Optional[spans.Recorder],
    setups: int,
    shape: Dict[str, int] = SCHED_SHAPE,
) -> Measurement:
    """``trials`` splits of one dataset, stepped one after the other.

    One thread of pure computation runs at whatever speed the host's
    core has that minute, and on the reference host that changes by a
    factor of two (README, "The host").  So the three timings of this
    workload are reported at reference host speed (see
    :func:`reference.at_reference_speed`): throughput is the median
    over trials of the trial's steps per second, the latencies are over
    all steps.  The raw figures are in ``info``.
    """
    measurement = Measurement()
    for _ in range(setups):
        # Set-up is process start, imports, dataset and prior build, so
        # it can only be repeated in a fresh interpreter.
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", str(seed)],
            check=True,
            cwd=str(REPO_ROOT),
        )
        measurement.setup_s.append(time.perf_counter() - started)

    dataset, config = sched_dataset(seed, shape)
    _run_strategy(dataset, config, trials, "easeml")  # warm-up trial
    digest = hashlib.sha256()
    curves, rates, factors, raw_s = [], [], [], []
    window_start = time.perf_counter()
    for trial in range(trials):
        records, curve, step_s, kernel_s = _run_strategy(
            dataset, config, trial, "easeml", kernel=True
        )
        rate, latencies_ms, factor = reference.at_reference_speed(step_s, kernel_s)
        rates.append(rate)
        factors.append(factor)
        raw_s += step_s
        measurement.latencies_ms += latencies_ms
        curves.append(curve)
        for record in records:
            digest.update(b"%d,%d,%d;" % (trial, record.user, record.arm))
    window_end = time.perf_counter()
    measurement.ops = measurement.attempted = len(raw_s)
    measurement.wall_s = sum(raw_s)
    measurement.throughput = stats.percentile(rates, 50.0)
    measurement.host_factor = stats.percentile(factors, 50.0)
    measurement.peak_rss_mb = peak_rss_mb(os.getpid())

    # Output check, untimed, on the first quarter of the trials: GP-UCB
    # picks must lose less accuracy than uniformly random model picks on
    # the same splits (here by a factor of about three).
    checked = max(1, trials // 4)
    baseline = float(np.mean([
        _run_strategy(dataset, config, trial, "random_model")[1]
        for trial in range(checked)
    ]))
    ours = float(np.mean(curves[:checked]))
    if not ours < baseline:
        measurement.problems.append(
            f"loss_auc(easeml)={ours:.6f} is not below "
            f"loss_auc(random_model)={baseline:.6f} on {checked} trials"
        )
    auc = float(np.mean(curves))
    measurement.info.update(
        trials=trials,
        steps=measurement.ops,
        picks_digest=digest.hexdigest(),
        loss_auc=auc,
        loss_auc_random_model=baseline,
        host_factor=measurement.host_factor,
        raw_throughput_ops_s=measurement.ops / measurement.wall_s,
        raw_latency_p50_ms=stats.percentile(raw_s, 50.0) * 1e3,
    )
    if recorder is not None:
        measurement.layer = layers.compute(
            ops=measurement.ops,
            mean_latency_ms=measurement.wall_s * 1e3 / measurement.ops,
            program=spans.in_window(recorder.spans, window_start, window_end),
        )
        measurement.layer["sched.loss_auc"] = auc
    return measurement


# ----------------------------------------------------------------------
# Entry points used by run.py
# ----------------------------------------------------------------------
def op_count(name: str, seconds: float) -> int:
    """sched_sim: trials; the others: operations per client."""
    total = OPS_PER_SECOND[name] * seconds
    if name == "sched_sim":
        return max(2, round(total))
    return max(8, round(total / N_CLIENTS))


def run(
    name: str,
    seed: int,
    count: int,
    *,
    recorder: Optional[spans.Recorder] = None,
    setups: int = SETUPS,
    restarts: int = RESTARTS,
    shape: Dict[str, int] = SCHED_SHAPE,
) -> Measurement:
    """One measurement of one workload; traced when ``recorder`` (already
    installed in this process) is given."""
    if name == "sched_sim":
        return run_sched(seed, count, recorder=recorder, setups=setups, shape=shape)
    return run_http(
        name, seed, count, recorder=recorder, setups=setups, restarts=restarts
    )
