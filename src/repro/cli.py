"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``stats``
    Print the Figure 8 dataset-statistics table.
``figure {6b,8,9,10,11,12,13,14,15}``
    Run one paper-figure reproduction and print (and optionally save)
    the rendered report.
``compare``
    Race a chosen set of strategies on a chosen dataset and print the
    loss curves and speedups.
``runtime``
    Run a workload (generated or replayed from a JSONL trace) on the
    discrete-event cluster runtime under a chosen placement policy,
    and optionally dump the workload trace and execution event log.
``trace diff``
    First-divergence report between two recorded event logs (JSONL) —
    the determinism debugging tool.
``serve``
    Start the multi-tenant HTTP service (the versioned v1 API) and
    print the created tenant tokens.  One event-loop frontend serves
    it: reads never block, mutations run on its worker pool,
    and ``GET /v1/jobs/{id}?wait=`` long-polls instead of spinning.  With
    ``--state-dir`` the control plane is durable: every mutation is
    journaled before it is acked (``--sync group`` shares one fsync
    per commit convoy), and a restart from the same directory recovers
    tenants, tokens, quotas, apps, and job handles.  ``--replicas N``
    adds N WAL-tailing read-replica processes behind a shared
    ``SO_REUSEPORT`` front port; one is promoted to writer if the
    writer dies (``--max-lag-records`` bounds read staleness).
``replica status``
    Topology and per-member replication lag for a running serving
    plane (reads the plane's ``cluster.json``, scrapes each member).
``state {inspect,compact}``
    Operator tools over a ``--state-dir``: summarise the journal and
    its last checkpoint (and print tenant tokens), or replay-verify
    the history and append a fresh checkpoint.  ``inspect`` derives
    its journal summary (record counts by type, bytes, records since
    the checkpoint) from the same metrics registry primitives the live
    server exposes.
``metrics``
    Scrape a running server's metrics endpoint and print it —
    Prometheus text by default (families sorted, histogram
    p50/p95/p99 rendered inline), the ``/v1/metrics`` JSON snapshot
    with ``--json``.  No tenant token needed (the endpoint is
    unauthenticated on purpose: scrape agents are not tenants).
``slow``
    Fetch retained traces from a live server (``/v1/traces``) and
    print a span waterfall per trace — frontend decode, queue wait,
    gateway handler, journal append/fsync/commit, long-poll park.
``slo status``
    Per-tenant windowed SLO attainment and error-budget burn, read
    from the ``slo_*`` gauges a live server exports.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
import time
from contextlib import contextmanager
from typing import List, Optional

from repro.runtime import PLACEMENT_POLICIES
from repro.utils.tables import ascii_table

# Everything else is imported inside the command that uses it: this
# module is the entry point of every command, so a module-level import
# here is paid by ``repro serve`` too.

#: The figure drivers, ``repro.experiments.figures.figure<which>``.
_FIGURES = ("6b", "8", "9", "10", "11", "12", "13", "14", "15")


def _strategy(name: str) -> str:
    """One ``compare --strategies`` item, checked when it is parsed
    rather than listed as choices, so that building the parser does
    not import the experiment harness."""
    from repro.experiments.protocol import STRATEGY_NAMES

    if name not in STRATEGY_NAMES:
        choices = ", ".join(map(repr, STRATEGY_NAMES))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r} (choose from {choices})"
        )
    return name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ease.ml reproduction (VLDB 2018) command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="print the Figure 8 dataset table")

    fig = sub.add_parser("figure", help="reproduce one paper figure")
    fig.add_argument("which", choices=sorted(_FIGURES))
    fig.add_argument("--trials", type=int, default=None,
                     help="number of repetitions (default: per-figure)")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--out", type=str, default=None,
                     help="also write the rendered report to this file")

    cmp_parser = sub.add_parser(
        "compare", help="race strategies on one dataset"
    )
    cmp_parser.add_argument(
        "--dataset", default="DEEPLEARNING",
        help="a Figure 8 dataset name (default: DEEPLEARNING)",
    )
    cmp_parser.add_argument(
        "--strategies", nargs="+", default=["easeml", "round_robin"],
        type=_strategy, metavar="STRATEGY",
    )
    cmp_parser.add_argument("--trials", type=int, default=10)
    cmp_parser.add_argument("--budget", type=float, default=0.3,
                            help="budget fraction (default 0.3)")
    cmp_parser.add_argument("--cost-aware", action="store_true")
    cmp_parser.add_argument("--seed", type=int, default=0)
    cmp_parser.add_argument("--json", type=str, default=None,
                            help="save the raw result as JSON")
    cmp_parser.add_argument("--csv", type=str, default=None,
                            help="save the loss curves as CSV")

    rt = sub.add_parser(
        "runtime",
        help="run a workload on the discrete-event cluster runtime",
    )
    rt.add_argument(
        "--dataset", default="DEEPLEARNING",
        help="Figure 8 dataset backing job costs/accuracies "
        "(default: DEEPLEARNING)",
    )
    rt.add_argument(
        "--policy", default="partition", choices=sorted(PLACEMENT_POLICIES),
        help="device-placement policy (default: partition)",
    )
    rt.add_argument("--arrival", default="poisson",
                    choices=["poisson", "deterministic"])
    rt.add_argument("--rate", type=float, default=4.0,
                    help="job arrivals per unit time (default 4.0)")
    rt.add_argument("--jobs", type=int, default=40,
                    help="number of job submissions (default 40)")
    rt.add_argument("--n-gpus", type=int, default=24,
                    help="pool size (default 24, as deployed)")
    rt.add_argument("--scaling-efficiency", type=float, default=0.9)
    rt.add_argument("--preemption-overhead", type=float, default=0.0,
                    help="single-GPU work units lost per preemption "
                    "(checkpoint/restore cost; default 0.0)")
    rt.add_argument("--seed", type=int, default=0)
    rt.add_argument("--arrivals", type=str, default=None, metavar="TRACE",
                    help="drive the multi-tenant scheduler (HYBRID user "
                    "picking + GP-UCB model picking) over the runtime, "
                    "consuming tenant arrive/depart items from this "
                    "workload trace (JSONL) mid-run; job submissions "
                    "come from the live scheduler, not the trace")
    rt.add_argument("--trace-in", type=str, default=None,
                    help="replay a recorded workload trace (JSONL)")
    rt.add_argument("--trace-out", type=str, default=None,
                    help="write the workload trace (JSONL)")
    rt.add_argument("--events-out", type=str, default=None,
                    help="write the execution event log (JSONL)")

    trace = sub.add_parser(
        "trace", help="tools over recorded JSONL event logs"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_diff = trace_sub.add_parser(
        "diff",
        help="first-divergence report between two event logs",
    )
    trace_diff.add_argument("left", help="first event-log JSONL file")
    trace_diff.add_argument("right", help="second event-log JSONL file")

    srv = sub.add_parser(
        "serve", help="start the multi-tenant HTTP service (v1 API)"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8080,
                     help="listen port (0 picks a free one)")
    srv.add_argument(
        "--placement", default="partition",
        choices=sorted(PLACEMENT_POLICIES),
        help="device-placement policy for training jobs",
    )
    srv.add_argument("--n-gpus", type=int, default=8)
    srv.add_argument("--scaling-efficiency", type=float, default=0.9)
    srv.add_argument("--preemption-overhead", type=float, default=0.0)
    srv.add_argument("--min-examples", type=int, default=10)
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument(
        "--tenant", action="append", default=None, metavar="NAME",
        help="create a tenant and print its token (repeatable; "
        "default: one tenant named 'default')",
    )
    srv.add_argument(
        "--state-dir", type=str, default=None, metavar="DIR",
        help="durable control plane: journal every mutation under DIR "
        "and recover tenants/tokens/apps/job handles on restart.  On "
        "recovery the backend shape stored in DIR (placement, pool "
        "size, seed, ...) wins over the flags above — deterministic "
        "replay must match the journal",
    )
    srv.add_argument(
        "--sync", default=None, choices=["fsync", "buffered", "group"],
        help="journal durability (fsync: every record hits disk "
        "before the ack; group: concurrent mutations share one fsync "
        "per commit convoy, still acked only after a covering flush; "
        "buffered: OS-buffered writes; default fsync, or whatever the "
        "state dir was created with)",
    )
    srv.add_argument(
        "--snapshot-every", type=int, default=None, metavar="N",
        help="append a state-digest checkpoint record to the journal "
        "every N records (default 256; 0 disables automatic "
        "checkpoints)",
    )
    srv.add_argument(
        "--in-flight", default="requeue",
        choices=["requeue", "mark-lost"],
        help="what recovery does with jobs that were in flight at the "
        "crash: requeue them on the rebuilt cluster, or mark them "
        "lost (terminal 'cancelled', disposition 'lost')",
    )
    srv.add_argument(
        "--access-log", action="store_true",
        help="log one line per HTTP request to stderr (method, path, "
        "status, latency, request id); off by default",
    )
    srv.add_argument(
        "--log-json", action="store_true",
        help="structured logging: access and lifecycle events as "
        "JSON lines on stderr (implies --access-log)",
    )
    srv.add_argument(
        "--no-metrics", action="store_true",
        help="disable the metrics registry (instruments become "
        "no-ops; /metrics serves an empty exposition)",
    )
    srv.add_argument(
        "--metrics-token", default=None, metavar="TOKEN",
        help="require 'Authorization: Bearer TOKEN' on /metrics, "
        "/v1/metrics and /v1/traces (by default scrapes are open, "
        "which exposes tenant names and per-tenant traffic to any "
        "network peer)",
    )
    srv.add_argument(
        "--trace-sample", type=float, default=None, metavar="RATE",
        help="head-sampling rate for request tracing in [0, 1] "
        "(default 1.0: every request carries spans; completed traces "
        "are then tail-sampled — errors and the slowest per route are "
        "always kept.  0 disables tracing entirely)",
    )
    srv.add_argument(
        "--slo-config", default=None, metavar="FILE",
        help="per-tenant SLO objectives as JSON: "
        '{"default": {"latency_ms": 1000, "target": 0.99}, '
        '"tenants": {"name": {...}}}.  Attainment and error-budget '
        "burn gauges land on /metrics; `repro slo status` reads them",
    )
    srv.add_argument(
        "--infer-batch-window", default="adaptive", metavar="MODE",
        help="inference cross-request coalescing: 'adaptive' (default; "
        "a work-conserving convoy — one predict in flight per app, "
        "requests that arrive meanwhile ride the next one, nothing "
        "waits on a timer), 'off' (vectorized predict, no "
        "coalescing), or an explicit timer in seconds in front of the "
        "convoy (e.g. 0.002)",
    )
    srv.add_argument(
        "--infer-cache", type=int, default=4096, metavar="ROWS",
        help="prediction-cache capacity in rows, keyed by (app, model "
        "version, canonical row bytes) and invalidated on promotion "
        "(default 4096; 0 disables)",
    )
    srv.add_argument(
        "--infer-rate", type=float, default=None, metavar="ROWS_PER_S",
        help="default per-tenant inference rate limit in rows/second "
        "(token bucket; requests over it answer 429 with Retry-After)."
        "  Default: unlimited; per-tenant quotas override",
    )
    srv.add_argument(
        "--replicas", type=int, default=0, metavar="N",
        help="scale-out serving: run N WAL-tailing read-replica "
        "processes next to the writer, all sharing the front port "
        "(SO_REUSEPORT).  Replicas serve reads, answer writes with a "
        "redirect to the writer, and one of them is promoted to "
        "writer if the writer dies.  Requires --state-dir",
    )
    srv.add_argument(
        "--max-lag-records", type=int, default=None, metavar="M",
        help="staleness bound for replica reads: a replica more than "
        "M journal records behind the writer answers reads with 503 "
        "UNAVAILABLE_RECOVERING instead of stale data (default: "
        "serve regardless of lag; every response carries "
        "X-Replica-Lag either way)",
    )

    met = sub.add_parser(
        "metrics",
        help="scrape a live server's metrics endpoint and print it",
    )
    met.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="server base URL (default http://127.0.0.1:8080)",
    )
    met.add_argument(
        "--json", action="store_true",
        help="fetch the JSON snapshot (/v1/metrics, with derived "
        "p50/p95/p99) instead of the Prometheus text exposition",
    )
    met.add_argument(
        "--metrics-token", default=None, metavar="TOKEN",
        help="bearer token to send, for servers started with "
        "--metrics-token",
    )

    st = sub.add_parser(
        "state", help="operator tools over a durable state directory"
    )
    state_sub = st.add_subparsers(dest="state_command", required=True)
    inspect = state_sub.add_parser(
        "inspect",
        help="summarise a state directory (journal, last checkpoint, "
        "tenants and their tokens, job handles)",
    )
    inspect.add_argument("--state-dir", required=True, metavar="DIR")
    inspect.add_argument(
        "--json", action="store_true",
        help="machine-readable output (includes tenant tokens)",
    )
    compact = state_sub.add_parser(
        "compact",
        help="replay-verify the history and append a fresh checkpoint "
        "(the journal is never rewritten or truncated)",
    )
    compact.add_argument("--state-dir", required=True, metavar="DIR")

    repl = sub.add_parser(
        "replica",
        help="operator tools over a scale-out serving plane",
    )
    replica_sub = repl.add_subparsers(
        dest="replica_command", required=True
    )
    status = replica_sub.add_parser(
        "status",
        help="cluster topology and per-member replication lag (reads "
        "cluster.json and scrapes each member's metrics endpoint)",
    )
    status.add_argument("--state-dir", required=True, metavar="DIR")
    status.add_argument(
        "--json", action="store_true",
        help="machine-readable output",
    )
    status.add_argument(
        "--metrics-token", default=None, metavar="TOKEN",
        help="bearer token for members started with --metrics-token",
    )

    slow = sub.add_parser(
        "slow",
        help="fetch retained traces from a live server and print a "
        "span waterfall per trace (slowest first)",
    )
    slow.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="server base URL (default http://127.0.0.1:8080)",
    )
    slow.add_argument(
        "--route", default=None, metavar="TEMPLATE",
        help='only traces for this route template, e.g. "/v1/jobs/{id}"',
    )
    slow.add_argument(
        "--tenant", default=None, metavar="NAME",
        help="only traces for this tenant",
    )
    slow.add_argument(
        "--min-ms", type=float, default=0.0, metavar="MS",
        help="only traces at least this slow (default 0)",
    )
    slow.add_argument(
        "--limit", type=int, default=10,
        help="maximum traces to print (default 10)",
    )
    slow.add_argument(
        "--json", action="store_true",
        help="print the raw trace JSON instead of waterfalls",
    )
    slow.add_argument(
        "--metrics-token", default=None, metavar="TOKEN",
        help="bearer token to send, for servers started with "
        "--metrics-token",
    )

    slo = sub.add_parser(
        "slo", help="per-tenant SLO tooling over a live server"
    )
    slo_sub = slo.add_subparsers(dest="slo_command", required=True)
    slo_status = slo_sub.add_parser(
        "status",
        help="windowed SLO attainment and error-budget burn per "
        "tenant (reads the slo_* gauges from /v1/metrics)",
    )
    slo_status.add_argument(
        "--url", default="http://127.0.0.1:8080",
        help="server base URL (default http://127.0.0.1:8080)",
    )
    slo_status.add_argument(
        "--json", action="store_true",
        help="machine-readable output",
    )
    slo_status.add_argument(
        "--metrics-token", default=None, metavar="TOKEN",
        help="bearer token to send, for servers started with "
        "--metrics-token",
    )
    return parser


def _cmd_stats() -> int:
    from repro.datasets import load_benchmark_suite

    suite = load_benchmark_suite(seed=0)
    rows = []
    for name, dataset in suite.items():
        stats = dataset.statistics()
        rows.append(
            [
                stats["name"],
                stats["n_users"],
                stats["n_models"],
                stats["quality"],
                stats["cost"],
            ]
        )
    print(
        ascii_table(
            ["Dataset", "# Users", "# Models", "Quality", "Cost"],
            rows,
            title="Figure 8: Statistics of Datasets",
        )
    )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import ExperimentConfig, figures

    driver = getattr(figures, f"figure{args.which}")
    kwargs = {"seed": args.seed}
    if args.trials is not None and args.which != "8":
        try:  # the check each driver's config makes, before any work
            ExperimentConfig(n_trials=args.trials)
        except ValueError as exc:
            print(f"cannot run figure {args.which}: {exc}", file=sys.stderr)
            return 2
        kwargs["n_trials"] = args.trials
    report = driver(**kwargs)
    rendered = report.render()
    print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"\nreport written to {args.out}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.datasets import load_benchmark_suite
    from repro.experiments import ExperimentConfig, run_experiment
    from repro.experiments.report import save_curves_csv, save_result_json

    try:
        config = ExperimentConfig(
            n_trials=args.trials,
            budget_fraction=args.budget,
            cost_aware=args.cost_aware,
            base_seed=args.seed,
        )
    except ValueError as exc:
        print(f"cannot compare: {exc}", file=sys.stderr)
        return 2
    suite = load_benchmark_suite(seed=args.seed)
    if args.dataset not in suite:
        print(
            f"unknown dataset {args.dataset!r}; choose from "
            f"{sorted(suite)}",
            file=sys.stderr,
        )
        return 2
    result = run_experiment(suite[args.dataset], args.strategies, config)
    print(result.render())
    if len(args.strategies) > 1:
        reference = args.strategies[0]
        rows = [
            [name, ratio, threshold]
            for name, (ratio, threshold) in result.speedups(
                reference
            ).items()
        ]
        print()
        print(
            ascii_table(
                ["competitor", "max speedup (x)", "at threshold"],
                rows,
                title=f"speedup of {reference}",
                precision=2,
            )
        )
    if args.json:
        save_result_json(result, args.json)
        print(f"raw result written to {args.json}")
    if args.csv:
        save_curves_csv(result, args.csv)
        print(f"curves written to {args.csv}")
    return 0


def _cmd_runtime_arrivals(args: argparse.Namespace, dataset) -> int:
    """Live scheduler + membership churn from a recorded trace."""
    import numpy as np

    from repro.core.beta import AlgorithmOneBeta
    from repro.core.model_picking import GPUCBPicker
    from repro.core.multitenant import MultiTenantScheduler
    from repro.core.user_picking import HybridPicker
    from repro.engine import GPUPool
    from repro.engine.trainer import TraceTrainer
    from repro.runtime import (
        AsyncClusterOracle,
        WorkloadTrace,
        make_placement,
        makespan,
        write_events_jsonl,
    )

    try:
        trace = WorkloadTrace.load(args.arrivals)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(
            f"cannot load arrivals trace {args.arrivals!r}: {exc}",
            file=sys.stderr,
        )
        return 2
    membership = trace.membership()
    if not len(membership):
        print(
            f"trace {args.arrivals!r} contains no arrive/depart items",
            file=sys.stderr,
        )
        return 2
    bad = [u for u in membership.users() if u >= dataset.n_users]
    if bad:
        print(
            f"trace names tenant(s) {bad} but dataset {args.dataset} "
            f"only has {dataset.n_users} users",
            file=sys.stderr,
        )
        return 2
    trainer = TraceTrainer(dataset)
    oracle = AsyncClusterOracle(
        trainer,
        GPUPool(args.n_gpus, scaling_efficiency=args.scaling_efficiency),
        make_placement(args.policy),
        preemption_overhead=args.preemption_overhead,
    )
    n_models = dataset.n_models

    def picker_factory(user: int) -> GPUCBPicker:
        return GPUCBPicker(
            0.09 * np.eye(n_models),
            AlgorithmOneBeta(n_models),
            oracle.costs(user),
            noise=0.05,
            seed=args.seed * 10_000 + user,
        )

    # The run starts with an empty active set; every tenant joins (and
    # leaves) through the trace's membership events.
    scheduler = MultiTenantScheduler(
        oracle, {}, HybridPicker(seed=args.seed)
    )
    result = oracle.run_concurrent(
        scheduler,
        max_jobs=args.jobs,
        arrivals=membership,
        picker_factory=picker_factory,
    )
    serves = result.serves_by_tenant()
    n_arrive = sum(1 for i in membership if i.action == "arrive")
    n_depart = sum(1 for i in membership if i.action == "depart")
    rows = [
        ["jobs completed", result.n_steps],
        ["tenant arrivals (trace)", n_arrive],
        ["tenant departures (trace)", n_depart],
        ["tenants served", len(serves)],
        ["tenants active at end", len(scheduler.active_ids())],
        ["stalled picks", oracle.stalled_picks],
        ["preemptions", oracle.runtime.preemption_count],
        ["makespan", round(makespan(oracle.log), 4)],
    ]
    print(
        ascii_table(
            ["metric", "value"],
            rows,
            title=f"runtime: churn workload ({args.policy} placement, "
            f"{args.dataset})",
        )
    )
    print(
        "serves by tenant: "
        + ", ".join(f"{u}:{n}" for u, n in sorted(serves.items()))
    )
    if args.events_out:
        write_events_jsonl(oracle.log, args.events_out)
        print(
            f"event log ({len(oracle.log)} events) written to "
            f"{args.events_out}"
        )
    return 0


def _cmd_runtime(args: argparse.Namespace) -> int:
    from repro.datasets import load_benchmark_suite
    from repro.engine import GPUPool
    from repro.engine.events import EventKind
    from repro.runtime import (
        ClusterRuntime,
        WorkloadGenerator,
        WorkloadTrace,
        make_placement,
        makespan,
        replay_trace,
        time_averaged_regret,
        write_events_jsonl,
    )

    suite = load_benchmark_suite(seed=args.seed)
    if args.dataset not in suite:
        print(
            f"unknown dataset {args.dataset!r}; choose from "
            f"{sorted(suite)}",
            file=sys.stderr,
        )
        return 2
    dataset = suite[args.dataset]
    if args.arrivals:
        return _cmd_runtime_arrivals(args, dataset)
    if args.trace_in:
        try:
            trace = WorkloadTrace.load(args.trace_in)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(
                f"cannot load trace {args.trace_in!r}: {exc}",
                file=sys.stderr,
            )
            return 2
    else:
        trace = WorkloadGenerator.from_dataset(
            dataset, arrival=args.arrival, rate=args.rate, seed=args.seed
        ).generate(args.jobs)
    runtime = ClusterRuntime(
        GPUPool(args.n_gpus, scaling_efficiency=args.scaling_efficiency),
        make_placement(args.policy),
        preemption_overhead=args.preemption_overhead,
    )
    replay_trace(trace, runtime)

    finished = runtime.finished_jobs()
    span = makespan(runtime.log)
    rows = [
        ["jobs submitted", trace.n_jobs],
        ["jobs finished", len(finished)],
        ["jobs failed", len(runtime.failed_jobs())],
        ["preemptions", runtime.preemption_count],
        ["makespan", round(span, 4)],
    ]
    trace_users = trace.users()
    if span > 0 and trace_users and max(trace_users) < dataset.n_users:
        rows.append([
            "time-averaged regret",
            round(
                time_averaged_regret(runtime.log, dataset.best_qualities()),
                4,
            ),
        ])
    print(
        ascii_table(
            ["metric", "value"],
            rows,
            title=f"runtime: {args.policy} placement on "
            f"{args.dataset} workload",
        )
    )
    if args.trace_out:
        trace.save(args.trace_out)
        print(f"workload trace written to {args.trace_out}")
    if args.events_out:
        write_events_jsonl(runtime.log, args.events_out)
        n_failed = len(runtime.log.filter(EventKind.JOB_FAILED))
        print(
            f"event log ({len(runtime.log)} events, {n_failed} failures) "
            f"written to {args.events_out}"
        )
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from repro.runtime import first_divergence, read_events_jsonl

    try:
        left = read_events_jsonl(args.left)
        right = read_events_jsonl(args.right)
    except (OSError, ValueError) as exc:
        print(f"cannot diff event logs: {exc}", file=sys.stderr)
        return 2
    divergence = first_divergence(left, right)
    if divergence is None:
        print(f"event logs are identical ({len(left)} events)")
        return 0
    print(divergence.describe())
    return 1


def _service_observability(args: argparse.Namespace, metrics):
    """Tracer/SLO overrides for ``serve``; (None, None) = defaults."""
    from repro.obs import NULL_TRACER, SLOEngine, Tracer, load_slo_config

    tracer = None
    rate = getattr(args, "trace_sample", None)
    if rate is not None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"--trace-sample must be in [0, 1], got {rate}"
            )
        if rate == 0.0 or not metrics.enabled:
            tracer = NULL_TRACER
        else:
            tracer = Tracer(sample_rate=rate)
    slo = None
    path = getattr(args, "slo_config", None)
    if path:
        default, objectives = load_slo_config(path)
        slo = SLOEngine(
            registry=metrics, objectives=objectives, default=default
        )
    return tracer, slo


def _infer_plane_config(args: argparse.Namespace):
    """Build an :class:`InferPlaneConfig` from serve flags, or None.

    None means "keep the gateway's default plane" so programmatic
    callers of :func:`build_service` with a bare namespace are not
    forced to carry the infer flags.
    """
    window_text = getattr(args, "infer_batch_window", None)
    cache_rows = getattr(args, "infer_cache", None)
    rate = getattr(args, "infer_rate", None)
    if window_text is None and cache_rows is None and rate is None:
        return None
    from repro.infer import InferPlaneConfig, parse_batch_window

    mode, window = parse_batch_window(window_text or "adaptive")
    kwargs = dict(mode=mode, window=window, default_rate=rate)
    if cache_rows is not None:
        if cache_rows < 0:
            raise ValueError(
                f"--infer-cache must be >= 0 rows, got {cache_rows}"
            )
        kwargs["cache_rows"] = cache_rows
    return InferPlaneConfig(**kwargs)


def build_service(args: argparse.Namespace):
    """Construct (gateway, {tenant: token}, http server) for ``serve``.

    Split out of :func:`_cmd_serve` so tests can exercise the whole
    wiring without blocking on ``serve_forever``.  Returns a fourth
    element — the :class:`~repro.persist.RecoveryReport` or None —
    when ``--state-dir`` is set.
    """
    from repro.obs import AccessLogger, MetricsRegistry
    from repro.service import ServiceGateway, serve as bind_http

    metrics = MetricsRegistry(
        enabled=not getattr(args, "no_metrics", False)
    )
    log_json = getattr(args, "log_json", False)
    access_log = AccessLogger(
        json_lines=log_json,
        enabled=log_json or getattr(args, "access_log", False),
    )
    tracer, slo = _service_observability(args, metrics)
    kwargs = dict(
        placement=args.placement,
        n_gpus=args.n_gpus,
        scaling_efficiency=args.scaling_efficiency,
        preemption_overhead=args.preemption_overhead,
        min_examples=args.min_examples,
        seed=args.seed,
        metrics=metrics,
    )
    report = None
    if getattr(args, "state_dir", None):
        from repro.persist import open_gateway

        gateway, report = open_gateway(
            args.state_dir,
            sync=args.sync,
            snapshot_every=args.snapshot_every,
            in_flight=args.in_flight,
            **kwargs,
        )
        if report is not None and gateway.persist_config is not None:
            # Recovery honoured the stored backend shape; say so when
            # the command line asked for something different.
            stored = gateway.persist_config
            ignored = {
                key: (value, stored[key])
                for key, value in kwargs.items()
                if key in stored and stored[key] != value
            }
            for key, (asked, kept) in sorted(ignored.items()):
                print(
                    f"note: --{key.replace('_', '-')} {asked} ignored; "
                    f"the state directory was created with {key}="
                    f"{kept} and replay must match it (start a fresh "
                    "--state-dir to change the backend shape)",
                    file=sys.stderr,
                )
    else:
        gateway = ServiceGateway(**kwargs)
    # Applied as attribute overrides so the durable path works too:
    # open_gateway only forwards the backend-shape kwargs, and the
    # frontend reads gateway.tracer at bind time, below.
    if tracer is not None:
        gateway.tracer = tracer
    if slo is not None:
        gateway.slo = slo
    infer_config = _infer_plane_config(args)
    if infer_config is not None:
        gateway.configure_infer_plane(infer_config)
    existing = set(gateway.tenant_names())
    for name in args.tenant or ["default"]:
        if name not in existing:
            gateway.create_tenant(name)
    tokens = {
        name: gateway.tenant_token(name) for name in gateway.tenant_names()
    }
    server = bind_http(
        gateway,
        host=args.host,
        port=args.port,
        access_log=access_log,
        metrics_token=getattr(args, "metrics_token", None),
    )
    return gateway, tokens, server, report


@contextmanager
def _stopped_by_signals(stop):
    """Inside the block SIGINT and SIGTERM both call ``stop()``.

    ``repro serve`` stops *through* its event loop rather than by a
    ``KeyboardInterrupt`` landing in whatever coroutine happens to be
    running, so Ctrl-C and a supervisor's ``kill`` end the same way:
    connections closed, ``serve_stopped`` logged, journal closed,
    exit 0.  A second signal interrupts a stop that hangs.
    """
    if threading.current_thread() is not threading.main_thread():
        yield  # signal handlers can only be installed from main
        return
    stopping = []

    def handler(signum, frame):
        if stopping:
            raise KeyboardInterrupt
        stopping.append(signum)
        stop()

    signals = (signal.SIGINT, signal.SIGTERM)
    previous = [signal.signal(signum, handler) for signum in signals]
    try:
        yield
    finally:
        for signum, old in zip(signals, previous):
            signal.signal(signum, old)


def _interrupt() -> None:
    raise KeyboardInterrupt


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.persist import JournalError

    if getattr(args, "replicas", 0):
        return _cmd_serve_plane(args)
    try:
        gateway, tokens, server, report = build_service(args)
    except (ValueError, OSError, JournalError) as exc:
        # OSError covers bind failures (port in use, bad host).
        print(f"cannot start the service: {exc}", file=sys.stderr)
        return 2
    if report is not None:
        print(report.describe())
    try:
        # Armed before the readiness line: whoever reads "press
        # Ctrl-C to stop" may signal the server right away.
        with _stopped_by_signals(server.shutdown):
            print(f"ease.ml service listening on {server.url} (API v1)")
            for name, token in tokens.items():
                print(f"tenant {name}: {token}")
            print("press Ctrl-C to stop")
            server.access_log.event(
                "serve_started",
                url=server.url,
                tenants=sorted(tokens),
            )
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.access_log.event("serve_stopped", url=server.url)
        server.server_close()
        if gateway.store is not None:
            gateway.store.close()
    return 0


def _cmd_serve_plane(args: argparse.Namespace) -> int:
    """``serve --replicas N``: writer + N replicas + front tier."""
    from repro.persist import JournalError
    from repro.replica import ServingPlane

    if not getattr(args, "state_dir", None):
        print(
            "--replicas requires --state-dir: replicas tail the "
            "writer's journal",
            file=sys.stderr,
        )
        return 2
    plane = None
    try:
        plane = ServingPlane(
            args.state_dir,
            host=args.host,
            port=args.port,
            replicas=args.replicas,
            max_lag_records=args.max_lag_records,
            tenants=args.tenant or ["default"],
            sync=args.sync,
            snapshot_every=args.snapshot_every,
            in_flight=args.in_flight,
            gateway_kwargs=dict(
                placement=args.placement,
                n_gpus=args.n_gpus,
                scaling_efficiency=args.scaling_efficiency,
                preemption_overhead=args.preemption_overhead,
                min_examples=args.min_examples,
                seed=args.seed,
            ),
        )
        plane.start()
    except (ValueError, OSError, JournalError, RuntimeError) as exc:
        print(f"cannot start the serving plane: {exc}", file=sys.stderr)
        if plane is not None:  # None: the constructor itself refused
            plane.stop()
        return 2
    print(
        f"ease.ml serving plane on {plane.front_url} "
        "(SO_REUSEPORT; API v1)"
    )
    print(f"  writer: {plane.writer_url}")
    for url in plane.replica_urls():
        print(f"  replica: {url}")
    for name, token in plane.tokens.items():
        print(f"tenant {name}: {token}")
    try:
        with _stopped_by_signals(_interrupt):
            print("press Ctrl-C to stop")
            while True:
                time.sleep(1.0)
    except KeyboardInterrupt:
        pass
    finally:
        plane.stop()
    return 0


def _scrape_json_metrics(url, path, token=None, timeout=5.0):
    """GET ``url+path`` and parse the JSON body; None on any failure."""
    import json

    from repro.service.client import _get_once

    try:
        status, body = _get_once(url, path, token=token, timeout=timeout)
        if status != 200:
            return None
        return json.loads(body.decode("utf-8"))
    except (ConnectionError, OSError, ValueError):
        return None


def _cmd_replica(args: argparse.Namespace) -> int:
    """``replica status``: topology + per-member lag."""
    import json

    from repro.replica import read_cluster
    from repro.service.http import METRICS_JSON_PATH

    cluster = read_cluster(args.state_dir)
    if cluster is None:
        print(
            f"{args.state_dir} has no cluster.json — start the plane "
            "with `repro serve --replicas N --state-dir ...`",
            file=sys.stderr,
        )
        return 2

    def gauge(document, name):
        if not document:
            return None
        metrics = document.get("metrics", document)
        series = metrics.get(name, {}).get("series") or []
        return series[0]["value"] if series else None

    def histogram(document, name):
        """count + p50/p95/p99 of a histogram family, or None."""
        if not document:
            return None
        metrics = document.get("metrics", document)
        series = metrics.get(name, {}).get("series") or []
        if not series:
            return None
        entry = series[0]
        return {
            key: entry.get(key) for key in ("count", "p50", "p95", "p99")
        }

    members = []
    for member in cluster.get("members", []):
        metrics = _scrape_json_metrics(
            member.get("url", ""),
            METRICS_JSON_PATH,
            token=getattr(args, "metrics_token", None),
        )
        members.append(
            {
                "name": member.get("name"),
                "role": member.get("role"),
                "url": member.get("url"),
                "pid": member.get("pid"),
                "reachable": metrics is not None,
                "applied_seq": gauge(metrics, "replica_applied_seq"),
                "lag_records": gauge(metrics, "replica_lag_records"),
                "lag_seconds": gauge(metrics, "replica_lag_seconds"),
                "is_writer": gauge(metrics, "replica_is_writer"),
                # The writer's decision latency, next to its replicas'
                # lag: percentiles of one serving-path model pick.
                "pick_seconds": histogram(
                    metrics, "scheduler_pick_seconds"
                ),
            }
        )
    out = {
        "front_url": cluster.get("front_url"),
        "writer_url": cluster.get("writer_url"),
        "promotions": cluster.get("promotions", 0),
        "members": members,
    }
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    print(f"front:  {out['front_url']}")
    print(f"writer: {out['writer_url']}")
    if out["promotions"]:
        print(f"promotions: {out['promotions']}")
    for member in members:
        lag = member["lag_records"]
        lag_text = "-" if lag is None else f"{int(lag)}"
        applied = member["applied_seq"]
        applied_text = "-" if applied is None else f"{int(applied)}"
        state = "up" if member["reachable"] else "unreachable"
        pick = member["pick_seconds"]
        if pick and pick.get("count"):
            pick_text = (
                f" pick_p50={pick['p50'] * 1e6:.0f}us"
                f" p95={pick['p95'] * 1e6:.0f}us"
                f" p99={pick['p99'] * 1e6:.0f}us"
            )
        else:
            pick_text = ""
        print(
            f"  {member['name']:<12} {member['role']:<8} "
            f"{member['url']:<28} {state:<12} "
            f"applied={applied_text} lag={lag_text}{pick_text}"
        )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Scrape a live server's metrics endpoint and print the body."""
    from urllib.parse import urlparse

    from repro.service.client import _get_once
    from repro.service.http import METRICS_JSON_PATH, METRICS_PATH

    parsed = urlparse(args.url)
    if parsed.scheme not in ("http", ""):
        print(
            f"only http:// endpoints are supported, got {args.url!r}",
            file=sys.stderr,
        )
        return 2
    path = METRICS_JSON_PATH if args.json else METRICS_PATH
    try:
        status, raw = _get_once(
            args.url,
            path,
            token=getattr(args, "metrics_token", None),
            timeout=10.0,
        )
    except (ConnectionError, OSError) as exc:
        print(
            f"cannot scrape {args.url}{path}: {exc}", file=sys.stderr
        )
        return 2
    body = raw.decode("utf-8", "replace")
    if status != 200:
        print(
            f"server answered HTTP {status} for {path}: "
            f"{body.strip()}",
            file=sys.stderr,
        )
        return 2
    if not args.json:
        body = _render_metrics_text(body)
    sys.stdout.write(body if body.endswith("\n") else body + "\n")
    return 0


def _parse_prometheus_families(body: str):
    """Split exposition text into a preamble and ``# HELP`` blocks."""
    preamble: list = []
    families: list = []
    current = None
    for line in body.splitlines():
        if line.startswith("# HELP "):
            current = {
                "name": line.split(" ", 3)[2], "kind": "", "lines": [line]
            }
            families.append(current)
        elif current is None:
            if line.strip():
                preamble.append(line)
        elif line.strip():
            if line.startswith("# TYPE "):
                parts = line.split(" ")
                if len(parts) >= 4:
                    current["kind"] = parts[3]
            current["lines"].append(line)
    return preamble, families


def _bucket_percentile(bounds, counts, total, q):
    """histogram_quantile over per-bucket counts (not cumulative)."""
    rank = (q / 100.0) * total
    cumulative = 0.0
    for index, count in enumerate(counts):
        previous = cumulative
        cumulative += count
        if cumulative >= rank and count > 0:
            if index >= len(bounds):
                return bounds[-1]  # +Inf bucket: clamp
            upper = bounds[index]
            lower = bounds[index - 1] if index > 0 else 0.0
            fraction = (rank - previous) / count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return bounds[-1]


def _histogram_percentile_lines(name: str, lines) -> list:
    """Derived ``# name{labels} p50=... p95=... p99=...`` comments."""
    import math
    import re

    pair_re = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
    series: dict = {}
    for line in lines:
        if not line.startswith(name + "_bucket"):
            continue
        brace, end = line.find("{"), line.rfind("}")
        if brace < 0 or end < brace:
            continue
        value = line[end + 1 :].split()
        if not value:
            continue
        le = None
        rest = []
        for key, val in pair_re.findall(line[brace + 1 : end]):
            if key == "le":
                le = math.inf if val == "+Inf" else float(val)
            else:
                rest.append(f'{key}="{val}"')
        if le is None:
            continue
        series.setdefault(",".join(rest), []).append(
            (le, float(value[0]))
        )
    out = []
    for key in sorted(series):
        buckets = sorted(series[key])
        bounds = [b for b, _ in buckets if b != math.inf]
        cumulative = [c for _, c in buckets]
        counts = [cumulative[0]] + [
            after - before
            for before, after in zip(cumulative, cumulative[1:])
        ]
        total = cumulative[-1]
        if total <= 0 or not bounds:
            continue
        quantiles = " ".join(
            f"p{q}={_bucket_percentile(bounds, counts, total, q):.6g}"
            for q in (50, 95, 99)
        )
        labels = f"{{{key}}}" if key else ""
        out.append(f"# {name}{labels} {quantiles}")
    return out


def _render_metrics_text(body: str) -> str:
    """``repro metrics`` text view: families sorted by name, each
    histogram series annotated with derived p50/p95/p99 comments."""
    preamble, families = _parse_prometheus_families(body)
    out = list(preamble)
    for family in sorted(families, key=lambda f: f["name"]):
        out.extend(family["lines"])
        if family["kind"] == "histogram":
            out.extend(
                _histogram_percentile_lines(
                    family["name"], family["lines"]
                )
            )
    if not out:
        return body
    return "\n".join(out) + "\n"


def _render_waterfall(trace: dict, width: int = 44) -> str:
    """One retained trace as an indented span waterfall."""
    total = max(float(trace.get("duration_ms", 0.0)), 1e-9)
    lines = [
        f"trace {trace.get('trace_id', '?')}  {trace.get('route', '?')}"
        f"  status={trace.get('status', '?')}  {total:.3f} ms"
        f"  tenant={trace.get('tenant') or '-'}"
        f"  frontend={trace.get('frontend') or '-'}"
        f"  kept={trace.get('kept', '?')}"
        + ("  ERROR" if trace.get("error") else "")
    ]
    spans = list(trace.get("spans", []))
    by_sid = {s.get("sid"): s for s in spans}

    def depth(span: dict) -> int:
        seen: set = set()
        level = 0
        parent = span.get("parent")
        while parent is not None and parent in by_sid and parent not in seen:
            seen.add(parent)
            level += 1
            parent = by_sid[parent].get("parent")
        return level

    name_width = max(
        (len(str(s.get("name", ""))) + 2 * depth(s) for s in spans),
        default=1,
    )
    ordered = sorted(
        spans,
        key=lambda s: (float(s.get("start_ms", 0.0)), s.get("sid", 0)),
    )
    for span in ordered:
        start = float(span.get("start_ms", 0.0))
        duration = float(span.get("duration_ms", 0.0))
        offset = min(max(int(width * start / total), 0), width - 1)
        length = min(
            max(int(round(width * duration / total)), 1), width - offset
        )
        bar = " " * offset + "#" * length
        label = "  " * depth(span) + str(span.get("name", "?"))
        attrs = span.get("attrs") or {}
        extra = "".join(
            f"  {k}={v}" for k, v in sorted(attrs.items())
        )
        lines.append(
            f"  {label:<{name_width}}  |{bar:<{width}}|"
            f" {duration:9.3f} ms{extra}"
        )
    return "\n".join(lines)


def _cmd_slow(args: argparse.Namespace) -> int:
    """``slow``: fetch /v1/traces and print waterfalls."""
    import json
    from urllib.parse import urlencode

    from repro.service.http import TRACES_PATH

    query = {"limit": args.limit, "min_ms": args.min_ms}
    if args.route:
        query["route"] = args.route
    if args.tenant:
        query["tenant"] = args.tenant
    document = _scrape_json_metrics(
        args.url,
        f"{TRACES_PATH}?{urlencode(query)}",
        token=getattr(args, "metrics_token", None),
    )
    if document is None:
        print(
            f"cannot fetch {args.url}{TRACES_PATH} — is the server "
            "running with metrics on (and the token right)?",
            file=sys.stderr,
        )
        return 2
    traces = document.get("traces", [])
    if args.json:
        print(json.dumps(traces, indent=2, sort_keys=True))
        return 0
    if not traces:
        print("no retained traces match the filters (drive traffic, "
              "or relax --route/--tenant/--min-ms)")
        return 0
    for trace in traces:
        print(_render_waterfall(trace))
        print()
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """``slo status``: per-tenant attainment/burn from /v1/metrics."""
    import json

    from repro.service.http import METRICS_JSON_PATH

    document = _scrape_json_metrics(
        args.url,
        METRICS_JSON_PATH,
        token=getattr(args, "metrics_token", None),
    )
    if document is None:
        print(
            f"cannot fetch {args.url}{METRICS_JSON_PATH} — is the "
            "server running with metrics on (and the token right)?",
            file=sys.stderr,
        )
        return 2
    metrics = document.get("metrics", document)
    # Keyed (tenant, route class); "all" is the tenant-wide track, and
    # per-class rows (e.g. the infer data plane) sort beneath it.
    tenants: dict = {}
    for family, field in (
        ("slo_attainment_ratio", "attainment"),
        ("slo_error_budget_burn", "burn"),
        ("slo_class_attainment_ratio", "attainment"),
        ("slo_class_error_budget_burn", "burn"),
    ):
        for sample in metrics.get(family, {}).get("series", []):
            labels = sample.get("labels", {})
            tenant = labels.get("tenant", "?")
            route_class = labels.get("route_class", "all")
            window = labels.get("window", "?")
            cell = tenants.setdefault(
                (tenant, route_class), {}
            ).setdefault(window, {})
            cell[field] = sample.get("value")
    if args.json:
        document = {}
        for (tenant, route_class), windows in tenants.items():
            document.setdefault(tenant, {})[route_class] = windows
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    if not tenants:
        print(
            "no slo_* gauges exported yet — drive some traffic (the "
            "gauges appear after the first scraped request)"
        )
        return 0
    rows = []
    for tenant, route_class in sorted(
        tenants, key=lambda k: (k[0], k[1] != "all", k[1])
    ):
        windows = tenants[(tenant, route_class)]
        for window in sorted(windows, key=lambda w: (len(w), w)):
            cell = windows[window]
            attainment = cell.get("attainment")
            burn = cell.get("burn")
            rows.append([
                tenant,
                route_class,
                window,
                "-" if attainment is None else f"{attainment:.4f}",
                "-" if burn is None
                else ("inf" if burn >= 1e9 else f"{burn:.2f}"),
            ])
    print(
        ascii_table(
            ["tenant", "class", "window", "attainment", "budget burn"],
            rows,
            title="SLO status (burn > 1 eats error budget)",
        )
    )
    return 0


def _cmd_state(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.persist import (
        JOURNAL_NAME,
        JournalError,
        has_state,
        journal_metrics,
        last_checkpoint,
        read_config,
        read_journal,
        recover_gateway,
        refuse_legacy_layout,
        state_digest,
    )

    state_dir = args.state_dir
    if not has_state(state_dir):
        print(
            f"{state_dir} is not a state directory (no config.json)",
            file=sys.stderr,
        )
        return 2

    if args.state_command == "compact":
        try:
            gateway, report = recover_gateway(state_dir)
            mark = gateway.store.snapshot(state_digest(gateway))
            gateway.store.close()
        except JournalError as exc:
            print(f"cannot compact {state_dir}: {exc}", file=sys.stderr)
            return 2
        print(report.describe())
        print(
            f"replay verified {report.final_seq} record(s); appended "
            f"checkpoint at seq {mark.seq} "
            f"(digest {mark.payload['state_digest'][:16]})"
        )
        return 0

    # inspect: summarise without replaying (cheap, read-only).
    try:
        config = read_config(state_dir)
        refuse_legacy_layout(state_dir)
        records, dropped = read_journal(Path(state_dir) / JOURNAL_NAME)
    except JournalError as exc:
        print(f"cannot inspect {state_dir}: {exc}", file=sys.stderr)
        return 2
    mark = last_checkpoint(records)
    # Record counts / bytes / commit lag come from the same registry
    # primitives the live server scrapes through /metrics, so the
    # offline and online views share one vocabulary.
    mdict = journal_metrics(records).to_dict()
    record_types = {
        s["labels"]["type"]: int(s["value"])
        for s in mdict["journal_records_total"]["series"]
    }
    journal_bytes = int(
        sum(s["value"] for s in mdict["journal_bytes_total"]["series"])
    )
    since_checkpoint = int(
        mdict["journal_commit_lag_records"]["series"][0]["value"]
    )
    tenants: dict = {}
    jobs: dict = {}
    for record in records:
        p = record.payload
        if record.type == "tenant_created":
            tenants[p["name"]] = {"token": p["token"], "retired": False}
        elif record.type == "token_rotated":
            tenants[p["name"]]["token"] = p["token"]
        elif record.type == "tenant_retired":
            tenants[p["name"]]["retired"] = True
        elif record.type == "job_submitted":
            for handle in p["handles"]:
                jobs[handle] = "in_flight"
        elif record.type == "job_completed":
            jobs[p["handle"]] = "finished"
        elif record.type == "job_cancelled":
            for handle in p["handles"]:
                jobs[handle] = "cancelled"
    summary = {
        "state_dir": str(state_dir),
        "config": config,
        "last_checkpoint_seq": mark.seq if mark else 0,
        "checkpoint_digest": (
            mark.payload["state_digest"][:16] if mark else None
        ),
        "records_since_checkpoint": since_checkpoint,
        "n_journal_records": len(records),
        "dropped_tail": dropped,
        "last_seq": records[-1].seq if records else 0,
        "record_types": dict(sorted(record_types.items())),
        "journal_bytes": journal_bytes,
        "tenants": tenants,
        "jobs": jobs,
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    rows = [
        ["last checkpoint seq", summary["last_checkpoint_seq"]],
        ["checkpoint digest", summary["checkpoint_digest"] or "(none)"],
        ["records since checkpoint", since_checkpoint],
        ["journal records", len(records)],
        ["journal bytes", journal_bytes],
        ["last seq", summary["last_seq"]],
        ["tenants", len(tenants)],
        ["job handles", len(jobs)],
    ]
    print(
        ascii_table(
            ["field", "value"], rows, title=f"state: {state_dir}"
        )
    )
    for rtype, count in sorted(record_types.items()):
        print(f"  {rtype}: {count}")
    for name, info in sorted(tenants.items()):
        retired = " (retired)" if info["retired"] else ""
        print(f"tenant {name}{retired}: {info['token']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "stats":
        return _cmd_stats()
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "runtime":
        return _cmd_runtime(args)
    if args.command == "trace":
        return _cmd_trace_diff(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "slow":
        return _cmd_slow(args)
    if args.command == "slo":
        return _cmd_slo(args)
    if args.command == "state":
        return _cmd_state(args)
    if args.command == "replica":
        return _cmd_replica(args)
    return _cmd_compare(args)


if __name__ == "__main__":  # pragma: no cover - direct execution
    sys.exit(main())
