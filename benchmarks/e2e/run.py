"""The repo's benchmark: one command, five workloads.

    python3 benchmarks/e2e/run.py                         # all, one seed
    python3 benchmarks/e2e/run.py --workload http_read    # one workload
    python3 benchmarks/e2e/run.py --traced                # + per-layer runs
    python3 benchmarks/e2e/run.py --repeat 2              # acceptance
    python3 benchmarks/e2e/run.py --smoke                 # tiny, traced

With exactly one ``--workload`` the run happens in this process and the
last line of stdout is the result object ``BENCHMARK.json`` describes
(``--trace 0``: end-to-end metrics; ``--trace 1``: per-layer metrics).
Otherwise each workload runs in a child of this same command, so no
workload inherits another's memory or wrappers.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

import layers
import spans
import stats
import workloads
from serve_main import HERE, REPO_ROOT, SRC

#: name -> unit, in the order BENCHMARK.json lists them.
END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: tiny per-run counts for --smoke (trials; operations per client)
SMOKE_COUNTS = {
    "sched_sim": 2,
    "http_read": 40,
    "http_mutate": 6,
    "infer_unique": 24,
    "infer_repeat": 100,
}
SMOKE_SHAPE = {"n_users": 40, "n_models": 30, "n_test_users": 20}


def spec() -> Dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def host_facts() -> Dict[str, Any]:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=str(REPO_ROOT),
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": sha,
    }


def end_to_end(m: workloads.Measurement) -> Dict[str, float]:
    return {
        "throughput_ops_s": m.throughput,
        "latency_p50_ms": stats.percentile(m.latencies_ms, 50.0),
        "latency_p90_ms": stats.capped_percentile(m.latencies_ms, workloads.TAIL),
        "setup_s": stats.percentile(m.setup_s, 50.0),
        "peak_rss_mb": m.peak_rss_mb,
    }


def layer_units() -> Dict[str, str]:
    return {entry["name"]: entry["unit"] for entry in layers.declared()}


def print_rows(name: str, metrics: Dict[str, float], units: Dict[str, str]) -> None:
    for metric, value in metrics.items():
        print(f"{name:<13} {metric:<28} {value:>14.4f} {units[metric]}")


def print_measurement(name: str, m: workloads.Measurement) -> None:
    """Counts against attempts, the tail the sample supports, checks."""
    p, tail = stats.tail_percentile(m.latencies_ms)
    print(
        f"{name:<13} timed {m.wall_s:.2f} s, {m.ops} ops "
        f"({len(m.latencies_ms)} latency samples, p{p:g} = "
        f"{tail:.4f} ms); attempted {m.attempted}, failed {m.failed}"
    )
    for key in ("picks_digest", "loss_auc", "loss_auc_random_model",
                "host_factor", "raw_throughput_ops_s", "raw_latency_p50_ms",
                "restart_to_ready_s", "state_digest", "acked",
                "missing_targets"):
        if m.info.get(key):
            print(f"{name:<13} {key} = {m.info[key]}")
    for problem in m.problems:
        print(f"{name:<13} CHECK FAILED: {problem}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Contract mode: one workload in this process, result on the last line."""
    count = workloads.op_count(name, seconds)
    units = dict(END_TO_END)
    if not trace:
        m = workloads.run(name, seed, count)
        metrics = end_to_end(m)
    else:
        # One quarter of the operations, same topology: once untraced for
        # the reference throughput, then with the wrappers installed.
        count = max(2, count // 4)
        setups = 0 if name == "sched_sim" else 1  # an HTTP run needs its server
        reference = workloads.run(name, seed, count, setups=setups, restarts=0)
        recorder = spans.Recorder()
        recorder.install(spans.SERVER_TARGETS + spans.CLIENT_TARGETS)
        m = workloads.run(
            name, seed, count, recorder=recorder, setups=setups, restarts=1
        )
        m.layer["trace_overhead_pct"] = 100.0 * (
            reference.throughput / m.throughput - 1.0
        )
        m.info["missing_targets"] = recorder.missing
        m.problems = reference.problems + m.problems
        m.attempted += reference.attempted
        m.failed += reference.failed
        metrics = m.layer
        units = layer_units()
    print_measurement(name, m)
    print_rows(name, metrics, units)
    info = dict(m.info, workload=name, seed=seed, count=count, **host_facts())
    print("INFO " + json.dumps(info, sort_keys=True))
    correct = not m.problems and m.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }))
    return 0 if correct else 1


def run_smoke(seed: int) -> int:
    """Every workload once, traced, at tiny counts, in this process: proves
    the plumbing and the metric names, not the numbers."""
    recorder = spans.Recorder()
    recorder.install(spans.SERVER_TARGETS + spans.CLIENT_TARGETS)
    out, ok = {}, True
    for name in workloads.NAMES:
        m = workloads.run(
            name, seed, SMOKE_COUNTS[name], recorder=recorder, setups=1,
            restarts=1 if name == "http_mutate" else 0, shape=SMOKE_SHAPE,
        )
        print_measurement(name, m)
        print_rows(name, end_to_end(m), END_TO_END)
        print_rows(name, m.layer, layer_units())
        ok = ok and not m.problems and m.failed == 0
        out[name] = {"end_to_end": end_to_end(m), "per_layer": m.layer}
    print(json.dumps({"correct": ok, "workloads": out}))
    return 0 if ok else 1


# ----------------------------------------------------------------------
# Several workloads, several sets: children of this same command
# ----------------------------------------------------------------------
def child(name: str, seed: int, seconds: float, trace: int) -> Tuple[Dict, Dict]:
    """Run one workload in a child; ``(result object, info)``."""
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(REPO_ROOT), stdout=subprocess.PIPE, text=True,
    )
    lines = process.stdout.strip().splitlines()
    sys.stdout.write(process.stdout)
    if process.returncode != 0 or not lines:
        raise SystemExit(f"{name} (trace {trace}) failed: exit {process.returncode}")
    info = next(json.loads(l[5:]) for l in lines if l.startswith("INFO "))
    return json.loads(lines[-1]), info


#: info values that must repeat exactly for one seed
EXACT = ("picks_digest", "loss_auc", "acked", "steps")
EXACT_LAYER = ("persist.append.calls", "sched.loss_auc")


def compare(sets: List[Dict[str, Dict[str, Any]]], traced: bool) -> bool:
    """Print, per (workload, end-to-end metric), every set's value, the
    widest relative difference and the bound; False if any but
    ``setup_s`` exceeds it."""
    bounds = {e["name"]: e["bound"] for e in spec()["end_to_end"]}
    ok = True
    print(f"\n{'workload':<13} {'metric':<22} values -> widest difference / bound")
    for name in sets[0]:
        for metric, bound in bounds.items():
            values = [s[name]["e2e"]["metrics"][metric]["value"] for s in sets]
            diff = (max(values) - min(values)) / min(values)
            verdict = "ok" if diff <= bound else "EXCEEDS BOUND"
            if metric == "setup_s":
                # Three one-second process starts: single runs differ by
                # up to 45% on unchanged code, and the driver bounds the
                # shift of its median over ten runs, not its spread.
                verdict += " (not counted)"
            else:
                ok = ok and diff <= bound
            shown = ", ".join(f"{v:.4f}" for v in values)
            print(f"{name:<13} {metric:<22} {shown} -> {diff:.3%} / {bound:.0%} {verdict}")
        exact = [
            [s[name]["info"].get(k) for k in EXACT]
            + [s[name]["e2e"]["failed"]]
            + ([s[name]["layer"]["metrics"][k]["value"] for k in EXACT_LAYER]
               if traced else [])
            for s in sets
        ]
        if any(row != exact[0] for row in exact):
            ok = False
            print(f"{name:<13} counts that must repeat exactly differ: {exact}")
    return ok


def run_many(names: List[str], seed: int, seconds: float, traced: bool,
             repeat: int) -> int:
    sets = []
    for index in range(repeat):
        print(f"# set {index + 1} of {repeat}, seed {seed}, {seconds:g} s per workload")
        results: Dict[str, Dict[str, Any]] = {}
        for name in names:
            e2e, info = child(name, seed, seconds, 0)
            results[name] = {"e2e": e2e, "info": info}
            if traced:
                results[name]["layer"], _ = child(name, seed, seconds, 1)
        sets.append(results)
    if repeat > 1 and not compare(sets, traced):
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed section the operation counts "
                        "are sized for (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="with one --workload: 1 reports per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="also run each workload traced")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="K full sets back to back, compared against the bounds")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-probe", type=int, default=None, metavar="SEED",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"{SRC / 'repro'} not found: the benchmark measures the "
              "repo's code and has none of its own", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated benchmark must still unwind, so its servers are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.setup_probe is not None:
        workloads.sched_setup_probe(args.setup_probe)
        return 0
    if args.smoke:
        return run_smoke(args.seed)
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    names = args.workload or list(workloads.NAMES)
    if len(names) == 1 and args.repeat == 1 and not args.traced:
        return run_one(names[0], args.seed, seconds, bool(args.trace))
    return run_many(names, args.seed, seconds, args.traced or bool(args.trace),
                    args.repeat)


if __name__ == "__main__":
    sys.exit(main())
