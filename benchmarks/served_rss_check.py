"""Does ``repro serve``'s resident memory grow with the operations it serves?

Starts ``repro serve --state-dir`` in a child process, onboards two
tenants (60 rows each, one training job), then drives ``--cycles``
feed / toggle / train / wait cycles through the SDK, alternating
tenants, as the ``http_mutate`` workload does.  The child's VmRSS is
sampled every ``--every`` cycles; the least-squares slope of the samples
from cycle ``--skip`` on is the growth per cycle.  A cycle feeds 5 rows
of 2 inputs and 2 outputs (160 bytes) and adds one job handle.  A server
whose memory follows its state grows about 5 KiB a cycle over cycles
100-600, while its bounded rings (event log, kept traces) fill, and
about 2 KiB a cycle (the job's records) after that; one that keeps
something per operation grows 11-13 KiB a cycle over cycles 100-600
(2-vCPU host, Python 3.11).

    PYTHONPATH=src python benchmarks/served_rss_check.py \\
        [--cycles 600] [--max-kib-per-cycle 7]

Exits 1 when the slope exceeds ``--max-kib-per-cycle``.  Linux only (it
reads ``/proc/<pid>/status``).
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

PROGRAM = "{input: {[Tensor[2]], []}, output: {[Tensor[2]], []}}"
TENANTS = ("t0", "t1")
ROWS_PER_FEED = 5


def vm_rss_kib(pid: int) -> int:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(re.search(r"^VmRSS:\s+(\d+) kB", status, re.M).group(1))


def start_server(state_dir: Path, seed: int):
    """Spawn ``repro serve``; return (process, url, {tenant: token})."""
    command = [
        sys.executable, "-u", "-m", "repro", "serve", "--port", "0",
        "--n-gpus", "4", "--seed", str(seed), "--state-dir", str(state_dir),
    ]
    for tenant in TENANTS:
        command += ["--tenant", tenant]
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    url, tokens = None, {}
    for line in process.stdout:
        found = re.search(r"listening on (http://\S+)", line)
        if found:
            url = found.group(1)
        token = re.match(r"^tenant (\S+): (\S+)$", line.strip())
        if token:
            tokens[token.group(1)] = token.group(2)
        if "press Ctrl-C to stop" in line:
            break
    if url is None or set(tokens) != set(TENANTS):
        process.kill()
        raise RuntimeError("repro serve did not come up")
    return process, url, tokens


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cycles", type=int, default=600)
    parser.add_argument("--skip", type=int, default=100,
                        help="cycles before the slope is measured")
    parser.add_argument("--every", type=int, default=20,
                        help="cycles between VmRSS samples")
    parser.add_argument("--max-kib-per-cycle", type=float, default=7.0)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    if args.cycles <= args.skip + 2 * args.every:
        parser.error("--cycles must leave room for samples after --skip")

    from repro.service import EaseMLClient

    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory() as scratch:
        process, url, tokens = start_server(Path(scratch) / "state", args.seed)
        clients = [EaseMLClient(url, tokens[t]) for t in TENANTS]
        try:
            for tenant, client in zip(TENANTS, clients):
                rows = rng.standard_normal((60, 2))
                client.register_app(tenant, PROGRAM)
                client.feed(tenant, rows.tolist(),
                            (rows[:, 0] > 0).astype(int).tolist())
                client.wait(client.submit_training(tenant)[0].job_id)
            samples = []
            started = time.perf_counter()
            for k in range(1, args.cycles + 1):
                tenant = TENANTS[k % 2]
                client = clients[k % 2]
                rows = rng.standard_normal((ROWS_PER_FEED, 2))
                fed = client.feed(tenant, rows.tolist(),
                                  (rows[:, 0] > 0).astype(int).tolist())
                client.set_example_enabled(tenant, fed.example_ids[0], False)
                handle = client.submit_training(tenant)[0]
                status = client.wait(handle.job_id)
                if status.state != "finished":
                    raise RuntimeError(f"{handle.job_id} ended {status.state}")
                if k >= args.skip and (k - args.skip) % args.every == 0:
                    samples.append((k, vm_rss_kib(process.pid)))
            elapsed = time.perf_counter() - started
        finally:
            for client in clients:
                client.close()
            process.terminate()
            process.wait(timeout=30)
    cycles, rss = np.array(samples, dtype=float).T
    slope = float(np.polyfit(cycles, rss, 1)[0])
    print(
        f"{args.cycles} cycles in {elapsed:.1f} s; VmRSS {rss[0]:.0f} KiB at "
        f"cycle {int(cycles[0])}, {rss[-1]:.0f} KiB at cycle "
        f"{int(cycles[-1])}: {slope:.2f} KiB per cycle "
        f"(bound {args.max_kib_per_cycle:g})"
    )
    if slope > args.max_kib_per_cycle:
        print(
            f"served memory grows {slope:.2f} KiB per cycle, over the "
            f"{args.max_kib_per_cycle:g} KiB bound: something on the serve "
            "path is O(operations)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
