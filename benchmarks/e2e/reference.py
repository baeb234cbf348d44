"""Reference operations: how fast was the host while the workload ran?

The reference host changes speed by up to a factor of two for minutes
at a time (README, "The host"), and the guest cannot see it happen
except by timing work of a known size.  So a timed section times two
things side by side: the program's operations, and every so often a
**reference operation** of the same shape that belongs to the benchmark
and never changes:

* the **kernel**, for work inside one thread (``sched_sim``): a fixed
  mix of interpreter loop and 100-element numpy arrays;
* the **exchange**, for a request that crosses a socket to another
  process and back (the HTTP workloads): one message to a child of this
  file, which runs the kernel and answers, then the kernel again on the
  near side — two wake-ups and two pieces of computation, as a request
  through ``repro serve`` and the SDK has.

The host factor of a run is the median duration of its reference
operations over their duration on the idle reference host, and the
run's timings are divided by it: time is counted in reference
operations and converted back to seconds at a fixed rate.  Nothing here
imports ``repro``, so no change to the program moves the reference.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

import stats

#: Duration of each reference operation on the reference host when
#: nothing else contends for its cores.
KERNEL_REFERENCE_S = 0.0004
EXCHANGE_REFERENCE_S = 0.0013


def host_kernel() -> float:
    """Run the kernel once; the seconds it took."""
    started = time.perf_counter()
    a = np.arange(100.0)
    total = 0.0
    for i in range(4000):
        total += float(a[i % 100]) * 1.0001
        if i % 50 == 0:
            a = a * 1.0000001
    return time.perf_counter() - started


def host_factor(reference_s: Sequence[float], idle_s: float) -> float:
    """How many times slower than idle the host ran the reference."""
    return stats.percentile(reference_s, 50.0) / idle_s


def at_reference_speed(
    step_s: Sequence[float], kernel_s: Sequence[float]
) -> Tuple[float, List[float], float]:
    """One ``sched_sim`` trial's ``(steps per second, step latencies in
    ms, host factor)`` with every duration divided by the trial's host
    factor.  A host that runs everything 1.6 times slower for a minute
    gives the same figures."""
    factor = host_factor(kernel_s, KERNEL_REFERENCE_S)
    rate = len(step_s) * factor / sum(step_s)
    return rate, [s * 1e3 / factor for s in step_s], factor


class ExchangeServer:
    """The far side of the exchange: a child process running
    :func:`main`, one thread per connection."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdout=subprocess.PIPE, text=True,
        )
        self.port = int(self.process.stdout.readline())

    def stop(self) -> None:
        self.process.kill()
        self.process.wait()
        self.process.stdout.close()


class ExchangeClient:
    """The near side: one connection, used by one client thread."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def exchange(self) -> float:
        """One exchange; the seconds it took."""
        started = time.perf_counter()
        self.sock.sendall(b"reference")
        self.sock.recv(64)
        host_kernel()
        return time.perf_counter() - started

    def close(self) -> None:
        self.sock.close()


def _answer(connection: socket.socket) -> None:
    connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    while True:
        message = connection.recv(64)
        if not message:
            return
        host_kernel()
        connection.sendall(message)


def main() -> None:
    parent = os.getppid()
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(8)
    listener.settimeout(1.0)
    print(listener.getsockname()[1], flush=True)
    while os.getppid() == parent:  # a killed benchmark leaves no orphan
        try:
            connection, _ = listener.accept()
        except socket.timeout:
            continue
        connection.settimeout(None)
        threading.Thread(target=_answer, args=(connection,), daemon=True).start()


if __name__ == "__main__":
    main()
