"""The one launcher for benchmark servers, untraced and traced.

Child side (``python serve_main.py [--trace-out FILE] -- <serve args>``)
runs the shipped product, ``repro.cli.main(["serve", ...])``, in its own
process.  With ``--trace-out`` it first wraps the public callables in
:data:`spans.SERVER_TARGETS`; spans are written on SIGUSR1 (and the
server keeps running, so a SIGKILL can follow) and again when the
process ends.  SIGTERM is a clean stop in both modes.

Parent side is :class:`Server`: spawn, read the URL and the tenant
tokens off the child's stdout as CI does, keep draining that pipe on a
thread, and always reap the child.
"""

from __future__ import annotations

import argparse
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SRC = REPO_ROOT / "src"

_URL = re.compile(r"listening on (http://\S+)")
_TOKEN = re.compile(r"^tenant (\S+): (\S+)$")
_READY = "press Ctrl-C to stop"


def serve_args(state_dir: Path, seed: int, tenants: Sequence[str]) -> List[str]:
    """The flags every HTTP workload starts ``repro serve`` with.

    Nothing else is passed: frontend, sync mode, snapshot cadence,
    infer window, cache size, metrics and trace sampling are whatever
    ``repro serve`` defaults to, so a PR that changes a default is
    measured rather than masked.
    """
    args = ["--port", "0", "--n-gpus", "4", "--seed", str(seed)]
    for tenant in tenants:
        args += ["--tenant", tenant]
    return args + ["--state-dir", str(state_dir)]


class Server:
    """One ``repro serve`` child process."""

    def __init__(
        self,
        state_dir: Path,
        seed: int,
        tenants: Sequence[str],
        trace_out: Optional[Path] = None,
    ) -> None:
        self.trace_out = trace_out
        self.url = ""
        self.tokens: Dict[str, str] = {}
        self.ready_s: Optional[float] = None
        self._ready = threading.Event()
        command = [sys.executable, str(HERE / "serve_main.py")]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        command += ["--", *serve_args(state_dir, seed, tenants)]
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=str(REPO_ROOT)
        )
        self._drain = threading.Thread(target=self._read_stdout, daemon=True)
        self._drain.start()

    def _read_stdout(self) -> None:
        for line in self.process.stdout:
            url = _URL.search(line)
            token = _TOKEN.match(line.strip())
            if url:
                self.url = url.group(1)
            elif token:
                self.tokens[token.group(1)] = token.group(2)
            elif _READY in line:
                self.ready_s = time.perf_counter() - self.spawned
                self._ready.set()
        self._ready.set()  # EOF: wake a waiter so it can see the exit

    def wait_ready(self, timeout: float = 120.0) -> float:
        """Block until the readiness line; seconds since the spawn."""
        if not self._ready.wait(timeout) or self.ready_s is None:
            self.stop(kill=True)
            raise RuntimeError(
                "repro serve did not become ready "
                f"(exit code {self.process.poll()})"
            )
        return self.ready_s

    @property
    def pid(self) -> int:
        return self.process.pid

    def dump_spans(self, timeout: float = 60.0) -> None:
        """Ask a traced child for its spans now (it keeps running)."""
        self.trace_out.unlink(missing_ok=True)
        self.process.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + timeout
        while not self.trace_out.exists():
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("traced server did not dump its spans")
            time.sleep(0.01)

    def stop(self, *, kill: bool = False) -> None:
        """SIGTERM (clean: journal closed, spans written) or SIGKILL."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL if kill else signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._drain.join(timeout=5.0)
        self.process.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop(kill=True)


def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", default=None, metavar="FILE")
    parser.add_argument("serve_args", nargs="*")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    sys.stdout.reconfigure(line_buffering=True)
    recorder = None
    if args.trace_out:
        import spans

        recorder = spans.Recorder()
        recorder.install(spans.SERVER_TARGETS)
        signal.signal(
            signal.SIGUSR1, lambda *_: recorder.dump(args.trace_out)
        )
    # ``repro serve`` stops cleanly on KeyboardInterrupt only.
    signal.signal(signal.SIGTERM, _interrupt)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *args.serve_args])
    finally:
        if recorder is not None:
            recorder.dump(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
