"""Training-job lifecycle records."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class JobState(str, Enum):
    """Lifecycle of a training job on the shared cluster.

    ``PENDING → RUNNING → FINISHED`` is the happy path; a preemptive
    runtime may bounce a job through ``RUNNING ⇄ PREEMPTED`` any number
    of times before it finishes, and any non-terminal state may move to
    ``FAILED`` (trainer error, or the owning tenant departed while the
    job was still queued).
    """

    PENDING = "pending"
    RUNNING = "running"
    PREEMPTED = "preempted"
    FINISHED = "finished"
    FAILED = "failed"


#: The non-terminal states: the job still holds or awaits cluster
#: time, so it may yet fail, counts against the pending-jobs quota and
#: needs a disposition when a new writer takes over.
LIVE_STATES = (JobState.PENDING, JobState.RUNNING, JobState.PREEMPTED)


@dataclass(slots=True)
class Job:
    """One (user, model) training run.

    Times are simulated wall-clock; ``gpu_time`` is the single-GPU
    work the job represents, while ``duration`` is the elapsed time
    after the pool's data-parallel speedup.  ``work_done`` accumulates
    completed single-GPU work across execution slices, so a preemptive
    runtime can requeue the job and later resume it with only
    ``remaining_gpu_time`` left to run.
    """

    job_id: int
    user: int
    model: int
    submit_time: float
    gpu_time: float
    state: JobState = JobState.PENDING
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    reward: Optional[float] = None
    work_done: float = 0.0
    preemptions: int = 0
    detail: dict = field(default_factory=dict)

    def start(self, time: float) -> None:
        if self.state is not JobState.PENDING:
            raise ValueError(f"cannot start a job in state {self.state}")
        self.state = JobState.RUNNING
        self.start_time = float(time)

    def preempt(self, time: float) -> None:
        """Suspend a running job (the runtime accounts progress first)."""
        if self.state is not JobState.RUNNING:
            raise ValueError(f"cannot preempt a job in state {self.state}")
        self.state = JobState.PREEMPTED
        self.preemptions += 1
        self.detail["last_preempted_at"] = float(time)

    def resume(self, time: float) -> None:
        """Put a preempted job back on devices."""
        if self.state is not JobState.PREEMPTED:
            raise ValueError(f"cannot resume a job in state {self.state}")
        self.state = JobState.RUNNING
        self.detail["last_resumed_at"] = float(time)

    def account_progress(self, work: float) -> None:
        """Credit ``work`` units of completed single-GPU time."""
        work = float(work)
        if work < 0:
            raise ValueError(f"work must be >= 0, got {work}")
        self.work_done = min(self.work_done + work, self.gpu_time)

    @property
    def remaining_gpu_time(self) -> float:
        """Single-GPU work still outstanding."""
        return max(self.gpu_time - self.work_done, 0.0)

    def finish(self, time: float, reward: float) -> None:
        if self.state is not JobState.RUNNING:
            raise ValueError(f"cannot finish a job in state {self.state}")
        if self.start_time is not None and time < self.start_time:
            raise ValueError("job cannot finish before it started")
        self.state = JobState.FINISHED
        self.end_time = float(time)
        self.reward = float(reward)
        self.work_done = self.gpu_time

    def fail(self, time: float, reason: str = "") -> None:
        if self.state not in LIVE_STATES:
            raise ValueError(f"cannot fail a job in state {self.state}")
        self.state = JobState.FAILED
        self.end_time = float(time)
        self.detail["failure_reason"] = reason

    @property
    def duration(self) -> Optional[float]:
        """Elapsed wall-clock time, if the job has ended."""
        if self.start_time is None or self.end_time is None:
            return None
        return self.end_time - self.start_time

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Job(#{self.job_id} u{self.user} m{self.model} "
            f"{self.state.value})"
        )
