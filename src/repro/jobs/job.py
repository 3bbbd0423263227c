"""Job specifications and runtime job state.

A :class:`JobSpec` is the immutable description a user submits: which
model it trains, its per-iteration stage profile, how many GPUs it
wants, when it arrives, and how many iterations it runs.  A
:class:`Job` wraps a spec with the mutable state the scheduler and
simulator track (progress, attained service, timestamps).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from math import inf
from typing import Any, Optional

from repro.jobs.memory import MemoryFootprint
from repro.jobs.resources import Resource
from repro.jobs.scalability import ScalabilityProfile
from repro.jobs.stage import StageProfile

__all__ = ["JobSpec", "Job", "JobStatus", "replace_spec"]

_job_counter = itertools.count()


class JobStatus(Enum):
    """Lifecycle of a job inside the scheduler."""

    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"
    FAILED = "failed"


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of a submitted DL training job.

    Attributes:
        job_id: Unique identifier.  Auto-assigned when not provided.
        name: Human-readable name (defaults to ``job-<id>``).
        model: Name of the model being trained (model-zoo key or
            free-form label).
        profile: True per-iteration stage durations of one worker.
            The scheduler normally sees a *profiled* (possibly noisy)
            copy of this, not the truth; see ``repro.profiler``.
        num_gpus: Number of GPUs (workers) the job requires.
        submit_time: Arrival time in seconds.
        num_iterations: Total training iterations to run.
        memory: Optional per-GPU memory footprint; enables the
            grouper's GPU-memory feasibility check (section 2.2).
        scalability: Optional per-GPU-count goodput curve; None (the
            default) means the job is rigid — it only ever runs at
            ``num_gpus``.  When present, it must support ``num_gpus``
            and agree with ``profile`` there, and an elastic scheduler
            may resize the job to any other supported count (see
            ``repro.elastic``).
        gpu_affinity: Optional GPU-generation name this job is bound
            to on a heterogeneous cluster; None (the default) runs
            anywhere.  A pinned job's ``profile`` is expected to be
            pre-scaled for that generation (see ``repro.hetero``).
        affinity_mode: ``"pin"`` (the default) makes the affinity
            hard — placement only considers machines of that
            generation; ``"prefer"`` tries them first and falls back
            to the whole cluster.  Ignored when ``gpu_affinity`` is
            None.
    """

    profile: StageProfile
    num_gpus: int = 1
    submit_time: float = 0.0
    num_iterations: int = 1
    model: str = "custom"
    name: Optional[str] = None
    job_id: Optional[int] = None
    memory: Optional[MemoryFootprint] = None
    scalability: Optional[ScalabilityProfile] = None
    gpu_affinity: Optional[str] = None
    affinity_mode: str = "pin"

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if self.affinity_mode not in ("pin", "prefer"):
            raise ValueError(
                f"affinity_mode must be 'pin' or 'prefer', "
                f"got {self.affinity_mode!r}"
            )
        if self.scalability is not None:
            if not self.scalability.supports(self.num_gpus):
                raise ValueError(
                    f"scalability profile does not support the requested "
                    f"{self.num_gpus} GPUs (supports "
                    f"{list(self.scalability.gpu_counts)})"
                )
            curve = self.scalability.profile_for(self.num_gpus)
            if curve.durations != self.profile.durations:
                raise ValueError(
                    "scalability profile disagrees with `profile` at the "
                    f"requested {self.num_gpus} GPUs"
                )
        if self.num_iterations < 1:
            raise ValueError(
                f"num_iterations must be >= 1, got {self.num_iterations}"
            )
        if not 0 <= self.submit_time < inf:
            raise ValueError(
                f"submit_time must be finite and >= 0, got {self.submit_time}"
            )
        if self.job_id is None:
            object.__setattr__(self, "job_id", next(_job_counter))
        if self.name is None:
            object.__setattr__(self, "name", f"job-{self.job_id}")

    @property
    def iteration_time(self) -> float:
        """Solo per-iteration time (stage-duration sum) of one worker."""
        return self.profile.iteration_time

    @property
    def total_service_time(self) -> float:
        """Solo running time of the whole job, in seconds."""
        return self.num_iterations * self.iteration_time

    @property
    def gpu_service(self) -> float:
        """GPU-seconds of service: solo runtime times GPU count.

        This is the "size" notion that SRSF uses (remaining time
        multiplied by the number of GPUs).
        """
        return self.total_service_time * self.num_gpus

    @property
    def bottleneck(self) -> Resource:
        """The resource this job is bottlenecked on."""
        return self.profile.bottleneck


def replace_spec(spec: JobSpec, **changes: Any) -> JobSpec:
    """``dataclasses.replace(spec, **changes)`` for set-up loops.

    A :class:`JobSpec` keeps exactly its fields in ``__dict__``, so the
    new spec is built from that instead of from the per-call
    ``dataclasses.fields`` walk that makes ``replace`` slow.  It runs
    the same validation.

    Raises:
        TypeError: On a name that is not a field.
        ValueError: When the new spec fails validation.
    """
    return JobSpec(**{**spec.__dict__, **changes})


@dataclass
class Job:
    """Mutable runtime state of a job tracked by the scheduler.

    Attributes:
        spec: The immutable job description.
        status: Current lifecycle state.
        remaining_iterations: Iterations left; fractional values are
            allowed because the simulator advances in wall-clock time.
        attained_service: Wall-clock seconds the job has been running
            (per worker); drives LAS-family priorities.
        start_time: First time the job started running, or None.
        finish_time: Completion time, or None while unfinished.
        preemptions: Number of times the job was stopped and later
            resumed by the scheduler.
        restart_penalty_remaining: Seconds of restart overhead still to
            pay before the job makes progress again.
        allocated_gpus: Current GPU count of an elastically resized
            job, or None while the job runs at its requested size.
            Only :meth:`resize` should set it; progress
            (``remaining_iterations``, ``attained_service``) is never
            touched by a resize.
        resizes: Number of times the job was elastically resized.
    """

    spec: JobSpec
    status: JobStatus = JobStatus.PENDING
    remaining_iterations: float = field(init=False)
    attained_service: float = 0.0
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    preemptions: int = 0
    restart_penalty_remaining: float = 0.0
    allocated_gpus: Optional[int] = None
    resizes: int = 0

    def __post_init__(self) -> None:
        self.remaining_iterations = float(self.spec.num_iterations)

    # -- identity convenience ------------------------------------------------

    @property
    def job_id(self) -> int:
        """The spec's job id."""
        return self.spec.job_id  # type: ignore[return-value]

    @property
    def name(self) -> str:
        """The spec's name."""
        return self.spec.name  # type: ignore[return-value]

    @property
    def num_gpus(self) -> int:
        """Current GPU count: the elastic allocation when resized,
        otherwise the spec's requested count."""
        if self.allocated_gpus is not None:
            return self.allocated_gpus
        return self.spec.num_gpus

    @property
    def profile(self) -> StageProfile:
        """Stage profile at the current GPU count.

        A resized elastic job reads its scalability curve; everything
        else reads the spec's profile directly (bit-identical to the
        pre-elastic behaviour).
        """
        if (
            self.allocated_gpus is not None
            and self.spec.scalability is not None
        ):
            return self.spec.scalability.profile_for(self.allocated_gpus)
        return self.spec.profile

    # -- elasticity ------------------------------------------------------------

    def resize(self, num_gpus: int) -> int:
        """Change the job's GPU count, conserving progress.

        Only the allocation (and therefore the active stage profile)
        changes; ``remaining_iterations`` and ``attained_service`` are
        untouched — the conservation guarantee the
        ``resize_progress_conserved`` invariant enforces.

        Args:
            num_gpus: Target GPU count; must be supported by the
                spec's scalability profile.

        Returns:
            The previous GPU count.

        Raises:
            ValueError: When the job is rigid (no scalability profile),
                finished, or the count is unsupported.
        """
        if self.status == JobStatus.FINISHED:
            raise ValueError(f"{self.name} already finished")
        scalability = self.spec.scalability
        if scalability is None:
            if num_gpus != self.spec.num_gpus:
                raise ValueError(
                    f"{self.name} is rigid (no scalability profile)"
                )
            return self.num_gpus
        if not scalability.supports(num_gpus):
            raise ValueError(
                f"{self.name} cannot run at {num_gpus} GPUs (supports "
                f"{list(scalability.gpu_counts)})"
            )
        previous = self.num_gpus
        if num_gpus != previous:
            self.allocated_gpus = num_gpus
            self.resizes += 1
        return previous

    # -- progress --------------------------------------------------------------

    @property
    def is_finished(self) -> bool:
        """True once the job's status is FINISHED."""
        return self.status == JobStatus.FINISHED

    @property
    def remaining_service_time(self) -> float:
        """Solo seconds of work left (ignores interleaving slowdown).

        Uses the *current* profile, so a resized elastic job is sized
        by its post-resize iteration time; for rigid jobs this is the
        spec's iteration time exactly.
        """
        return self.remaining_iterations * self.profile.iteration_time

    @property
    def remaining_gpu_service(self) -> float:
        """Remaining work in GPU-seconds, the SRSF size metric."""
        return self.remaining_service_time * self.num_gpus

    @property
    def attained_gpu_service(self) -> float:
        """Attained service in GPU-seconds, the 2D-LAS metric."""
        return self.attained_service * self.num_gpus

    def advance(self, iterations: float, wall_time: float) -> None:
        """Record training progress.

        Args:
            iterations: Iterations completed in this span (may be
                fractional).
            wall_time: Wall-clock seconds spent running in this span.
        """
        if iterations < 0 or wall_time < 0:
            raise ValueError("progress must be non-negative")
        self.remaining_iterations = max(0.0, self.remaining_iterations - iterations)
        self.attained_service += wall_time

    def mark_started(self, now: float) -> None:
        """Transition to RUNNING, tracking first-start and preemptions."""
        if self.status == JobStatus.FINISHED:
            raise ValueError(f"{self.name} already finished")
        if self.start_time is None:
            self.start_time = now
        elif self.status == JobStatus.PENDING:
            self.preemptions += 1
        self.status = JobStatus.RUNNING

    def mark_stopped(self) -> None:
        """Transition back to PENDING (preemption)."""
        if self.status == JobStatus.RUNNING:
            self.status = JobStatus.PENDING

    def mark_finished(self, now: float) -> None:
        """Transition to FINISHED at time ``now``."""
        self.status = JobStatus.FINISHED
        self.finish_time = now
        self.remaining_iterations = 0.0

    def completion_time(self) -> float:
        """Job completion time (JCT): finish minus submission.

        Raises:
            ValueError: If the job has not finished.
        """
        if self.finish_time is None:
            raise ValueError(f"{self.name} has not finished")
        return self.finish_time - self.spec.submit_time

    def pending_time(self, now: float) -> float:
        """Total time since submission not yet spent running."""
        reference = self.finish_time if self.finish_time is not None else now
        return max(0.0, reference - self.spec.submit_time - self.attained_service)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Job({self.name}, model={self.spec.model}, gpus={self.num_gpus}, "
            f"status={self.status.value}, remaining={self.remaining_iterations:.1f})"
        )
