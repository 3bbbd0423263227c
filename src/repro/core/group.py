"""Interleaving groups: the unit Muri schedules and places.

A :class:`JobGroup` bundles jobs that will time-share one set of
resources.  The group stores the profiles the *scheduler believed*
(profiler output, possibly noisy) along with the stage ordering chosen
from them; the simulator's executor later evaluates the group's real
iteration period from the true profiles under that same ordering,
which is how profiling noise degrades performance (Fig. 14).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from repro.core.efficiency import efficiency_for_period
from repro.core.ordering import Offsets, group_iteration_time
from repro.jobs.job import Job
from repro.jobs.resources import NUM_RESOURCES
from repro.jobs.stage import StageProfile
from repro.numeric import ordered_sum

__all__ = ["JobGroup"]


@dataclass(frozen=True)
class JobGroup:
    """A set of jobs interleaved on the same GPUs.

    Attributes:
        jobs: The member jobs.  All members request the same number of
            GPUs (Muri buckets by GPU count; section 4.2).
        believed_profiles: The per-job profiles the grouping decision
            was based on, in the same order as ``jobs``.
        offsets: Phase offsets chosen for the members (distinct mod k).
        num_resources: Number of resource types k.
        coordinated: True for Muri-style barrier-coordinated
            interleaving; False for uncoordinated GPU sharing (AntMan),
            which the executor penalizes with extra contention.
    """

    jobs: Tuple[Job, ...]
    believed_profiles: Tuple[StageProfile, ...]
    offsets: Offsets
    num_resources: int = NUM_RESOURCES
    coordinated: bool = True

    def __post_init__(self) -> None:
        if not self.jobs:
            raise ValueError("a group needs at least one job")
        if len(self.jobs) != len(self.believed_profiles):
            raise ValueError("need one believed profile per job")
        if len(self.offsets) != len(self.jobs):
            raise ValueError("need one offset per job")
        gpu_counts = {job.num_gpus for job in self.jobs}
        if len(gpu_counts) != 1:
            raise ValueError(
                f"all jobs in a group must use the same GPU count, got {gpu_counts}"
            )

    # -- static facts -----------------------------------------------------

    @property
    def size(self) -> int:
        """Number of member jobs."""
        return len(self.jobs)

    @property
    def num_gpus(self) -> int:
        """GPUs the group occupies (every member shares the same set)."""
        return self.jobs[0].num_gpus

    @classmethod
    def solo(cls, job: Job, believed_profile: Optional[StageProfile] = None) -> "JobGroup":
        """A degenerate group holding a single un-interleaved job."""
        profile = believed_profile if believed_profile is not None else job.profile
        return cls((job,), (profile,), (0,))

    # -- believed (scheduler-side) metrics ---------------------------------

    # The group is frozen, so its believed metrics are computed once;
    # armed runs read them again for every provenance record.
    @cached_property
    def believed_period(self) -> float:
        """Iteration period T the scheduler expects (Eq. 3)."""
        return group_iteration_time(
            self.believed_profiles, self.offsets, self.num_resources
        )

    @cached_property
    def believed_efficiency(self) -> float:
        """Interleaving efficiency gamma the scheduler expects (Eq. 4)."""
        return efficiency_for_period(
            self.believed_profiles, self.believed_period, self.num_resources
        )

    # -- actual (executor-side) metrics -------------------------------------

    def actual_period(self, contention_factor: float = 1.0) -> float:
        """True iteration period from the members' real profiles.

        Args:
            contention_factor: Multiplicative overhead (>= 1) from
                resource contention between overlapped stages; see
                ``repro.sim.contention``.
        """
        true_profiles = tuple(job.profile for job in self.jobs)
        period = group_iteration_time(true_profiles, self.offsets, self.num_resources)
        return period * contention_factor

    def actual_efficiency(self) -> float:
        """True interleaving efficiency from the members' real profiles."""
        true_profiles = tuple(job.profile for job in self.jobs)
        return efficiency_for_period(
            true_profiles, self.actual_period(), self.num_resources
        )

    def normalized_throughputs(self, contention_factor: float = 1.0) -> Dict[int, float]:
        """Per-job throughput relative to running alone.

        A member finishing one iteration per period ``T`` has
        normalized throughput ``solo_iteration_time / T`` (Table 2's
        "Norm. Tput" row).
        """
        period = self.actual_period(contention_factor)
        return {
            job.job_id: job.profile.iteration_time / period for job in self.jobs
        }

    def busy_time(self, resource: int) -> float:
        """Seconds per period the group keeps ``resource`` busy."""
        return ordered_sum(
            job.profile.durations[resource] for job in self.jobs
        )

    def peak_memory_gb(self, residual: float = 0.10) -> Optional[float]:
        """Peak per-GPU memory of the interleaved group (section 2.2).

        Members without a declared footprint contribute nothing to the
        peak, so a mixed known/unknown group reports the peak of its
        *known* footprints — a lower bound that still lets memory caps
        bind — instead of silently bypassing the feasibility check.
        Returns None only when no member declares a footprint.
        """
        from repro.jobs.memory import group_peak_memory

        footprints = [
            job.spec.memory
            for job in self.jobs
            if job.spec.memory is not None
        ]
        if not footprints:
            return None
        return group_peak_memory(
            footprints, coordinated=self.coordinated, residual=residual
        )

    def __contains__(self, job: Job) -> bool:
        return any(member.job_id == job.job_id for member in self.jobs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ", ".join(job.name for job in self.jobs)
        return f"JobGroup([{names}], gpus={self.num_gpus}, offsets={self.offsets})"
