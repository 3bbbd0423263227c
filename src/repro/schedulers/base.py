"""Scheduler interface shared by Muri and every baseline.

A scheduler looks at the current set of unfinished, already-submitted
jobs and proposes the groups that should occupy the cluster until the
next scheduling event.  The simulator diffs the proposal against what
is running: untouched groups keep executing, removed groups are
preempted, and new groups pay a restart penalty before making
progress.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence

from repro.core.group import JobGroup
from repro.jobs.job import Job

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observe.tracer import Tracer

__all__ = ["Scheduler", "group_key", "fill_singletons"]


def group_key(group: JobGroup) -> FrozenSet[int]:
    """Identity of a group: the set of member job ids.

    The simulator treats a proposed group as "the same" as a running
    one when the member sets match, so it keeps running undisturbed.
    """
    return frozenset(job.job_id for job in group.jobs)


class Scheduler(ABC):
    """Base class for scheduling policies.

    Attributes:
        name: Display name used in reports.
        duration_aware: True when the policy needs job durations
            (SRTF/SRSF/Muri-S); False for LAS-family policies.
        preemptive: False for policies that never stop a running job
            (FIFO, AntMan).
        tracer: Optional :class:`~repro.observe.Tracer` set via
            :meth:`configure`; None means untraced.
    """

    name: str = "scheduler"
    duration_aware: bool = False
    preemptive: bool = True
    tracer: Optional["Tracer"] = None

    def configure(
        self,
        tracer: Optional["Tracer"] = None,
        event_regroup: Optional[bool] = None,
    ) -> "Scheduler":
        """Apply the uniform post-construction options and return self.

        This is the one signature :func:`~repro.schedulers.make_scheduler`
        and the fleet shard factory share: every scheduler accepts the
        same keywords, and policies that have no use for an option
        simply ignore it (a FIFO queue has nothing to regroup, so
        ``event_regroup`` is a no-op there).  Subclasses with more
        machinery — Muri's grouper — override this to thread the
        options through.

        Args:
            tracer: Tracer to attach; None leaves the current one.
            event_regroup: Run the full decision pass on
                arrival/completion events (Muri); ignored by policies
                without incremental state.

        Returns:
            ``self``, so construction chains:
            ``factory().configure(tracer=t)``.
        """
        if tracer is not None:
            self.tracer = tracer
        return self

    def notify_resize(self, job_id: int, old_gpus: int, new_gpus: int) -> None:
        """A job's GPU count changed (elastic resize); drop stale state.

        The simulator calls this after every applied resize, before the
        next :meth:`decide`.  Stateless policies have nothing to do;
        policies with decision caches keyed on GPU demand (Muri's
        overflow reservoir and per-bucket grouping cache) override this
        to invalidate them — a cached group may reference the job at
        its old size.

        Args:
            job_id: The resized job.
            old_gpus: GPU count before the resize.
            new_gpus: GPU count after the resize.
        """

    @abstractmethod
    def decide(
        self,
        now: float,
        jobs: Sequence[Job],
        running: Dict[FrozenSet[int], JobGroup],
        total_gpus: int,
        reason: str = "tick",
    ) -> List[JobGroup]:
        """Propose the set of groups to run.

        Args:
            now: Current simulation time.
            jobs: Every submitted, unfinished job (pending or running).
            running: Groups currently executing, keyed by
                :func:`group_key`.
            total_gpus: Cluster GPU capacity.
            reason: "tick" for a periodic invocation, "completion" for
                an event-driven backfill opportunity.  Expensive
                policies may serve completions from a cached plan, as
                Muri's prototype recomputes grouping only on its
                six-minute interval.

        Returns:
            Proposed groups, highest priority first, with total GPU
            demand at most ``total_gpus``.  The simulator may drop
            trailing groups that fail placement.
        """

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"


def fill_singletons(
    ordered_jobs: Sequence[Job],
    total_gpus: int,
    strict: bool = False,
) -> List[JobGroup]:
    """Greedily fill the cluster with one-job groups in the given order.

    Args:
        ordered_jobs: Jobs in descending scheduling priority.
        total_gpus: Capacity to fill.
        strict: If true, stop at the first job that does not fit
            (head-of-line blocking, classic FIFO); otherwise skip it
            and keep trying smaller jobs (backfill).
    """
    groups: List[JobGroup] = []
    free = total_gpus
    for job in ordered_jobs:
        if job.num_gpus <= free:
            groups.append(JobGroup.solo(job))
            free -= job.num_gpus
        elif strict:
            break
        if free == 0:
            break
    return groups
