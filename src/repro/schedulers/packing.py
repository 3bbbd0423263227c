"""Tetris-style multi-resource *space* packing (the Fig. 1(a) strawman).

Big-data multi-resource schedulers (Tetris, SIGCOMM '14; Graphene;
Carbyne) treat each job's demand as its *peak* usage per resource and
pack jobs onto machines so that the per-resource sums stay within
capacity — sharing in space, never overlapping in time.  The paper's
section 2 argues this cannot pack DL jobs: every DL job's peak GPU
demand is ~1 GPU-equivalent, so space packing degenerates to exclusive
GPU scheduling.

:class:`TetrisScheduler` reproduces that behaviour faithfully so the
claim is testable:

* each job's demand vector is its peak *fractional* usage of
  (storage, CPU, GPU, network) per GPU — for a staged DL job the peak
  on every used resource is 1.0 during its stage;
* candidate jobs are scored with Tetris's alignment heuristic (dot
  product of demand with remaining capacity) and packed greedily;
* two jobs may share a GPU set only if their *summed peak demands* fit
  into unit capacity — which staged DL jobs essentially never satisfy.

The scheduler therefore behaves like SRTF-with-alignment for DL
workloads, which is exactly the degeneration the paper predicts
("existing multi-resource schedulers degenerate to SRTF or its
variants", section 6.1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.core.group import JobGroup
from repro.jobs.job import Job
from repro.jobs.resources import NUM_RESOURCES
from repro.numeric import ordered_sum
from repro.schedulers.base import Scheduler, group_key

__all__ = ["TetrisScheduler", "peak_demand_vector"]


def peak_demand_vector(job: Job) -> Tuple[float, ...]:
    """Peak per-resource demand of a job, normalized to one GPU set.

    A staged job fully occupies a resource while its stage runs, so the
    peak demand on every resource with a non-zero stage is 1.0 — the
    paper's observation that peak-based packing sees DL jobs as
    unpackable.
    """
    return tuple(
        1.0 if job.profile.durations[r] > 0 else 0.0
        for r in range(min(NUM_RESOURCES, job.profile.num_resources))
    ) + (0.0,) * max(0, NUM_RESOURCES - job.profile.num_resources)


class TetrisScheduler(Scheduler):
    """Peak-demand space packing with Tetris's alignment score.

    Args:
        use_average_demand: If true, pack with *average* utilization
            (stage time / iteration time) instead of peak — an
            optimistic variant that over-packs and suffers interference
            (provided for the ablation bench; the faithful Tetris uses
            peaks).
        interference_penalty: Period factor per co-located job when
            ``use_average_demand`` forces time-overlapping shares; the
            executor's uncoordinated-group penalty also applies.
    """

    duration_aware = True
    preemptive = True

    def __init__(self, use_average_demand: bool = False) -> None:
        self.use_average_demand = use_average_demand
        self.name = "Tetris" + ("-avg" if use_average_demand else "")

    # -- demand ---------------------------------------------------------

    def _demand(self, job: Job) -> Tuple[float, ...]:
        if not self.use_average_demand:
            return peak_demand_vector(job)
        iteration = job.profile.iteration_time
        return tuple(
            job.profile.durations[r] / iteration
            for r in range(NUM_RESOURCES)
        )

    @staticmethod
    def _alignment(demand: Sequence[float], free: Sequence[float]) -> float:
        """Tetris's packing score: dot(demand, remaining capacity)."""
        return ordered_sum(d * f for d, f in zip(demand, free))

    # -- scheduling -----------------------------------------------------

    def decide(
        self,
        now: float,
        jobs: Sequence[Job],
        running: Dict[FrozenSet[int], JobGroup],
        total_gpus: int,
        reason: str = "tick",
    ) -> List[JobGroup]:
        # Shortest-remaining-first candidate order (the degeneration
        # the paper describes), packed greedily by alignment.
        ordered = sorted(
            jobs,
            key=lambda job: (
                job.remaining_gpu_service,
                job.spec.submit_time,
                job.job_id,
            ),
        )

        # Per-GPU-set resource headroom: slot i holds the residual
        # capacity vector of an already-packed share, keyed by the
        # members packed there.
        shares: List[Tuple[List[Job], List[float], int]] = []
        free_gpus = total_gpus
        for job in ordered:
            demand = self._demand(job)
            # Try to co-locate with an existing share of equal GPU
            # count (peak demands make this succeed essentially never
            # for DL jobs; the average variant over-packs).
            best_index, best_score = None, 0.0
            for index, (members, headroom, gpus) in enumerate(shares):
                if gpus != job.num_gpus:
                    continue
                if any(d > h + 1e-9 for d, h in zip(demand, headroom)):
                    continue
                score = self._alignment(demand, headroom)
                if best_index is None or score > best_score:
                    best_index, best_score = index, score
            if best_index is not None:
                members, headroom, gpus = shares[best_index]
                members.append(job)
                shares[best_index] = (
                    members,
                    [h - d for h, d in zip(headroom, demand)],
                    gpus,
                )
                continue
            if job.num_gpus <= free_gpus:
                shares.append(
                    ([job], [1.0 - d for d in demand], job.num_gpus)
                )
                free_gpus -= job.num_gpus

        plan: List[JobGroup] = []
        for members, _headroom, _gpus in shares:
            if len(members) == 1:
                plan.append(JobGroup.solo(members[0]))
            else:
                # Space sharing without stage coordination.
                profiles = tuple(job.profile for job in members)
                plan.append(
                    JobGroup(
                        jobs=tuple(members),
                        believed_profiles=profiles,
                        offsets=tuple(range(len(members))),
                        coordinated=False,
                    )
                )
        return plan
