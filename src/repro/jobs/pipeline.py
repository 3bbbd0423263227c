"""Model-parallel (pipeline) training jobs — the paper's section 7.

Muri's prototype supports data-parallel training; the paper sketches
how model parallelism fits: each pipeline worker's iteration is itself
staged —

* the **first** worker loads data (storage) and preprocesses (CPU),
  computes its shard (GPU), and sends activations downstream (network);
* a **middle** worker receives activations (network), computes (GPU),
  and sends (network) — the full-duplex NIC lets receive and send
  overlap, so their network time folds to the larger of the two;
* the **last** worker receives (network), computes (GPU), and
  synchronizes gradients (network).

The pipeline advances in lock step, so the job's steady-state period
is its *slowest* worker's stage sum ("the speed of a job depends on
its slowest worker"), and that worker's profile is what the scheduler
should interleave against — Muri "adjusts the interleaving efficiency
for the Blossom-based scheduling algorithm" by using it.

:func:`make_model_parallel_job` builds the per-worker profiles and a
schedulable :class:`~repro.jobs.job.JobSpec` whose profile is the
bottleneck worker's, occupying one GPU per pipeline stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.jobs.job import JobSpec
from repro.jobs.resources import Resource
from repro.jobs.stage import StageProfile

__all__ = ["PipelineWorker", "ModelParallelJob", "make_model_parallel_job"]


@dataclass(frozen=True)
class PipelineWorker:
    """One stage-worker of a model-parallel job.

    Attributes:
        index: Position in the pipeline (0 = first).
        profile: The worker's per-iteration stage profile.
        role: "first", "middle", or "last".
    """

    index: int
    profile: StageProfile
    role: str


@dataclass(frozen=True)
class ModelParallelJob:
    """A pipeline-parallel job: per-worker profiles plus the spec.

    Attributes:
        spec: The schedulable job (one GPU per worker; profile = the
            bottleneck worker's, per section 7's adjustment).
        workers: The per-worker profiles, pipeline order.
    """

    spec: JobSpec
    workers: Tuple[PipelineWorker, ...]

    @property
    def num_stages(self) -> int:
        """Number of pipeline stages: one worker per stage."""
        return len(self.workers)

    @property
    def bottleneck_worker(self) -> PipelineWorker:
        """The worker bounding the pipeline's steady-state period."""
        return max(self.workers, key=lambda w: w.profile.iteration_time)

    @property
    def pipeline_period(self) -> float:
        """Steady-state seconds per iteration of the whole pipeline."""
        return self.bottleneck_worker.profile.iteration_time

    def worker_utilizations(self) -> List[float]:
        """Each worker's busy fraction at steady state.

        Non-bottleneck workers idle while waiting for the slowest one —
        the intra-job inefficiency that makes these jobs attractive
        interleaving partners.
        """
        period = self.pipeline_period
        return [w.profile.iteration_time / period for w in self.workers]


def make_model_parallel_job(
    num_stages: int,
    compute_time: float,
    activation_time: float,
    load_time: float = 0.0,
    preprocess_time: float = 0.0,
    sync_time: float = 0.0,
    num_iterations: int = 1,
    submit_time: float = 0.0,
    model: str = "pipeline",
    name: Optional[str] = None,
    balanced: bool = True,
) -> ModelParallelJob:
    """Build a model-parallel job from pipeline parameters.

    Args:
        num_stages: Pipeline depth (one GPU per stage).
        compute_time: Total GPU seconds per iteration across the model;
            split evenly over stages when ``balanced``, else weighted
            toward the first stages (embedding-heavy models).
        activation_time: Seconds to transfer activations between
            adjacent workers (send and receive each take this long;
            full duplex folds a middle worker's send+receive into
            ``activation_time``).
        load_time: First worker's data-loading (storage) seconds.
        preprocess_time: First worker's preprocessing (CPU) seconds.
        sync_time: Last worker's gradient-synchronization seconds.
        num_iterations: Training iterations.
        submit_time: Arrival time.
        model: Model label.
        name: Optional job name.
        balanced: Even compute split across stages.

    Returns:
        The :class:`ModelParallelJob` (spec + per-worker profiles).

    Raises:
        ValueError: For a pipeline shallower than two stages.
    """
    if num_stages < 2:
        raise ValueError("a model-parallel job needs at least 2 stages")
    if compute_time <= 0:
        raise ValueError("compute_time must be > 0")
    if activation_time < 0:
        raise ValueError("activation_time must be >= 0")

    if balanced:
        shares = [compute_time / num_stages] * num_stages
    else:
        # Front-loaded split: stage i gets weight (num_stages - i).
        weights = list(range(num_stages, 0, -1))
        total = sum(weights)
        shares = [compute_time * w / total for w in weights]

    workers: List[PipelineWorker] = []
    for index in range(num_stages):
        if index == 0:
            role = "first"
            profile = StageProfile.from_mapping({
                Resource.STORAGE: load_time,
                Resource.CPU: preprocess_time,
                Resource.GPU: shares[index],
                Resource.NETWORK: activation_time,   # send downstream
            })
        elif index == num_stages - 1:
            role = "last"
            profile = StageProfile.from_mapping({
                Resource.GPU: shares[index],
                # Receive upstream + gradient sync; full duplex lets the
                # receive overlap the sync, so the larger one dominates.
                Resource.NETWORK: max(activation_time, sync_time),
            })
        else:
            role = "middle"
            profile = StageProfile.from_mapping({
                Resource.GPU: shares[index],
                # Full-duplex NIC: receive and send overlap.
                Resource.NETWORK: activation_time,
            })
        workers.append(PipelineWorker(index=index, profile=profile, role=role))

    bottleneck = max(workers, key=lambda w: w.profile.iteration_time)
    spec = JobSpec(
        profile=bottleneck.profile,
        num_gpus=num_stages,
        submit_time=submit_time,
        num_iterations=num_iterations,
        model=model,
        name=name,
    )
    return ModelParallelJob(spec=spec, workers=tuple(workers))
