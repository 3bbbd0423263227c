"""Turning traces into schedulable jobs.

A trace supplies (submit time, duration, GPU count); the model behind
each job is assigned randomly from the evaluation mix, exactly as the
paper does for Philly jobs whose model is unknown (section 6.1).  The
number of training iterations is derived from the trace duration and
the model's per-iteration time.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.models.zoo import DEFAULT_MODELS, get_model
from repro.trace.records import Trace

__all__ = ["build_jobs", "assign_models"]


def assign_models(
    trace: Trace,
    models: Optional[Sequence[str]] = None,
    seed: int = 0,
) -> List[str]:
    """Choose a model name for every record in the trace.

    Records that already carry a model keep it; the rest draw uniformly
    from ``models`` with a seeded RNG.
    """
    pool = list(models) if models is not None else list(DEFAULT_MODELS)
    if not pool:
        raise ValueError("the model pool must not be empty")
    rng = random.Random(seed)
    return [record.model or rng.choice(pool) for record in trace]


def build_jobs(
    trace: Trace,
    models: Optional[Sequence[str]] = None,
    seed: int = 0,
    network_scaling: float = 0.0,
) -> List[JobSpec]:
    """Materialize a trace into :class:`JobSpec` objects.

    Args:
        trace: The driving trace.
        models: Model pool to draw from (defaults to the Table 3 mix).
        seed: RNG seed for model assignment.
        network_scaling: Optional growth of the synchronization stage
            with worker count (see
            :meth:`repro.models.ModelProfile.stage_profile`).

    Returns:
        One spec per record.  ``num_iterations`` is
        ``duration / iteration_time`` (at least one), so the job's solo
        running time approximates the trace duration, the paper's
        construction.
    """
    assigned = assign_models(trace, models, seed)
    # A trace has few distinct (model, GPU count) pairs; StageProfile is
    # frozen and compared by value, so jobs can share one instance.
    profiles: Dict[Tuple[str, int], StageProfile] = {}
    specs: List[JobSpec] = []
    for record, model_name in zip(trace, assigned):
        model = get_model(model_name)
        key = (model.name, record.num_gpus)
        profile = profiles.get(key)
        if profile is None:
            profile = model.stage_profile(record.num_gpus, network_scaling)
            profiles[key] = profile
        iterations = max(1, round(record.duration / profile.iteration_time))
        specs.append(
            JobSpec(
                profile=profile,
                num_gpus=record.num_gpus,
                submit_time=record.submit_time,
                num_iterations=iterations,
                model=model.name,
                name=f"{trace.name}-job{record.job_id}",
                job_id=record.job_id,
                memory=model.memory,
            )
        )
    return specs
