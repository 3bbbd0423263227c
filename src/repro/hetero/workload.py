"""Heterogeneous clusters and type-pinned workloads.

Builders that turn a homogeneous trace + cluster into a heterogeneous
scenario:

* :func:`make_type_mix` — a seeded per-machine generation layout;
* :func:`make_hetero_cluster` — a :class:`~repro.cluster.Cluster`
  carrying that layout;
* :func:`pin_jobs` / :func:`build_hetero_jobs` — job specs whose
  stage profiles are pre-scaled for the generation they are pinned
  (or prefer) to run on, so a job's iteration time depends on where
  it lands.

Determinism contract: the same ``(trace, type_names, seed)`` always
yields the same layout, the same per-job generation assignment, and
the same scaled profiles — replay runs and differential oracles rely
on it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.machine import GpuType
from repro.hetero.types import DEFAULT_TYPE_SCALING, TypeScaling, get_gpu_type
from repro.jobs.job import JobSpec, replace_spec
from repro.jobs.stage import StageProfile
from repro.models.zoo import ModelProfile
from repro.trace.records import Trace
from repro.trace.workload import build_jobs

__all__ = [
    "make_type_mix",
    "make_hetero_cluster",
    "pin_jobs",
    "build_hetero_jobs",
]

#: Seed offset separating the type-assignment RNG stream from the
#: model-assignment stream build_jobs already draws from the same seed.
_TYPE_SEED_OFFSET = 0x9E37


def make_type_mix(
    type_names: Sequence[str],
    num_machines: int,
    seed: int = 0,
) -> List[GpuType]:
    """A seeded per-machine generation layout.

    Every requested generation appears at least once (machine ``i``
    gets generation ``i`` for the first ``len(type_names)`` machines);
    the remainder is drawn uniformly, so the mix is representative but
    never degenerate.

    Args:
        type_names: Generation names from the catalogue.
        num_machines: Number of machines to lay out.
        seed: RNG seed for the uniform tail.

    Raises:
        ValueError: With no type names or fewer machines than names.
        KeyError: For unknown generation names.
    """
    if not type_names:
        raise ValueError("need at least one generation name")
    types = [get_gpu_type(name) for name in type_names]
    if num_machines < len(types):
        raise ValueError(
            f"{num_machines} machines cannot host all "
            f"{len(types)} generations"
        )
    rng = random.Random(seed + _TYPE_SEED_OFFSET)
    layout = list(types)
    layout.extend(
        rng.choice(types) for _ in range(num_machines - len(types))
    )
    return layout


def make_hetero_cluster(
    num_machines: int = 8,
    gpus_per_machine: int = 8,
    type_names: Sequence[str] = ("v100", "a100"),
    seed: int = 0,
) -> Cluster:
    """A cluster whose machines carry a seeded generation mix."""
    return Cluster(
        num_machines=num_machines,
        gpus_per_machine=gpus_per_machine,
        machine_types=make_type_mix(type_names, num_machines, seed),
    )


def pin_jobs(
    specs: Sequence[JobSpec],
    type_names: Sequence[str],
    seed: int = 0,
    scaling: Optional[TypeScaling] = None,
    prefer_fraction: float = 0.0,
) -> List[JobSpec]:
    """Pin each spec to a seeded generation and pre-scale its profile.

    Each job draws a generation uniformly from ``type_names``; its
    stage profile (and scalability curve, when present) is divided by
    the per-model speed factor of that generation, so the simulator's
    iteration arithmetic already reflects where the job will land.
    With ``prefer_fraction > 0`` a seeded subset carries a soft
    ``"prefer"`` affinity instead of a hard pin — those jobs keep the
    *baseline* profile because they may land anywhere.

    Args:
        specs: Job specs to transform (not mutated).
        type_names: Candidate generation names.
        seed: RNG seed; assignment is order-stable over ``specs``.
        scaling: Speed-factor table; :data:`DEFAULT_TYPE_SCALING` when
            omitted.
        prefer_fraction: Probability in [0, 1] of a soft affinity.

    Returns:
        New specs, input order preserved.
    """
    if not type_names:
        raise ValueError("need at least one generation name")
    if not 0.0 <= prefer_fraction <= 1.0:
        raise ValueError("prefer_fraction must be in [0, 1]")
    for name in type_names:
        get_gpu_type(name)
    table = scaling if scaling is not None else DEFAULT_TYPE_SCALING
    rng = random.Random(seed + _TYPE_SEED_OFFSET)
    # Jobs share few distinct (profile, factor) pairs; StageProfile is
    # frozen and compared by value, so they can share one scaled copy.
    profiles: Dict[Tuple[Tuple[float, ...], float], StageProfile] = {}
    pinned: List[JobSpec] = []
    for spec in specs:
        type_name = type_names[rng.randrange(len(type_names))]
        soft = prefer_fraction > 0.0 and rng.random() < prefer_fraction
        if soft:
            pinned.append(replace_spec(
                spec, gpu_affinity=type_name, affinity_mode="prefer",
            ))
            continue
        factor = table.factor(spec.model, type_name)
        key = (spec.profile.durations, factor)
        profile = profiles.get(key)
        if profile is None:
            profile = profiles[key] = spec.profile.scaled(1.0 / factor)
        scalability = spec.scalability
        pinned.append(replace_spec(
            spec,
            profile=profile,
            scalability=(
                None if scalability is None
                else scalability.scaled(1.0 / factor)
            ),
            gpu_affinity=type_name,
            affinity_mode="pin",
        ))
    return pinned


def build_hetero_jobs(
    trace: Trace,
    type_names: Sequence[str],
    models: Optional[Sequence[ModelProfile]] = None,
    seed: int = 0,
    network_scaling: float = 0.0,
    scaling: Optional[TypeScaling] = None,
    prefer_fraction: float = 0.0,
) -> List[JobSpec]:
    """Build type-pinned job specs straight from a trace.

    The heterogeneous twin of
    :func:`repro.trace.workload.build_jobs`: the same model
    assignment and iteration sizing (identical seed stream), followed
    by :func:`pin_jobs` on the result.
    """
    return pin_jobs(
        build_jobs(trace, models=models, seed=seed,
                   network_scaling=network_scaling),
        type_names,
        seed=seed,
        scaling=scaling,
        prefer_fraction=prefer_fraction,
    )
