"""Attach scalability curves to existing workloads.

Synthetic traces produce rigid :class:`~repro.jobs.JobSpec` s;
:func:`attach_scalability` turns a seeded fraction of them elastic by
fitting an Amdahl-style goodput curve through each job's requested
operating point.  The transformation is deterministic in the seed and
keeps every spec's identity (job id, submit time, iterations, profile
at the requested count) unchanged, so elastic sweep cells stay
declaratively reproducible from a :class:`~repro.sweep.RunSpec`.
"""

from __future__ import annotations

import random
from typing import List, Sequence

from repro.jobs.job import JobSpec, replace_spec
from repro.jobs.scalability import ScalabilityProfile

__all__ = ["attach_scalability", "amdahl_curve"]


def amdahl_curve(
    spec: JobSpec,
    serial_fraction: float,
    max_gpus: int = 8,
) -> ScalabilityProfile:
    """An Amdahl-law goodput curve through the spec's operating point.

    Throughput at ``g`` GPUs is modelled as
    ``g / (1 + serial_fraction * (g - 1))`` relative to one GPU — the
    classic diminishing-returns shape — and the supported counts are
    the powers of two up to ``max_gpus`` plus the spec's own count.
    Stage durations at every count are the spec profile scaled by the
    relative speedup, so the curve passes exactly through the profile
    the spec already carries.

    Args:
        spec: The job to fit a curve for.
        serial_fraction: Amdahl serial fraction in ``[0, 1)``; larger
            values flatten the curve (scale-out pays less).
        max_gpus: Largest power-of-two count to support.

    Returns:
        The fitted :class:`~repro.jobs.ScalabilityProfile`.
    """
    if not 0.0 <= serial_fraction < 1.0:
        raise ValueError(
            f"serial_fraction must be in [0, 1), got {serial_fraction}"
        )

    def throughput(gpus: int) -> float:
        return gpus / (1.0 + serial_fraction * (gpus - 1))

    counts = set()
    gpus = 1
    while gpus <= max_gpus:
        counts.add(gpus)
        gpus *= 2
    counts.add(spec.num_gpus)
    base = throughput(spec.num_gpus)
    speedups = {
        count: throughput(count) / base for count in sorted(counts)
    }
    return ScalabilityProfile.from_speedups(
        spec.num_gpus, spec.profile, speedups
    )


def attach_scalability(
    specs: Sequence[JobSpec],
    fraction: float = 0.5,
    seed: int = 0,
    max_gpus: int = 8,
    serial_fraction_range: Sequence[float] = (0.05, 0.35),
) -> List[JobSpec]:
    """Make a seeded fraction of a workload elastic.

    Args:
        specs: The rigid workload (order preserved).
        fraction: Probability each job becomes elastic.
        seed: RNG seed; the same seed always elects the same jobs and
            fits the same curves.
        max_gpus: Largest supported GPU count per elastic job.
        serial_fraction_range: Per-job Amdahl serial fraction is drawn
            uniformly from this ``(low, high)`` interval.

    Returns:
        A new spec list; elected jobs carry a scalability profile,
        everything else is returned untouched.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    low, high = serial_fraction_range
    rng = random.Random(seed)
    out: List[JobSpec] = []
    for spec in specs:
        # Draw both variates unconditionally so each job's curve is
        # independent of how many jobs before it were elected.
        elected = rng.random() < fraction
        serial_fraction = rng.uniform(low, high)
        if not elected:
            out.append(spec)
            continue
        out.append(replace_spec(
            spec,
            scalability=amdahl_curve(spec, serial_fraction, max_gpus),
        ))
    return out
