"""Differential oracle for the heterogeneous-cluster arm.

The guarantee backing ``repro.hetero`` (see ``docs/heterogeneous.md``):
when every machine carries the *same* GPU generation and every job is
pinned to it, the whole heterogeneity surface — affinity-aware bucket
feasibility in the grouper, type-filtered placement pools, affinity
cache-key suffixes — must collapse into a no-op.
:func:`compare_homogeneous_identity` certifies it end to end by
running the single-type heterogeneous configuration against a plain
homogeneous cluster whose jobs carry the *identical pre-scaled
profiles* but no affinity, and demanding bit-identical results: the
whole :func:`~repro.verify.differential.result_mismatches` surface
except the per-generation accounting only the typed side has.

Mismatches raise :class:`~repro.verify.invariants.InvariantViolation`
with invariant name ``differential.homogeneous``, matching the other
differential oracles.

:func:`compare_uniform_scaling_identity` certifies the second
degeneracy promise: when every generation carries the *same* speed
factor there is no throughput signal, so the Gavel-style
:class:`~repro.cluster.placement.ThroughputAwarePlacer` must collapse
into today's :class:`~repro.cluster.placement.DescendingPlacer` path
bit-identically (invariant ``differential.uniform_scaling``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.placement import ThroughputAwarePlacer
from repro.hetero.types import GPU_GENERATIONS, TypeScaling, get_gpu_type
from repro.hetero.workload import make_hetero_cluster, pin_jobs
from repro.jobs.job import JobSpec
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import ClusterSimulator
from repro.verify.differential import result_mismatches
from repro.verify.invariants import InvariantViolation

__all__ = [
    "compare_homogeneous_identity",
    "compare_uniform_scaling_identity",
]


def compare_homogeneous_identity(
    specs: Sequence[JobSpec],
    type_name: str = "v100",
    scheduler: str = "muri-s",
    cluster_shape: Tuple[int, int] = (8, 8),
    scaling: Optional[TypeScaling] = None,
    seed: int = 0,
    sim_kwargs: Optional[Dict] = None,
    trace_name: str = "homogeneous-identity",
) -> Tuple[SimulationResult, SimulationResult]:
    """Single-type hetero vs plain homogeneous; must be bit-identical.

    Both sides see the *same pre-scaled job profiles* (the hetero
    side's :func:`~repro.hetero.pin_jobs` output, affinity stripped on
    the baseline), so any divergence is introduced by the affinity
    machinery itself — grouper feasibility checks, cache-key suffixes,
    the type-filtered placement pool — exactly the surface this oracle
    pins down.

    Args:
        specs: The workload, before pinning.
        type_name: The single generation every machine and job gets.
        scheduler: Registry name built fresh for each side.
        cluster_shape: ``(machines, gpus_per_machine)`` for both sides.
        scaling: Speed-factor table forwarded to ``pin_jobs``.
        seed: Pinning seed (only the RNG stream; with one candidate
            type every job pins identically regardless).
        sim_kwargs: Extra :class:`~repro.sim.ClusterSimulator`
            arguments applied to both simulators.
        trace_name: Workload label stamped on both results.

    Returns:
        ``(homogeneous_result, hetero_result)`` once identity holds.

    Raises:
        InvariantViolation: With invariant ``differential.homogeneous``
            on any divergence.
        KeyError: For an unknown generation name.
    """
    from repro.schedulers.registry import make_scheduler

    sim_kwargs = dict(sim_kwargs or {})
    machines, gpus = cluster_shape
    gpu_type = get_gpu_type(type_name)

    pinned = pin_jobs(specs, [type_name], seed=seed, scaling=scaling)
    stripped = [replace(spec, gpu_affinity=None) for spec in pinned]

    homogeneous = ClusterSimulator(
        make_scheduler(scheduler), cluster=Cluster(machines, gpus),
        **sim_kwargs,
    ).run(stripped, trace_name=trace_name)
    hetero = ClusterSimulator(
        make_scheduler(scheduler),
        cluster=Cluster(machines, gpus, machine_types=[gpu_type] * machines),
        **sim_kwargs,
    ).run(pinned, trace_name=trace_name)

    mismatches = result_mismatches(
        homogeneous, hetero,
        # Only the typed side accounts GPU time per generation.
        ignore=("gpu_seconds_by_type", "gpus_by_type"),
    )
    if mismatches:
        raise InvariantViolation(
            "differential.homogeneous",
            f"single-type ({type_name}) heterogeneous run diverged from "
            "the homogeneous baseline (affinity no-op guarantee broken)",
            details={"mismatches": mismatches},
        )
    return homogeneous, hetero


def compare_uniform_scaling_identity(
    specs: Sequence[JobSpec],
    type_names: Sequence[str] = ("k80", "a100"),
    scheduler: str = "muri-s",
    cluster_shape: Tuple[int, int] = (8, 8),
    factor: float = 1.0,
    prefer_fraction: float = 0.5,
    seed: int = 0,
    sim_kwargs: Optional[Dict] = None,
    trace_name: str = "uniform-scaling-identity",
) -> Tuple[SimulationResult, SimulationResult]:
    """Throughput-aware vs default placement under uniform factors.

    With every generation carrying the *same* speed factor there is no
    throughput signal, so the Gavel-style scoring in
    :class:`~repro.cluster.placement.ThroughputAwarePlacer` must make
    exactly the decisions today's
    :class:`~repro.cluster.placement.DescendingPlacer` path makes —
    same plans, bit-identical results.  Both runs share one
    mixed-generation cluster layout, one uniformly-scaled
    pinned/preferred workload, and the same
    ``landing_speed_scaling``; the only difference is the placer,
    exactly the surface this oracle pins down.  With the default
    ``factor=1.0`` the baseline side *is* today's path — every
    realized landing speed is neutral.

    Args:
        specs: The workload, before pinning.  Jobs whose demand
            exceeds their seeded generation pool starve rather than
            diverge (a hard pin never relaxes), so size demands under
            the smallest pool — or under ``gpus_per_machine``, which
            every pool can host — when sweeping seeds.
        type_names: Generation mix of cluster and workload.
        scheduler: Registry name built fresh for each side.
        cluster_shape: ``(machines, gpus_per_machine)`` for both sides.
        factor: The one speed factor every generation gets.
        prefer_fraction: Share of jobs pinned softly (prefer) instead
            of hard — the population the throughput-aware placer
            actually steers.
        seed: Pinning and cluster-layout seed.
        sim_kwargs: Extra :class:`~repro.sim.ClusterSimulator`
            arguments applied to both simulators.
        trace_name: Workload label stamped on both results.

    Returns:
        ``(baseline_result, aware_result)`` once identity holds.

    Raises:
        InvariantViolation: With invariant
            ``differential.uniform_scaling`` on any divergence.
        KeyError: For an unknown generation name.
    """
    from repro.schedulers.registry import make_scheduler

    sim_kwargs = dict(sim_kwargs or {})
    machines, gpus = cluster_shape
    uniform = TypeScaling(
        base={name: factor for name in GPU_GENERATIONS}
    )

    pinned = pin_jobs(
        specs,
        list(type_names),
        seed=seed,
        scaling=uniform,
        prefer_fraction=prefer_fraction,
    )

    def typed_cluster() -> Cluster:
        return make_hetero_cluster(
            machines, gpus, type_names=tuple(type_names), seed=seed
        )

    sim_kwargs["landing_speed_scaling"] = uniform
    baseline = ClusterSimulator(
        make_scheduler(scheduler), cluster=typed_cluster(), **sim_kwargs
    ).run(pinned, trace_name=trace_name)
    sim_kwargs["placer"] = ThroughputAwarePlacer(scaling=uniform)
    aware = ClusterSimulator(
        make_scheduler(scheduler), cluster=typed_cluster(), **sim_kwargs
    ).run(pinned, trace_name=trace_name)

    mismatches = result_mismatches(baseline, aware)
    if mismatches:
        raise InvariantViolation(
            "differential.uniform_scaling",
            "throughput-aware placement diverged from the default "
            "placer under uniform speed factors (degeneracy promise "
            "broken)",
            details={"mismatches": mismatches},
        )
    return baseline, aware
