"""Worker-side execution of sweep cells.

:func:`execute_run` is the single place a declarative
:class:`~repro.sweep.spec.RunSpec` turns back into live objects —
trace, job specs, scheduler, cluster, simulator — and runs.  It is a
top-level function on purpose: :class:`concurrent.futures`
process pools pickle callables by qualified name, so everything a
worker invokes must live at module scope.

Execution is deterministic per spec: the trace and model assignment
are derived from the spec's seed, the scheduler is built fresh, and
the simulator is seeded state-free, so the same spec produces the
same :class:`~repro.sim.metrics.SimulationResult` serially, in a
process pool, or on another machine.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.cluster.cluster import Cluster
from repro.jobs.job import JobSpec
from repro.profiler.noise import UniformNoise
from repro.profiler.profiler import ResourceProfiler
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import ClusterSimulator
from repro.sweep.spec import RunSpec
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs

__all__ = [
    "PrebuiltCell",
    "build_workload",
    "build_scheduler",
    "execute_run",
    "execute_prebuilt",
]


@dataclass
class PrebuiltCell:
    """A non-declarative cell: live objects instead of a spec.

    Used by :func:`repro.analysis.experiments.run_schedulers`, whose
    callers hand it arbitrary scheduler instances and job lists that
    have no registry description.  Prebuilt cells are picklable (the
    cluster is built parent-side so factories may be lambdas) but not
    resumable or shardable — they have no stable spec hash.

    Attributes:
        label: Result key, e.g. the scheduler's display name.
        specs: The workload.
        scheduler: A fresh scheduler instance for this run.
        cluster: A fresh cluster for this run.
        trace_name: Workload label recorded in the result.
        sim_options: Extra :class:`ClusterSimulator` keyword arguments.
    """

    label: str
    specs: Tuple[JobSpec, ...]
    scheduler: Scheduler
    cluster: Cluster
    trace_name: str = "workload"
    sim_options: Dict[str, Any] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        if self.sim_options is None:
            self.sim_options = {}


def build_workload(spec: RunSpec) -> Tuple[str, List[JobSpec]]:
    """Materialize the spec's trace and job list.

    Returns:
        ``(trace_name, job_specs)`` — deterministic for a given spec.

    Raises:
        ValueError: If ``spec.num_jobs`` is set and below 1.
    """
    if spec.num_jobs is not None and spec.num_jobs < 1:
        raise ValueError(f"num_jobs must be >= 1, got {spec.num_jobs}")
    if spec.trace_path is not None:
        # End-to-end ingestion: the cell replays a real (or
        # round-tripped) Philly CSV dump through the full adapter,
        # skip accounting included.
        from repro.trace.philly_csv import load_philly_csv

        trace, _ = load_philly_csv(spec.trace_path)
        if spec.num_jobs is not None and len(trace) > spec.num_jobs:
            trace = trace.head(spec.num_jobs)
    elif spec.trace_id == "replay":
        # The replay arm's constant-load trace; sized by num_jobs
        # rather than drawn from the paper's Philly presets.
        from repro.replay import synthetic_trace

        num_jobs = 2_000 if spec.num_jobs is None else spec.num_jobs
        trace = synthetic_trace(num_jobs, seed=spec.seed)
    else:
        trace = generate_trace(
            spec.trace_id,
            num_jobs=spec.num_jobs,
            seed=spec.seed,
            at_time_zero=spec.at_time_zero,
        )
    if spec.busiest_interval is not None:
        trace = trace.busiest_interval(spec.busiest_interval)
    models = list(spec.models) if spec.models is not None else None
    job_specs = build_jobs(trace, models=models, seed=spec.seed)
    if spec.elastic_fraction is not None:
        from repro.elastic.workload import attach_scalability

        job_specs = attach_scalability(
            job_specs, fraction=spec.elastic_fraction, seed=spec.seed
        )
    if spec.hetero_types is not None:
        from repro.hetero.workload import pin_jobs

        job_specs = pin_jobs(
            job_specs,
            list(spec.hetero_types),
            seed=spec.seed,
            prefer_fraction=spec.prefer_fraction or 0.0,
        )
    return trace.name, job_specs


def build_scheduler(spec: RunSpec) -> Scheduler:
    """Build the spec's scheduler (with a noisy profiler when asked)."""
    profiler = None
    if spec.noise_level is not None:
        profiler = ResourceProfiler(
            noise=UniformNoise(spec.noise_level),
            num_dry_runs=1,
            seed=spec.seed,
            cache_by_model=False,
        )
    return make_scheduler(
        spec.scheduler, profiler=profiler, **dict(spec.scheduler_options)
    )


def execute_run(spec: RunSpec) -> SimulationResult:
    """Run one declarative cell to completion, in this process.

    This is the serial path and the worker path: the sweep runner
    calls it directly when ``max_workers=1`` and through a process
    pool otherwise, so both produce identical results by construction.
    """
    trace_name, job_specs = build_workload(spec)
    scheduler = build_scheduler(spec)
    sim_options = dict(spec.sim_options)
    if spec.hetero_types is not None:
        from repro.hetero.types import DEFAULT_TYPE_SCALING
        from repro.hetero.workload import make_hetero_cluster

        cluster = make_hetero_cluster(
            spec.machines,
            spec.gpus_per_machine,
            type_names=tuple(spec.hetero_types),
            seed=spec.seed,
        )
        sim_options.setdefault("landing_speed_scaling", DEFAULT_TYPE_SCALING)
    else:
        cluster = Cluster(spec.machines, spec.gpus_per_machine)
    if spec.placement == "aware":
        from repro.cluster.placement import ThroughputAwarePlacer

        sim_options["placer"] = ThroughputAwarePlacer()
    elif spec.placement is not None:
        raise ValueError(
            f"unknown placement policy {spec.placement!r}; expected 'aware'"
        )
    simulator = ClusterSimulator(
        scheduler,
        cluster=cluster,
        **sim_options,
    )
    if spec.replay_batch_step is not None:
        from repro.replay import replay_trace

        result, _ = replay_trace(
            simulator, job_specs, trace_name=trace_name,
            batch_step_seconds=spec.replay_batch_step,
        )
        return result
    return simulator.run(job_specs, trace_name)


def execute_prebuilt(cell: PrebuiltCell) -> SimulationResult:
    """Run one prebuilt cell (live scheduler/cluster objects)."""
    simulator = ClusterSimulator(
        cell.scheduler, cluster=cell.cluster, **cell.sim_options
    )
    return simulator.run(list(cell.specs), cell.trace_name)


def _worker_entry(kind: str, payload: Any) -> Dict[str, Any]:
    """Process-pool entry point: execute a cell, never raise.

    Deterministic in-run exceptions come back as ``status="error"``
    payloads (retrying them would fail identically); only process
    death or hangs surface to the parent as pool failures.
    """
    start = time.perf_counter()
    try:
        if kind == "spec":
            result = execute_run(payload)
        elif kind == "prebuilt":
            result = execute_prebuilt(payload)
        else:
            raise ValueError(f"unknown task kind {kind!r}")
        return {
            "status": "ok",
            "result": result.to_dict(),
            "wall_clock": time.perf_counter() - start,
        }
    except BaseException:
        return {
            "status": "error",
            "error": traceback.format_exc(),
            "wall_clock": time.perf_counter() - start,
        }
