"""Experiment runners for every table and figure in the paper.

Each function reproduces one evaluation artifact end to end: it builds
the workload, runs the schedulers through the simulator, and returns
the numbers in the same structure the paper reports.  The benchmark
harness (``benchmarks/``) and the examples both call these runners, so
there is exactly one implementation of each experiment.

Sizes default to bench scale (hundreds of jobs) so the whole suite
runs in minutes; pass ``num_jobs=None`` for paper-scale traces.

Every multi-run experiment is expressed as a flat list of sweep cells
(:mod:`repro.sweep.cells`) and submitted through a
:class:`~repro.sweep.runner.SweepRunner`: pass ``runner=`` to any of
them to execute the grid on a process pool (or resumably, or sharded);
the default is the runner-free in-process serial path, which executes
the identical cells in the identical order.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster
from repro.jobs.job import JobSpec
from repro.jobs.resources import RESOURCE_ORDER, Resource
from repro.models.zoo import DEFAULT_MODELS, MODEL_ZOO, get_model, models_for_bottlenecks
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import ClusterSimulator
from repro.sweep.cells import (
    ablation_cells,
    group_size_cells,
    job_type_cells,
    noise_cells,
    simulation_cells,
)
from repro.sweep.execute import PrebuiltCell, execute_run
from repro.sweep.runner import SweepError, SweepRunner
from repro.sweep.spec import RunSpec
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs

__all__ = [
    "run_schedulers",
    "normalized_metrics",
    "table1_stage_percentages",
    "table2_interleaving_example",
    "compare_testbed",
    "simulation_comparison",
    "detailed_metrics",
    "ablation_comparison",
    "group_size_comparison",
    "job_type_sweep",
    "profiling_noise_sweep",
    "DEFAULT_NUM_JOBS",
    "DEFAULT_CLUSTER_SHAPE",
]

#: Bench-scale defaults: 400 jobs (the paper's testbed interval size)
#: on the paper's 8 x 8 = 64-GPU cluster.
DEFAULT_NUM_JOBS = 400
DEFAULT_CLUSTER_SHAPE = (8, 8)


def _cluster() -> Cluster:
    machines, gpus = DEFAULT_CLUSTER_SHAPE
    return Cluster(machines, gpus)


def _run_cells(
    cells: Sequence[RunSpec],
    runner: Optional[SweepRunner],
) -> Dict[str, Tuple[RunSpec, SimulationResult]]:
    """Execute declarative cells, serially in-process by default.

    With ``runner=None`` each cell runs via
    :func:`~repro.sweep.execute.execute_run` in submission order —
    the exact serial path.  With a runner, the cells go through its
    pool/store/retry machinery and the payloads are deserialized back.

    Raises:
        SweepError: When the runner failed a cell or did not return
            one (e.g. it was configured with a shard — experiment
            aggregation needs every cell).
    """
    if runner is None:
        return {
            cell.run_id: (cell, execute_run(cell)) for cell in cells
        }
    results = runner.run(cells)
    out: Dict[str, Tuple[RunSpec, SimulationResult]] = {}
    for cell in cells:
        run = results.get(cell.run_id)
        if run is None:
            raise SweepError(
                f"run {cell.run_id} ({cell.label}, trace {cell.trace_id}) "
                "was not executed — experiment aggregation needs every "
                "cell; drop the shard selector or merge shard stores first"
            )
        if not run.ok:
            raise SweepError(
                f"run {cell.run_id} ({cell.label}, trace {cell.trace_id}) "
                f"failed:\n{run.error}"
            )
        out[cell.run_id] = (cell, run.simulation_result())
    return out


def run_schedulers(
    specs: Sequence[JobSpec],
    schedulers: Mapping[str, Scheduler],
    trace_name: str = "workload",
    cluster_factory=None,
    runner: Optional[SweepRunner] = None,
    **sim_kwargs,
) -> Dict[str, SimulationResult]:
    """Run a workload under several schedulers, each on a fresh cluster.

    Args:
        specs: The workload.
        schedulers: ``{label: scheduler}`` to compare.
        trace_name: Label recorded in each result.
        cluster_factory: Zero-argument callable building a fresh
            cluster per run; defaults to the paper's 64-GPU shape.
        runner: Optional :class:`SweepRunner`; with more than one
            worker the per-scheduler runs execute concurrently as
            prebuilt cells (results are identical to the serial path).
        **sim_kwargs: Extra :class:`ClusterSimulator` arguments.

    Raises:
        SweepError: When a pooled run fails.
    """
    factory = cluster_factory or _cluster
    if runner is None or runner.max_workers <= 1:
        results: Dict[str, SimulationResult] = {}
        for label, scheduler in schedulers.items():
            simulator = ClusterSimulator(
                scheduler, cluster=factory(), **sim_kwargs
            )
            results[label] = simulator.run(specs, trace_name)
        return results
    cells = [
        PrebuiltCell(
            label=label,
            specs=tuple(specs),
            scheduler=scheduler,
            cluster=factory(),
            trace_name=trace_name,
            sim_options=dict(sim_kwargs),
        )
        for label, scheduler in schedulers.items()
    ]
    runs = runner.run_prebuilt(cells)
    out: Dict[str, SimulationResult] = {}
    for label in schedulers:
        run = runs[label]
        if not run.ok:
            raise SweepError(f"run {label!r} failed:\n{run.error}")
        out[label] = run.simulation_result()
    return out


def normalized_metrics(
    results: Mapping[str, SimulationResult],
    reference: str,
) -> Dict[str, Dict[str, float]]:
    """Tables 4/5 style rows: every scheduler normalized to a reference.

    A value of 2.12 in row "Normalized JCT", column "SRTF" means SRTF's
    average JCT is 2.12x the reference's (the reference column is 1).
    """
    ref = results[reference]
    rows: Dict[str, Dict[str, float]] = {
        "Normalized JCT": {},
        "Normalized Makespan": {},
        "Normalized 99th %-ile JCT": {},
    }
    for label, result in results.items():
        rows["Normalized JCT"][label] = result.avg_jct / ref.avg_jct
        rows["Normalized Makespan"][label] = result.makespan / ref.makespan
        rows["Normalized 99th %-ile JCT"][label] = (
            result.tail_jct(99.0) / ref.tail_jct(99.0)
        )
    return rows


# ---------------------------------------------------------------------------
# Table 1 / Table 2
# ---------------------------------------------------------------------------

def table1_stage_percentages() -> List[Tuple[str, float, float, float, float]]:
    """Table 1: per-stage duration percentage of each published model."""
    rows = []
    for name in ("ShuffleNet", "VGG19", "GPT-2", "A2C"):
        model = get_model(name)
        rows.append((name,) + tuple(model.stage_percentages))
    return rows


def table2_interleaving_example(
    num_gpus: int = 16,
) -> Dict[str, Dict[str, float]]:
    """Table 2: the four-model interleaving example.

    Returns per-model separate/shared throughput and normalized
    throughput, plus the group total, using the executor's contention
    model (the paper's measured total is 2.0x).
    """
    from repro.core.ordering import best_ordering
    from repro.sim.contention import DEFAULT_CONTENTION

    names = ("ShuffleNet", "A2C", "GPT-2", "VGG16")
    profiles = [get_model(name).stage_profile(num_gpus) for name in names]
    _offsets, period = best_ordering(profiles)
    period *= DEFAULT_CONTENTION.factor(len(names))

    table: Dict[str, Dict[str, float]] = {}
    total = 0.0
    for name, profile in zip(names, profiles):
        model = get_model(name)
        separate = model.batch_size * num_gpus / profile.iteration_time
        shared = model.batch_size * num_gpus / period
        normalized = profile.iteration_time / period
        total += normalized
        table[name] = {
            "bottleneck": float(profile.bottleneck.value),
            "separate_tput": separate,
            "sharing_tput": shared,
            "normalized_tput": normalized,
        }
    table["__total__"] = {"total_normalized_tput": total}
    return table


# ---------------------------------------------------------------------------
# Tables 4/5 and Figure 8 — the "testbed" experiment
# ---------------------------------------------------------------------------

def _testbed_specs(num_jobs: int, seed: int) -> Tuple[str, List[JobSpec]]:
    """The busiest-interval workload of the testbed experiments."""
    trace = generate_trace("2", num_jobs=max(num_jobs * 3, num_jobs), seed=seed)
    trace = trace.busiest_interval(num_jobs)
    return trace.name, build_jobs(trace, seed=seed)


def compare_testbed(
    duration_known: bool,
    num_jobs: int = DEFAULT_NUM_JOBS,
    seed: int = 0,
) -> Tuple[Dict[str, SimulationResult], Dict[str, Dict[str, float]]]:
    """Tables 4 and 5: scheduler comparison on the 400-job interval.

    Args:
        duration_known: True reproduces Table 4 (SRTF/SRSF vs Muri-S),
            False Table 5 (Tiresias/Themis vs Muri-L).

    Returns:
        ``(results, normalized_rows)`` where rows are normalized to the
        Muri variant (its column is 1.0).
    """
    trace_name, specs = _testbed_specs(num_jobs, seed)
    if duration_known:
        schedulers = {
            "SRTF": make_scheduler("srtf"),
            "SRSF": make_scheduler("srsf"),
            "Muri-S": make_scheduler("muri-s"),
        }
        reference = "Muri-S"
    else:
        schedulers = {
            "Tiresias": make_scheduler("tiresias"),
            "Themis": make_scheduler("themis"),
            "Muri-L": make_scheduler("muri-l"),
        }
        reference = "Muri-L"
    results = run_schedulers(specs, schedulers, trace_name)
    return results, normalized_metrics(results, reference)


def detailed_metrics(
    num_jobs: int = DEFAULT_NUM_JOBS,
    seed: int = 0,
    duration_known: bool = True,
) -> Dict[str, SimulationResult]:
    """Figure 8: full time series (queue length, blocking index,
    per-resource utilization) for each scheduler on the testbed trace."""
    trace_name, specs = _testbed_specs(num_jobs, seed)
    if duration_known:
        names = {"SRTF": "srtf", "SRSF": "srsf", "Muri-S": "muri-s"}
    else:
        names = {"Tiresias": "tiresias", "Themis": "themis", "Muri-L": "muri-l"}
    schedulers = {label: make_scheduler(key) for label, key in names.items()}
    return run_schedulers(specs, schedulers, trace_name)


# ---------------------------------------------------------------------------
# Figures 9/10 — trace-driven simulation
# ---------------------------------------------------------------------------

def simulation_comparison(
    duration_known: bool,
    trace_ids: Sequence[str] = ("1", "2", "3", "4", "1'", "2'", "3'", "4'"),
    num_jobs: Optional[int] = DEFAULT_NUM_JOBS,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figures 9 and 10: per-trace speedups of Muri over each baseline.

    Args:
        runner: Optional :class:`SweepRunner` to execute the
            (trace x scheduler) grid concurrently and/or resumably.

    Returns:
        ``{trace_id: {baseline: {metric: speedup}}}`` where speedup > 1
        means Muri wins (the paper's normalized bars).
    """
    if duration_known:
        baseline_labels = ("SRTF", "SRSF")
        muri_label = "Muri-S"
    else:
        baseline_labels = ("Tiresias", "AntMan", "Themis")
        muri_label = "Muri-L"

    cells = simulation_cells(
        duration_known, trace_ids=trace_ids, num_jobs=num_jobs, seed=seed
    )
    by_trace: Dict[str, Dict[str, SimulationResult]] = {}
    for cell, result in _run_cells(cells, runner).values():
        by_trace.setdefault(cell.trace_id, {})[cell.label] = result

    sweep: Dict[str, Dict[str, Dict[str, float]]] = {}
    for trace_id in trace_ids:
        results = by_trace[trace_id]
        muri = results[muri_label]
        sweep[trace_id] = {
            label: muri.speedup_over(results[label])
            for label in baseline_labels
        }
    return sweep


# ---------------------------------------------------------------------------
# Figure 11 — scheduling-algorithm ablation
# ---------------------------------------------------------------------------

def ablation_comparison(
    trace_ids: Sequence[str] = ("1", "2", "3", "4"),
    num_jobs: Optional[int] = DEFAULT_NUM_JOBS,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 11: Muri-L vs worst-ordering and no-Blossom variants.

    Args:
        runner: Optional :class:`SweepRunner` for the cell grid.

    Returns:
        ``{trace_id: {variant: {metric: value normalized to Muri-L}}}``
        — values above 1 mean the variant is worse.
    """
    cells = ablation_cells(trace_ids=trace_ids, num_jobs=num_jobs, seed=seed)
    by_trace: Dict[str, Dict[str, SimulationResult]] = {}
    for cell, result in _run_cells(cells, runner).values():
        by_trace.setdefault(cell.trace_id, {})[cell.label] = result

    sweep: Dict[str, Dict[str, Dict[str, float]]] = {}
    for trace_id in trace_ids:
        results = by_trace[trace_id]
        reference = results["Muri-L"]
        sweep[trace_id] = {
            label: {
                "avg_jct": result.avg_jct / reference.avg_jct,
                "makespan": result.makespan / reference.makespan,
            }
            for label, result in results.items()
        }
    return sweep


# ---------------------------------------------------------------------------
# Figure 12 — group-size sweep
# ---------------------------------------------------------------------------

def group_size_comparison(
    trace_ids: Sequence[str] = ("1", "2", "3", "4"),
    num_jobs: Optional[int] = DEFAULT_NUM_JOBS,
    seed: int = 0,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Figure 12: Muri-L with 2/3/4-job groups vs AntMan, all at t=0.

    Args:
        runner: Optional :class:`SweepRunner` for the cell grid.

    Returns:
        ``{trace_id: {scheduler: {metric: value normalized to AntMan}}}``
        — values below 1 beat AntMan.
    """
    cells = group_size_cells(
        trace_ids=trace_ids, num_jobs=num_jobs, seed=seed
    )
    by_trace: Dict[str, Dict[str, SimulationResult]] = {}
    for cell, result in _run_cells(cells, runner).values():
        by_trace.setdefault(cell.trace_id, {})[cell.label] = result

    sweep: Dict[str, Dict[str, Dict[str, float]]] = {}
    for trace_id in trace_ids:
        results = by_trace[trace_id]
        reference = results["AntMan"]
        sweep[trace_id] = {
            label: {
                "avg_jct": result.avg_jct / reference.avg_jct,
                "makespan": result.makespan / reference.makespan,
            }
            for label, result in results.items()
        }
    return sweep


# ---------------------------------------------------------------------------
# Figure 13 — workload-distribution sweep
# ---------------------------------------------------------------------------

def job_type_sweep(
    num_types_values: Sequence[int] = (1, 2, 3, 4),
    num_jobs: Optional[int] = DEFAULT_NUM_JOBS,
    seed: int = 0,
    trace_id: str = "1",
    runner: Optional[SweepRunner] = None,
) -> Dict[int, Dict[str, float]]:
    """Figure 13: speedup vs the number of distinct bottleneck types.

    Returns:
        ``{num_types: {"Muri-S/SRTF": x, "Muri-L/Tiresias": y}}``.
    """
    cells = job_type_cells(
        num_types_values=num_types_values, num_jobs=num_jobs,
        seed=seed, trace_id=trace_id,
    )
    # Cells of one num_types share a model pool; key on the label
    # suffix ("Muri-S@3") since they all use the same trace id.
    by_types: Dict[int, Dict[str, SimulationResult]] = {}
    for cell, result in _run_cells(cells, runner).values():
        label, num_types = cell.label.rsplit("@", 1)
        by_types.setdefault(int(num_types), {})[label] = result

    sweep: Dict[int, Dict[str, float]] = {}
    for num_types in num_types_values:
        results = by_types[num_types]
        sweep[num_types] = {
            "Muri-S/SRTF": results["Muri-S"].speedup_over(results["SRTF"])["avg_jct"],
            "Muri-L/Tiresias": results["Muri-L"].speedup_over(
                results["Tiresias"]
            )["avg_jct"],
        }
    return sweep


# ---------------------------------------------------------------------------
# Figure 14 — profiling-noise sweep
# ---------------------------------------------------------------------------

def profiling_noise_sweep(
    noise_levels: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    num_jobs: Optional[int] = DEFAULT_NUM_JOBS,
    seed: int = 0,
    trace_id: str = "1",
    runner: Optional[SweepRunner] = None,
) -> Dict[float, Dict[str, float]]:
    """Figure 14: Muri-L under profiling noise n_p in [0, 1].

    The profiler hands Muri stage durations multiplied by a uniform
    factor in ``[1 - n_p, 1 + n_p]``; grouping and ordering decisions
    degrade while execution uses the truth.

    Substitution note: the paper runs this on its lightly loaded trace
    3.  Our capacity-aware Muri does group there (Muri-L forms 45
    groups on the 400-job trace 3, seed 0), but few enough that noise
    barely moves the result: at n_p = 1.0, JCT rises x1.005 on the
    full trace 3 against x1.046 on the full trace 1.  So the default
    here is the congested trace 1, where grouping decisions carry more
    of the schedule.

    Returns:
        ``{noise: {"avg_jct": normalized, "makespan": normalized}}``
        normalized to the noise-free run.
    """
    cells = noise_cells(
        noise_levels=noise_levels, num_jobs=num_jobs,
        seed=seed, trace_id=trace_id,
    )
    runs: Dict[float, SimulationResult] = {}
    for cell, result in _run_cells(cells, runner).values():
        runs[cell.noise_level] = result

    reference_level = min(noise_levels)
    reference = runs[reference_level]
    return {
        level: {
            "avg_jct": result.avg_jct / reference.avg_jct,
            "makespan": result.makespan / reference.makespan,
        }
        for level, result in runs.items()
    }
