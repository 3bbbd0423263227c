"""Cell builders: each paper experiment as a flat list of RunSpecs.

These mirror the loops inside :mod:`repro.analysis.experiments` — one
:class:`~repro.sweep.spec.RunSpec` per (trace, scheduler, seed, config)
combination, with identical seeds and construction — so a sweep over
the cells reproduces the serial experiment exactly, run by run.  The
experiment functions aggregate over these same cells; the ``repro
sweep`` CLI and the CI shards execute them directly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.models.zoo import models_for_bottlenecks
from repro.sweep.spec import RunSpec

__all__ = [
    "SWEEPABLE_EXPERIMENTS",
    "simulation_cells",
    "ablation_cells",
    "group_size_cells",
    "job_type_cells",
    "noise_cells",
    "robustness_cells",
    "elastic_cells",
    "replay_cells",
    "hetero_cells",
    "experiment_cells",
]

#: Default simulated trace set of Figs. 9/10.
_SIM_TRACES = ("1", "2", "3", "4", "1'", "2'", "3'", "4'")

#: Default trace set of the ablation-style figures (11-12).
_ABLATION_TRACES = ("1", "2", "3", "4")


def simulation_cells(
    duration_known: bool,
    trace_ids: Sequence[str] = _SIM_TRACES,
    num_jobs: Optional[int] = 400,
    seed: int = 0,
) -> List[RunSpec]:
    """Cells of Figs. 9 (known durations) / 10 (unknown durations)."""
    experiment = "fig9" if duration_known else "fig10"
    if duration_known:
        schedulers = {"SRTF": "srtf", "SRSF": "srsf", "Muri-S": "muri-s"}
    else:
        schedulers = {
            "Tiresias": "tiresias",
            "AntMan": "antman",
            "Themis": "themis",
            "Muri-L": "muri-l",
        }
    cells = []
    for trace_id in trace_ids:
        for label, scheduler in schedulers.items():
            cells.append(RunSpec(
                experiment=experiment,
                label=label,
                scheduler=scheduler,
                trace_id=trace_id,
                seed=seed + int(trace_id[0]),
                num_jobs=num_jobs,
            ))
    return cells


def ablation_cells(
    trace_ids: Sequence[str] = _ABLATION_TRACES,
    num_jobs: Optional[int] = 400,
    seed: int = 0,
) -> List[RunSpec]:
    """Cells of Fig. 11: Muri-L vs worst-ordering and greedy-matcher."""
    variants: Dict[str, Dict[str, str]] = {
        "Muri-L": {},
        "Muri-L w/ worst ordering": {"ordering": "worst"},
        "Muri-L w/o Blossom": {"matcher": "greedy"},
    }
    cells = []
    for trace_id in trace_ids:
        for label, options in variants.items():
            cells.append(RunSpec(
                experiment="fig11",
                label=label,
                scheduler="muri-l",
                trace_id=trace_id,
                seed=seed + int(trace_id[0]),
                num_jobs=num_jobs,
                scheduler_options=options,
            ))
    return cells


def group_size_cells(
    trace_ids: Sequence[str] = _ABLATION_TRACES,
    num_jobs: Optional[int] = 400,
    seed: int = 0,
) -> List[RunSpec]:
    """Cells of Fig. 12: 2/3/4-job Muri-L groups vs AntMan, at t=0."""
    cells = []
    for trace_id in trace_ids:
        run_seed = seed + int(trace_id[0])
        cells.append(RunSpec(
            experiment="fig12",
            label="AntMan",
            scheduler="antman",
            trace_id=trace_id,
            seed=run_seed,
            num_jobs=num_jobs,
            at_time_zero=True,
        ))
        for size in (2, 3, 4):
            cells.append(RunSpec(
                experiment="fig12",
                label=f"Muri-L-{size}",
                scheduler="muri-l",
                trace_id=trace_id,
                seed=run_seed,
                num_jobs=num_jobs,
                at_time_zero=True,
                scheduler_options={"max_group_size": size},
            ))
    return cells


def job_type_cells(
    num_types_values: Sequence[int] = (1, 2, 3, 4),
    num_jobs: Optional[int] = 400,
    seed: int = 0,
    trace_id: str = "1",
) -> List[RunSpec]:
    """Cells of Fig. 13: sweep the number of bottleneck types."""
    cells = []
    for num_types in num_types_values:
        models = tuple(models_for_bottlenecks(num_types=num_types))
        for label, scheduler in (
            ("SRTF", "srtf"), ("Muri-S", "muri-s"),
            ("Tiresias", "tiresias"), ("Muri-L", "muri-l"),
        ):
            cells.append(RunSpec(
                experiment="fig13",
                label=f"{label}@{num_types}",
                scheduler=scheduler,
                trace_id=trace_id,
                seed=seed,
                num_jobs=num_jobs,
                models=models,
            ))
    return cells


def noise_cells(
    noise_levels: Sequence[float] = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    num_jobs: Optional[int] = 400,
    seed: int = 0,
    trace_id: str = "1",
) -> List[RunSpec]:
    """Cells of Fig. 14: Muri-L under profiling noise levels."""
    return [
        RunSpec(
            experiment="fig14",
            label=f"noise={level:g}",
            scheduler="muri-l",
            trace_id=trace_id,
            seed=seed,
            num_jobs=num_jobs,
            noise_level=level,
        )
        for level in noise_levels
    ]


def robustness_cells(
    seeds: Sequence[int] = tuple(range(10)),
    num_jobs: Optional[int] = 250,
    trace_id: str = "1",
) -> List[RunSpec]:
    """Cells of the multi-seed robustness sweep (Muri-L vs Tiresias)."""
    cells = []
    for seed in seeds:
        for label, scheduler in (("Tiresias", "tiresias"),
                                 ("Muri-L", "muri-l")):
            cells.append(RunSpec(
                experiment="robustness",
                label=f"{label}@{seed}",
                scheduler=scheduler,
                trace_id=trace_id,
                seed=seed,
                num_jobs=num_jobs,
            ))
    return cells


def elastic_cells(
    trace_ids: Sequence[str] = ("1", "2"),
    num_jobs: Optional[int] = 400,
    seed: int = 0,
    elastic_fraction: float = 0.5,
) -> List[RunSpec]:
    """Cells of the elastic arm: Elastic-Muri vs fixed Muri-S.

    Per trace, three cells on the *same* saturated scalable workload
    (the same seed elects the same jobs and fits the same Amdahl
    curves):

    * ``Muri-S (rigid)`` — the fixed-allocation baseline; scalability
      profiles are attached but never exercised, so this equals plain
      Muri-S on the rigid workload (the degeneracy guarantee).
    * ``Elastic-Muri-S`` — renegotiating every tick.
    * ``Elastic-Muri-S k=4`` — renegotiating every 4th tick, the
      cheap-renegotiation ablation.

    Plus a light-load pair (at most 160 jobs) per trace, where spare
    capacity exists for scale-out: the regime in which goodput-adaptive
    reallocation improves *average JCT*, not just makespan.
    """
    cells = []
    for trace_id in trace_ids:
        run_seed = seed + int(trace_id[0])
        common = dict(
            experiment="elastic",
            trace_id=trace_id,
            seed=run_seed,
            elastic_fraction=elastic_fraction,
        )
        cells.append(RunSpec(
            label="Muri-S (rigid)", scheduler="muri-s",
            num_jobs=num_jobs, **common
        ))
        cells.append(RunSpec(
            label="Elastic-Muri-S", scheduler="elastic-muri",
            num_jobs=num_jobs, **common
        ))
        cells.append(RunSpec(
            label="Elastic-Muri-S k=4",
            scheduler="elastic-muri",
            scheduler_options={"renegotiation_interval": 4},
            num_jobs=num_jobs, **common,
        ))
        light_jobs = min(num_jobs, 160) if num_jobs else 160
        cells.append(RunSpec(
            label="Muri-S (rigid, light)", scheduler="muri-s",
            num_jobs=light_jobs, **common
        ))
        cells.append(RunSpec(
            label="Elastic-Muri-S (light)", scheduler="elastic-muri",
            num_jobs=light_jobs, **common
        ))
    return cells


def replay_cells(
    num_jobs: Optional[int] = 2_000,
    seed: int = 0,
    batch_steps: Sequence[float] = (0.0, 300.0, 1800.0),
) -> List[RunSpec]:
    """Cells of the replay arm: admission-round length vs JCT.

    Per scheduler, one cell per ``batch_step_seconds``: ``0.0`` is the
    continuous mode (bit-identical to ``simulator.run()`` — the sweep
    carries its own differential anchor), the others quantize
    admission to rounds, trading scheduler invocations for queueing
    delay.  The workload is the replay arm's constant-load synthetic
    trace (``trace_id="replay"``), not a Philly preset.
    """
    cells = []
    for label, scheduler in (("FIFO", "fifo"), ("Muri-S", "muri-s")):
        for batch_step in batch_steps:
            cells.append(RunSpec(
                experiment="replay",
                label=f"{label} B={batch_step:g}s",
                scheduler=scheduler,
                trace_id="replay",
                seed=seed,
                num_jobs=num_jobs,
                machines=32,
                gpus_per_machine=8,
                replay_batch_step=batch_step,
            ))
    return cells


def hetero_cells(
    num_jobs: Optional[int] = 400,
    seed: int = 0,
    type_names: Sequence[str] = ("k80", "a100"),
    prefer_fraction: float = 0.6,
    philly_csv: Optional[str] = None,
) -> List[RunSpec]:
    """Cells of the heterogeneous arm: placement policy vs makespan.

    One mixed-generation cluster and one pinned/preferred workload,
    three scheduling arms over it: FIFO, Muri-S with the default
    descending placer, and Muri-S with the Gavel-style
    :class:`~repro.cluster.placement.ThroughputAwarePlacer` — the grid
    behind the throughput-aware placement claim, as resumable sweep
    cells.

    With ``philly_csv`` the cells replay that ingested CSV end to end
    (adapter skip accounting included) instead of the synthetic
    preset; such cells carry a filesystem path in their run id, which
    is why ``hetero`` never joins the committed ``"all"`` grid.
    """
    common = dict(
        experiment="hetero",
        trace_id="1",
        seed=seed,
        num_jobs=num_jobs,
        hetero_types=tuple(type_names),
        prefer_fraction=prefer_fraction,
        trace_path=philly_csv,
    )
    return [
        RunSpec(label="FIFO", scheduler="fifo", **common),
        RunSpec(label="Muri-S", scheduler="muri-s", **common),
        RunSpec(
            label="Muri-S + aware", scheduler="muri-s",
            placement="aware", **common,
        ),
    ]


#: Artifact names ``experiment_cells`` accepts (``"all"`` is their union,
#: except ``"replay"`` and ``"hetero"`` — see ``experiment_cells``).
SWEEPABLE_EXPERIMENTS = (
    "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "robustness",
    "elastic", "replay", "hetero",
)


def experiment_cells(
    artifact: str,
    num_jobs: Optional[int] = 400,
    seed: int = 0,
    philly_csv: Optional[str] = None,
) -> List[RunSpec]:
    """Cells for one sweepable artifact, or ``"all"`` for their union.

    The robustness artifact ignores ``seed`` (it *is* a seed sweep)
    and caps its per-run size at 250 jobs, matching the benchmark.
    ``philly_csv`` applies to the ``hetero`` artifact only: it routes
    the cells through the CSV ingestion adapter instead of the
    synthetic preset.

    Raises:
        ValueError: For unknown artifact names.
    """
    builders = {
        "fig9": lambda: simulation_cells(True, num_jobs=num_jobs, seed=seed),
        "fig10": lambda: simulation_cells(False, num_jobs=num_jobs, seed=seed),
        "fig11": lambda: ablation_cells(num_jobs=num_jobs, seed=seed),
        "fig12": lambda: group_size_cells(num_jobs=num_jobs, seed=seed),
        "fig13": lambda: job_type_cells(num_jobs=num_jobs, seed=seed),
        "fig14": lambda: noise_cells(num_jobs=num_jobs, seed=seed),
        "robustness": lambda: robustness_cells(
            num_jobs=min(num_jobs, 250) if num_jobs else 250
        ),
        "elastic": lambda: elastic_cells(num_jobs=num_jobs, seed=seed),
        "replay": lambda: replay_cells(num_jobs=num_jobs, seed=seed),
        "hetero": lambda: hetero_cells(
            num_jobs=num_jobs, seed=seed, philly_csv=philly_csv
        ),
    }
    if artifact == "all":
        # "replay" and "hetero" are opt-in: their cells are not paper
        # artifacts, and growing the "all" grid would shift the
        # committed sweep baselines the metrics gate diffs against
        # ("hetero" may also carry a machine-local CSV path).
        cells = []
        for name in SWEEPABLE_EXPERIMENTS:
            if name in ("replay", "hetero"):
                continue
            cells.extend(builders[name]())
        return cells
    if artifact not in builders:
        raise ValueError(
            f"unknown sweep artifact {artifact!r}; expected one of "
            f"{SWEEPABLE_EXPERIMENTS + ('all',)}"
        )
    return builders[artifact]()
