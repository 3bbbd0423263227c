"""Command-line interface.

Drives the library from a shell::

    repro models                                    # the model zoo
    repro simulate --trace 1 --jobs 200 --scheduler muri-l
    repro simulate --trace 1 --jobs 100 --scheduler muri-s \
                   --trace-out run.json             # Perfetto-loadable
    repro explain 17 --trace 1 --jobs 100 --scheduler muri-s
    repro compare  --trace 2' --jobs 300 --schedulers srsf,muri-s
    repro experiment table4                         # any paper artifact
    repro sweep fig9 --workers 4 --out fig9.jsonl   # parallel sweep
    repro sweep all --shard 1/3 --out shard1.jsonl  # one of 3 shards
    repro trace --trace 4 --jobs 500 --out trace.csv
    repro serve --socket /tmp/repro.sock            # scheduler daemon
    repro serve --jobs 20 --drain --verify-incremental
    repro fleet --jobs 200 --shards 4 --tenants 3   # sharded fleet
    repro fleet --jobs 100 --shards 4 --verify-shards
    repro fuzz --episodes 50 --seed 0         # invariant fuzzing
    repro fuzz --episodes 50 --hetero         # + GPU-generation episodes
    repro fuzz --replay repro-failures/repro-seed0-ep3-....json
    repro replay --jobs 100000 --via-csv /tmp/replay.csv \
                 --verify-invariants          # production-scale replay
    repro replay --csv philly.csv --vc vc7 --scheduler muri-s

Every command is deterministic for a given ``--seed``; ``repro sweep``
is deterministic per run id regardless of worker count or sharding.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.analysis.experiments import (
    ablation_comparison,
    compare_testbed,
    group_size_comparison,
    job_type_sweep,
    normalized_metrics,
    profiling_noise_sweep,
    run_schedulers,
    simulation_comparison,
    table2_interleaving_example,
)
from repro.analysis.report import format_series, format_speedup_table, format_table
from repro.cluster.cluster import Cluster
from repro.models.zoo import DEFAULT_MODELS, get_model
from repro.observe import (
    Tracer,
    format_explain,
    trace_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.schedulers.registry import SCHEDULERS, make_scheduler
from repro.sim.io import save_comparison, save_result
from repro.sim.simulator import ClusterSimulator
from repro.sweep import (
    SWEEPABLE_EXPERIMENTS,
    ResultStore,
    SweepRunner,
    experiment_cells,
    in_shard,
    parse_shard,
    summarize_runs,
)
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs

__all__ = ["main", "build_parser"]

EXPERIMENTS = (
    "table2", "table4", "table5", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14",
)


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Muri (SIGCOMM 2022) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    models = sub.add_parser("models", help="list the model zoo")

    def add_workload_args(p):
        p.add_argument("--trace", default="1",
                       help="trace id 1-4, optionally primed (e.g. 2')")
        p.add_argument("--jobs", type=int, default=200,
                       help="number of jobs (0 = paper scale)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--machines", type=int, default=8)
        p.add_argument("--gpus-per-machine", type=int, default=8)

    simulate = sub.add_parser("simulate", help="run one scheduler")
    add_workload_args(simulate)
    simulate.add_argument("--scheduler", default="muri-l",
                          choices=sorted(SCHEDULERS))
    simulate.add_argument("--out", help="write the result JSON here")
    simulate.add_argument(
        "--trace-out",
        help="record a structured trace of the run: .jsonl writes one "
             "JSON event per line, anything else a Chrome-trace JSON "
             "loadable in Perfetto (ui.perfetto.dev)",
    )
    simulate.add_argument(
        "--elastic", type=float, metavar="FRACTION",
        help="make this fraction of the workload elastic (seeded "
             "Amdahl scalability curves; pair with --scheduler "
             "elastic-muri, see docs/elastic.md)",
    )
    simulate.add_argument(
        "--verify-invariants", action="store_true",
        help="arm the full runtime invariant catalog for the run "
             "(repro.verify.InvariantChecker; raises on the first "
             "violation)",
    )

    explain = sub.add_parser(
        "explain",
        help="re-run a workload with tracing and print one job's "
             "decision provenance (grouping partners, efficiency, round)",
    )
    add_workload_args(explain)
    explain.add_argument("job_id", type=int, help="job id to explain")
    explain.add_argument("--scheduler", default="muri-l",
                         choices=sorted(SCHEDULERS))

    compare = sub.add_parser("compare", help="run several schedulers")
    add_workload_args(compare)
    compare.add_argument(
        "--schedulers",
        default="srsf,muri-s,tiresias,muri-l",
        help="comma-separated registry names",
    )
    compare.add_argument("--normalize-to",
                         help="print rows normalized to this scheduler")
    compare.add_argument("--out", help="write the comparison JSON here")

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("artifact", choices=EXPERIMENTS)
    experiment.add_argument("--jobs", type=int, default=400)
    experiment.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser(
        "sweep",
        help="run an experiment's cell grid in parallel, resumably, "
             "optionally as one shard of a multi-machine partition",
    )
    sweep.add_argument("artifact", choices=SWEEPABLE_EXPERIMENTS + ("all",))
    sweep.add_argument("--jobs", type=int, default=400,
                       help="jobs per cell (0 = paper scale)")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--workers", type=int, default=1,
                       help="process-pool size (1 = serial in-process)")
    sweep.add_argument("--shard",
                       help="run only this shard, e.g. 1/3 (1-based)")
    sweep.add_argument("--out", help="append results to this JSONL store")
    sweep.add_argument(
        "--resume", action="store_true",
        help="skip run ids already completed in --out instead of "
             "truncating it",
    )
    sweep.add_argument("--timeout", type=float,
                       help="per-run wall-clock budget in seconds")
    sweep.add_argument("--retries", type=int, default=2,
                       help="retries for crashed or timed-out workers")
    sweep.add_argument("--list", action="store_true",
                       help="print the cell grid (with shard buckets) "
                            "and exit without running")
    sweep.add_argument("--philly-csv",
                       help="hetero artifact only: replay this ingested "
                            "Philly CSV instead of the synthetic preset")

    trace = sub.add_parser("trace", help="generate a synthetic trace")
    trace.add_argument("--trace", default="1")
    trace.add_argument("--jobs", type=int, default=400)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", required=True, help="CSV output path")

    capacity = sub.add_parser(
        "capacity", help="sweep cluster sizes for a workload"
    )
    add_workload_args(capacity)
    capacity.add_argument(
        "--schedulers", default="srsf,muri-s",
        help="comma-separated registry names",
    )
    capacity.add_argument(
        "--machine-counts", default="2,4,6,8",
        help="comma-separated machine counts to sweep",
    )

    serve = sub.add_parser(
        "serve",
        help="run the online scheduling service: event-driven "
             "submission over a Unix socket, or a one-shot drained "
             "run of the generated workload (see docs/service.md)",
    )
    add_workload_args(serve)
    serve.add_argument("--scheduler", default="muri-l",
                       choices=sorted(SCHEDULERS))
    serve.add_argument("--socket",
                       help="Unix-socket path to listen on (omit with "
                            "--drain for an in-process run)")
    serve.add_argument("--clock", default="virtual",
                       choices=("virtual", "wall"),
                       help="pacing driver: 'virtual' jumps between "
                            "event horizons, 'wall' maps simulated "
                            "seconds to real seconds")
    serve.add_argument("--time-scale", type=float, default=1.0,
                       help="real seconds per simulated second for "
                            "--clock wall")
    serve.add_argument("--interval", type=float, default=360.0,
                       help="scheduling interval in simulated seconds")
    serve.add_argument("--max-pending", type=int, default=1024,
                       help="admission bound on the pending queue")
    serve.add_argument("--drain", action="store_true",
                       help="pre-submit the generated workload, drain, "
                            "print the summary, and exit")
    serve.add_argument(
        "--verify-incremental", action="store_true",
        help="check every incremental regrouping decision against a "
             "cold full re-solve (slow; CI and debugging)",
    )

    fleet = sub.add_parser(
        "fleet",
        help="run a multi-tenant sharded fleet: partition the cluster "
             "into virtual clusters, route a seeded tenant stream "
             "through one scheduler shard per VC, and drain to a "
             "merged result (see docs/fleet.md)",
    )
    add_workload_args(fleet)
    fleet.add_argument("--scheduler", default="fifo",
                       choices=sorted(SCHEDULERS),
                       help="scheduler each shard runs")
    fleet.add_argument("--shards", type=int, default=4,
                       help="number of virtual clusters the machines "
                            "are partitioned into")
    fleet.add_argument("--tenants", type=int, default=3,
                       help="number of synthetic tenants the stream "
                            "round-robins over")
    fleet.add_argument("--max-pending", type=int, default=1024,
                       help="per-shard admission bound")
    fleet.add_argument("--socket",
                       help="serve the fleet on this Unix socket "
                            "instead of a one-shot drained run")
    fleet.add_argument(
        "--verify-shards", action="store_true",
        help="after draining, replay each VC's routed stream on a "
             "fresh standalone shard and demand bit-identical results "
             "(repro.verify.compare_fleet_serial; CI and debugging)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="run seeded random simulation episodes with all runtime "
             "invariants armed; failing seeds shrink into replayable "
             "JSON repro files (see docs/verification.md)",
    )
    fuzz.add_argument("--episodes", type=int, default=50,
                      help="number of random episodes to run")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="master seed fixing the episode sequence")
    fuzz.add_argument("--max-jobs", type=int, default=12,
                      help="largest workload size generated")
    fuzz.add_argument("--out-dir", default="repro-failures",
                      help="directory for repro files of failing episodes")
    fuzz.add_argument("--invariants",
                      help="comma-separated invariant subset (default: all)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="serialize failing episodes without shrinking")
    fuzz.add_argument("--replay", metavar="REPRO_FILE",
                      help="replay one repro file instead of fuzzing")
    fuzz.add_argument("--hetero", action="store_true",
                      help="generate heterogeneous episodes: typed "
                           "machine layouts plus GPU-generation job "
                           "affinities (exercises "
                           "placement_respects_affinity)")

    replay = sub.add_parser(
        "replay",
        help="replay a production-scale trace through the batch "
             "event-driven harness (see docs/replay.md)",
    )
    replay.add_argument("--jobs", type=int, default=100_000,
                        help="synthetic trace size when no --csv is given")
    replay.add_argument("--seed", type=int, default=0)
    replay.add_argument("--csv", metavar="PATH",
                        help="ingest this Philly-schema CSV instead of "
                             "synthesizing a trace")
    replay.add_argument("--vc", help="keep only this virtual cluster "
                                     "when ingesting --csv")
    replay.add_argument("--via-csv", metavar="PATH",
                        help="serialize the synthetic trace to PATH and "
                             "ingest it back, exercising the full CSV "
                             "adapter path")
    replay.add_argument("--batch-step", type=float, default=300.0,
                        help="admission round length in seconds "
                             "(0 = continuous, bit-identical to run())")
    replay.add_argument("--scheduler", default="fifo",
                        choices=sorted(SCHEDULERS))
    replay.add_argument("--machines", type=int, default=256)
    replay.add_argument("--gpus-per-machine", type=int, default=8)
    replay.add_argument("--fault-mtbf", type=float,
                        help="arm a fault storm: mean seconds between "
                             "faults")
    replay.add_argument("--fault-loss", type=float, default=0.0,
                        help="fraction of progress lost per fault")
    replay.add_argument("--verify-invariants", action="store_true",
                        help="arm the full runtime invariant catalog "
                             "for the replay")
    replay.add_argument("--out", help="write the result JSON here")

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every paper artifact as one report"
    )
    reproduce.add_argument("--jobs", type=int, default=400)
    reproduce.add_argument("--seed", type=int, default=0)
    reproduce.add_argument(
        "--artifacts", help="comma-separated subset (default: all)"
    )
    reproduce.add_argument("--out", help="write the markdown report here")

    return parser


def _workload(args):
    num_jobs = args.jobs if args.jobs > 0 else None
    trace = generate_trace(args.trace, num_jobs=num_jobs, seed=args.seed)
    specs = build_jobs(trace, seed=args.seed)
    capacity = args.machines * args.gpus_per_machine
    fitting = [s for s in specs if s.num_gpus <= capacity]
    dropped = len(specs) - len(fitting)
    if dropped:
        print(f"note: dropped {dropped} job(s) larger than the cluster")
    return trace, fitting


def _cmd_models(_args) -> int:
    rows = []
    for name in DEFAULT_MODELS:
        model = get_model(name)
        rows.append((
            name, model.task, model.dataset, model.batch_size,
            model.bottleneck.name.title(),
            model.iteration_time,
            "Table 1" if model.published else "synthesized",
        ))
    print(format_table(
        ["Model", "Type", "Dataset/Env", "Batch", "Bottleneck",
         "Iter (s)", "Profile source"],
        rows,
        title="Model zoo (paper Table 3)",
    ))
    return 0


def _cmd_simulate(args) -> int:
    trace, specs = _workload(args)
    if args.elastic is not None:
        from repro.elastic.workload import attach_scalability

        specs = attach_scalability(
            specs, fraction=args.elastic, seed=args.seed
        )
    if args.verify_invariants:
        from repro.verify.invariants import InvariantChecker

        tracer = InvariantChecker(store_events=bool(args.trace_out))
    else:
        tracer = Tracer() if args.trace_out else None
    scheduler = make_scheduler(args.scheduler, tracer=tracer)
    simulator = ClusterSimulator(
        scheduler, cluster=Cluster(args.machines, args.gpus_per_machine),
        tracer=tracer,
    )
    result = simulator.run(specs, trace.name)
    summary = result.summary()
    print(format_table(
        ["Metric", "Value"],
        [
            ("scheduler", scheduler.name),
            ("trace", trace.name),
            ("jobs", summary.num_jobs),
            ("avg JCT (s)", summary.avg_jct),
            ("p50 JCT (s)", summary.p50_jct),
            ("p99 JCT (s)", summary.p99_jct),
            ("makespan (s)", summary.makespan),
            ("avg queue length", summary.avg_queue_length),
            ("avg blocking index", summary.avg_blocking_index),
            ("preemptions", summary.total_preemptions),
        ],
    ))
    if args.verify_invariants:
        print(f"invariants: ok ({len(tracer.invariants)} armed, "
              f"{len(tracer.violations)} violations)")
    if args.out:
        save_result(result, args.out)
        print(f"result written to {args.out}")
    if args.trace_out:
        if args.trace_out.endswith(".jsonl"):
            write_jsonl(tracer, args.trace_out)
        else:
            write_chrome_trace(tracer, args.trace_out)
        print(f"trace written to {args.trace_out}")
        print(trace_summary(tracer))
    return 0


def _cmd_explain(args) -> int:
    trace, specs = _workload(args)
    tracer = Tracer()
    scheduler = make_scheduler(args.scheduler, tracer=tracer)
    simulator = ClusterSimulator(
        scheduler, cluster=Cluster(args.machines, args.gpus_per_machine),
        tracer=tracer,
    )
    result = simulator.run(specs, trace.name)
    if args.job_id not in tracer.provenance:
        known = tracer.provenance.job_ids()
        print(
            f"error: no provenance recorded for job {args.job_id}; "
            f"known job ids: {known[:20]}{'...' if len(known) > 20 else ''}",
            file=sys.stderr,
        )
        return 2
    print(format_explain(tracer, args.job_id, result))
    return 0


def _cmd_compare(args) -> int:
    trace, specs = _workload(args)
    names = [n.strip() for n in args.schedulers.split(",") if n.strip()]
    schedulers = {}
    for name in names:
        scheduler = make_scheduler(name)
        schedulers[scheduler.name] = scheduler
    results = run_schedulers(
        specs, schedulers, trace.name,
        cluster_factory=lambda: Cluster(args.machines, args.gpus_per_machine),
    )
    rows = [
        (label, r.avg_jct, r.tail_jct(99), r.makespan,
         r.avg_queue_length, r.total_preemptions)
        for label, r in results.items()
    ]
    print(format_table(
        ["Scheduler", "Avg JCT (s)", "p99 JCT (s)", "Makespan (s)",
         "Avg queue", "Preempt"],
        rows,
        title=f"{trace.name}: {len(specs)} jobs on "
              f"{args.machines * args.gpus_per_machine} GPUs",
    ))
    if args.normalize_to:
        reference = next(
            (label for label in results
             if label.lower() == args.normalize_to.lower()),
            None,
        )
        if reference is None:
            print(f"error: {args.normalize_to!r} not among the results",
                  file=sys.stderr)
            return 2
        print()
        print(format_speedup_table(
            normalized_metrics(results, reference), list(results),
            title=f"normalized to {reference}",
        ))
    if args.out:
        save_comparison(results, args.out)
        print(f"comparison written to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    artifact = args.artifact
    jobs, seed = args.jobs, args.seed
    if artifact == "table2":
        table = table2_interleaving_example()
        rows = [
            (name, row["separate_tput"], row["sharing_tput"],
             row["normalized_tput"])
            for name, row in table.items() if name != "__total__"
        ]
        rows.append(("TOTAL", 0.0, 0.0,
                     table["__total__"]["total_normalized_tput"]))
        print(format_table(
            ["Model", "Separate", "Sharing", "Norm. tput"], rows,
            title="Table 2",
        ))
    elif artifact in ("table4", "table5"):
        known = artifact == "table4"
        _results, rows = compare_testbed(known, num_jobs=jobs, seed=seed)
        print(format_speedup_table(rows, list(rows["Normalized JCT"]),
                                   title=artifact))
    elif artifact in ("fig9", "fig10"):
        sweep = simulation_comparison(
            duration_known=(artifact == "fig9"), num_jobs=jobs, seed=seed
        )
        rows = [
            (trace_id, baseline, s["avg_jct"], s["makespan"], s["p99_jct"])
            for trace_id, per_baseline in sweep.items()
            for baseline, s in per_baseline.items()
        ]
        print(format_table(
            ["Trace", "Baseline", "JCT x", "Makespan x", "p99 x"], rows,
            title=artifact,
        ))
    elif artifact == "fig11":
        sweep = ablation_comparison(num_jobs=jobs, seed=seed)
        rows = [
            (trace_id, variant, m["avg_jct"], m["makespan"])
            for trace_id, variants in sweep.items()
            for variant, m in variants.items()
        ]
        print(format_table(["Trace", "Variant", "JCT", "Makespan"], rows,
                           title="fig11 (normalized to Muri-L)"))
    elif artifact == "fig12":
        sweep = group_size_comparison(num_jobs=jobs, seed=seed)
        rows = [
            (trace_id, label, m["avg_jct"], m["makespan"])
            for trace_id, row in sweep.items()
            for label, m in row.items()
        ]
        print(format_table(["Trace", "Scheduler", "JCT", "Makespan"], rows,
                           title="fig12 (normalized to AntMan)"))
    elif artifact == "fig13":
        sweep = job_type_sweep(num_jobs=jobs, seed=seed)
        print(format_series(
            "# types", list(sweep),
            {
                "Muri-S/SRTF": [v["Muri-S/SRTF"] for v in sweep.values()],
                "Muri-L/Tiresias": [v["Muri-L/Tiresias"] for v in sweep.values()],
            },
            title="fig13",
        ))
    elif artifact == "fig14":
        sweep = profiling_noise_sweep(num_jobs=jobs, seed=seed)
        print(format_series(
            "noise", list(sweep),
            {
                "JCT": [v["avg_jct"] for v in sweep.values()],
                "Makespan": [v["makespan"] for v in sweep.values()],
            },
            title="fig14",
        ))
    return 0


def _cmd_sweep(args) -> int:
    num_jobs = args.jobs if args.jobs > 0 else None
    if args.philly_csv and args.artifact != "hetero":
        print("error: --philly-csv applies to the hetero artifact only",
              file=sys.stderr)
        return 2
    cells = experiment_cells(
        args.artifact, num_jobs=num_jobs, seed=args.seed,
        philly_csv=args.philly_csv,
    )
    shard = parse_shard(args.shard) if args.shard else None

    if args.list:
        rows = [
            (cell.run_id, cell.experiment, cell.trace_id, cell.label,
             cell.seed, "yes" if in_shard(cell.run_id, shard) else "no")
            for cell in cells
        ]
        print(format_table(
            ["Run id", "Experiment", "Trace", "Label", "Seed", "Selected"],
            rows,
            title=f"{args.artifact}: {len(cells)} cells"
                  + (f", shard {args.shard}" if shard else ""),
        ))
        return 0

    tracer = Tracer()
    runner = SweepRunner(
        max_workers=args.workers,
        timeout=args.timeout,
        retries=args.retries,
        store=ResultStore(args.out) if args.out else None,
        resume=args.resume,
        shard=shard,
        tracer=tracer,
    )
    results = runner.run(cells)

    rows = []
    for record in summarize_runs(results.values()):
        rows.append((
            record["run_id"], record["experiment"], record["trace_id"],
            record["label"], record["status"],
            record.get("avg_jct", float("nan")),
            record.get("makespan", float("nan")),
        ))
    print(format_table(
        ["Run id", "Experiment", "Trace", "Label", "Status",
         "Avg JCT (s)", "Makespan (s)"],
        rows,
        title=f"sweep {args.artifact}: {len(results)} of {len(cells)} "
              f"cells" + (f" (shard {args.shard})" if shard else ""),
    ))
    if args.artifact == "hetero":
        completed = [run for run in results.values() if run.ok]
        names: List[str] = []
        if completed:
            names = sorted(completed[0].simulation_result().gpus_by_type)
        if names:
            util_rows = []
            for run in completed:
                util = run.simulation_result().utilization_by_type()
                util_rows.append((
                    run.spec.label if run.spec else run.run_id,
                    *(f"{util.get(name, 0.0):.3f}" for name in names),
                ))
            print(format_table(
                ["Arm"] + [f"{name} util" for name in names],
                util_rows,
                title="per-generation GPU occupancy",
            ))
    counters = tracer.counters
    print(
        "completed {completed}  resumed {resumed}  failed {failed}  "
        "retried {retried}  timeouts {timeout}".format(
            completed=counters.get("sweep.runs.completed", 0),
            resumed=counters.get("sweep.runs.resumed", 0),
            failed=counters.get("sweep.runs.failed", 0),
            retried=counters.get("sweep.runs.retried", 0),
            timeout=counters.get("sweep.runs.timeout", 0),
        )
    )
    if args.out:
        print(f"results appended to {args.out}")

    failures = [run for run in results.values() if not run.ok]
    for run in failures:
        print(f"run {run.run_id} failed:\n{run.error}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_trace(args) -> int:
    trace = generate_trace(args.trace, num_jobs=args.jobs, seed=args.seed)
    trace.to_csv(args.out)
    print(f"{trace.name}: {len(trace)} jobs, load "
          f"{trace.load_factor(64):.2f}x over 64 GPUs -> {args.out}")
    return 0


def _cmd_capacity(args) -> int:
    from repro.analysis.capacity import capacity_sweep

    num_jobs = args.jobs if args.jobs > 0 else None
    trace = generate_trace(args.trace, num_jobs=num_jobs, seed=args.seed)
    machine_counts = sorted(
        int(v) for v in args.machine_counts.split(",") if v.strip()
    )
    smallest = min(machine_counts) * args.gpus_per_machine
    specs = [
        s for s in build_jobs(trace, seed=args.seed)
        if s.num_gpus <= smallest
    ]
    names = [n.strip() for n in args.schedulers.split(",") if n.strip()]
    factories = {}
    for name in names:
        label = make_scheduler(name).name
        factories[label] = (lambda key: (lambda: make_scheduler(key)))(name)
    sweep = capacity_sweep(
        specs, factories, machine_counts,
        gpus_per_machine=args.gpus_per_machine, trace_name=trace.name,
    )
    labels = list(factories)
    rows = [
        [machines * args.gpus_per_machine]
        + [sweep[machines][label].avg_jct for label in labels]
        for machines in machine_counts
    ]
    print(format_table(
        ["GPUs"] + [f"{label} avg JCT (s)" for label in labels],
        rows,
        title=f"capacity sweep on {trace.name} ({len(specs)} jobs)",
    ))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import (
        SchedulerService,
        ServiceServer,
        VirtualClock,
        WallClock,
    )

    if not args.drain and not args.socket:
        print("error: pass --socket to serve clients, or --drain for a "
              "one-shot run", file=sys.stderr)
        return 2

    tracer = Tracer()
    # Baselines ignore event_regroup; Muri switches from the backfill
    # reservoir to event-driven incremental regrouping.
    scheduler = make_scheduler(
        args.scheduler, tracer=tracer, event_regroup=True
    )
    if args.verify_incremental:
        from repro.verify import IncrementalOracle

        scheduler = IncrementalOracle(
            scheduler,
            lambda: make_scheduler(args.scheduler, event_regroup=True),
        )
    simulator = ClusterSimulator(
        scheduler,
        cluster=Cluster(args.machines, args.gpus_per_machine),
        scheduling_interval=args.interval,
        reschedule_on_arrival=True,
        arrival_reason="arrival",
        backfill_on_completion=True,
        tracer=tracer,
    )
    clock = (WallClock(args.time_scale) if args.clock == "wall"
             else VirtualClock())
    trace, specs = _workload(args)
    service = SchedulerService(
        simulator, max_pending=args.max_pending, clock=clock,
        trace_name=trace.name, tracer=tracer,
    )

    if args.drain:
        for spec in sorted(specs, key=lambda s: s.submit_time):
            service.submit(spec)
        result = service.run_sync()
    else:
        print(f"serving on {args.socket} (scheduler {scheduler.name}, "
              f"{args.clock} clock); submit jobs with ServiceClient, "
              f"drain to finish")
        server = ServiceServer(service, args.socket)
        try:
            result = asyncio.run(server.serve())
        except KeyboardInterrupt:
            print("interrupted; draining in-process")
            result = service.run_sync()
    summary = result.summary()
    counters = tracer.counters
    print(format_table(
        ["Metric", "Value"],
        [
            ("scheduler", scheduler.name),
            ("trace", trace.name),
            ("jobs", summary.num_jobs),
            ("avg JCT (s)", summary.avg_jct),
            ("p99 JCT (s)", summary.p99_jct),
            ("makespan (s)", summary.makespan),
            ("submitted", counters.get("service.submitted", 0)),
            ("cancelled", counters.get("service.cancelled", 0)),
            ("regroups (arrival)", counters.get("sched.regroup.arrival", 0)),
            ("regroups (completion)",
             counters.get("sched.regroup.completion", 0)),
        ],
        title="service run",
    ))
    if args.verify_incremental:
        print(f"incremental regrouping verified against a cold full "
              f"re-solve on {scheduler.checks} decision(s)")
    return 0


def _cmd_fleet(args) -> int:
    import asyncio

    from repro.fleet import FleetFrontEnd, FleetServer, partition_cluster
    from repro.service.daemon import SubmitRejected

    topology = partition_cluster(
        args.machines, args.gpus_per_machine, args.shards
    )
    tracer = Tracer()
    frontend = FleetFrontEnd.build(
        topology,
        scheduler=args.scheduler,
        tracer=tracer,
        max_pending=args.max_pending,
    )
    trace, specs = _workload(args)
    largest = max(vc.total_gpus for vc in topology.vcs)
    runnable = [s for s in specs if s.num_gpus <= largest]
    skipped = len(specs) - len(runnable)
    tenants = [f"tenant{i}" for i in range(max(1, args.tenants))]
    rejected: dict = {}
    for index, spec in enumerate(
        sorted(runnable, key=lambda s: s.submit_time)
    ):
        try:
            frontend.submit(spec, tenant=tenants[index % len(tenants)])
        except SubmitRejected as rejection:
            rejected[rejection.code] = rejected.get(rejection.code, 0) + 1

    if args.socket:
        print(f"serving fleet on {args.socket} ({args.shards} shards, "
              f"scheduler {args.scheduler}); submit jobs with "
              f"ServiceClient, drain to finish")
        server = FleetServer(frontend, args.socket)
        try:
            result = asyncio.run(server.serve())
        except KeyboardInterrupt:
            print("interrupted; draining in-process")
            result = frontend.run_sync()
    else:
        result = frontend.run_sync()

    summary = result.summary()
    p50, p99 = frontend.latency_percentiles()
    counters = tracer.counters
    rows = [
        ("scheduler", args.scheduler),
        ("trace", trace.name),
        ("shards", len(topology.vcs)),
        ("tenants", len(tenants)),
        ("admitted", counters.get("fleet.submitted", 0)),
        ("rejected", sum(rejected.values())),
        ("skipped (too large)", skipped),
        ("avg JCT (s)", summary.avg_jct),
        ("p99 JCT (s)", summary.p99_jct),
        ("makespan (s)", summary.makespan),
        ("submit p50 (us)", p50 * 1e6),
        ("submit p99 (us)", p99 * 1e6),
    ]
    for name in topology.names:
        rows.append(
            (f"routed to {name}", counters.get(f"fleet.routed.{name}", 0))
        )
    for code in sorted(rejected):
        rows.append((f"rejected [{code}]", rejected[code]))
    print(format_table(["Metric", "Value"], rows, title="fleet run"))

    if args.verify_shards:
        from repro.fleet import make_shard
        from repro.verify import compare_fleet_serial

        compare_fleet_serial(
            frontend,
            lambda vc: make_shard(
                vc, scheduler=args.scheduler, max_pending=args.max_pending
            ),
        )
        print(f"shard results verified bit-identical against serial "
              f"per-VC replays ({len(topology.vcs)} shards, "
              f"{len(frontend.routed)} jobs)")
    return 0


def _cmd_fuzz(args) -> int:
    from pathlib import Path

    from repro.verify import (
        FuzzConfig,
        load_repro,
        run_episode,
        run_fuzz,
    )

    if args.replay:
        episode, recorded = load_repro(Path(args.replay))
        outcome = run_episode(episode)
        if outcome.ok:
            print(
                f"{args.replay}: episode ran clean "
                f"(recorded violation: {recorded.get('invariant', '?')}) — "
                f"the bug appears fixed"
            )
            return 0
        violation = outcome.violation
        print(f"{args.replay}: reproduced [{violation.invariant}] "
              f"{violation.message}")
        if violation.invariant != recorded.get("invariant"):
            print(
                f"note: recorded invariant was "
                f"{recorded.get('invariant', '?')!r}"
            )
        return 1

    invariants = None
    if args.invariants:
        invariants = [
            name.strip() for name in args.invariants.split(",") if name.strip()
        ]
    config = FuzzConfig(
        episodes=args.episodes,
        seed=args.seed,
        max_jobs=args.max_jobs,
        out_dir=Path(args.out_dir),
        invariants=invariants,
        shrink=not args.no_shrink,
        hetero=args.hetero,
    )
    report = run_fuzz(config, progress=print)
    print(
        f"fuzz: {report.episodes_run} episodes, "
        f"{len(report.failures)} violation(s)"
    )
    for path, violation in report.failures:
        print(f"  [{violation.invariant}] {violation.message}")
        print(f"  repro file: {path}")
    return 1 if report.failures else 0


def _cmd_replay(args) -> int:
    from repro.replay import replay_trace, synthetic_trace
    from repro.trace.philly_csv import load_philly_csv, write_philly_csv

    report = None
    if args.csv:
        ingested, report = load_philly_csv(
            args.csv, virtual_cluster=args.vc
        )
    else:
        trace = synthetic_trace(args.jobs, seed=args.seed)
        if args.via_csv:
            write_philly_csv(trace, args.via_csv)
            # Round-trip through the adapter: 1-second timestamp
            # resolution and the min-duration filter both apply, so
            # this exercises the exact CSV path CI gates on.
            ingested, report = load_philly_csv(
                args.via_csv, min_duration=0.0
            )
        else:
            ingested = trace
    specs = build_jobs(ingested, seed=args.seed)
    capacity = args.machines * args.gpus_per_machine
    fitting = [s for s in specs if s.num_gpus <= capacity]
    if len(fitting) < len(specs):
        print(f"note: dropped {len(specs) - len(fitting)} job(s) "
              f"larger than the cluster")
    if not fitting:
        print("error: no jobs to replay", file=sys.stderr)
        return 2

    if args.verify_invariants:
        from repro.verify.invariants import InvariantChecker

        tracer = InvariantChecker()
    else:
        tracer = None
    fault_injector = None
    if args.fault_mtbf is not None:
        from repro.sim.faults import FaultInjector

        fault_injector = FaultInjector(
            mean_time_between_faults=args.fault_mtbf,
            seed=args.seed,
            progress_loss=args.fault_loss,
        )
    scheduler = make_scheduler(args.scheduler, tracer=tracer)
    simulator = ClusterSimulator(
        scheduler,
        cluster=Cluster(args.machines, args.gpus_per_machine),
        fault_injector=fault_injector,
        tracer=tracer,
    )
    result, stats = replay_trace(
        simulator, fitting, trace_name=ingested.name,
        batch_step_seconds=args.batch_step,
    )
    summary = result.summary()
    rows = [
        ("scheduler", scheduler.name),
        ("trace", ingested.name),
        ("jobs", summary.num_jobs),
        ("finished", stats.finished_jobs),
        ("avg JCT (s)", summary.avg_jct),
        ("p99 JCT (s)", summary.p99_jct),
        ("makespan (s)", summary.makespan),
        ("admission rounds", stats.rounds),
        ("simulator steps", stats.sim_steps),
        ("wall clock (s)", round(stats.wall_clock, 2)),
        ("p50 step (ms)", round(stats.step_seconds_p50 * 1e3, 3)),
        ("p99 step (ms)", round(stats.step_seconds_p99 * 1e3, 3)),
    ]
    if report is not None:
        rows.append(("csv rows read", report.rows_read))
        rows.append(("csv jobs loaded", report.jobs_loaded))
        rows.append(("csv skipped", report.total_skipped))
    print(format_table(["Metric", "Value"], rows, title="replay"))
    if report is not None and report.skipped:
        for reason, count in sorted(report.skipped.items()):
            print(f"  skipped[{reason}] = {count}")
    if args.out:
        save_result(result, args.out)
        print(f"result written to {args.out}")
    if args.verify_invariants:
        if tracer.violations:
            for violation in tracer.violations:
                print(f"  [{violation.invariant}] {violation.message}")
            print(f"invariants: FAILED ({len(tracer.violations)} "
                  f"violations)")
            return 1
        print(f"invariants: ok ({len(tracer.invariants)} armed, "
              f"0 violations)")
    return 0


def _cmd_reproduce(args) -> int:
    from pathlib import Path

    from repro.analysis.reproduce import reproduce_all

    artifacts = None
    if args.artifacts:
        artifacts = [a.strip() for a in args.artifacts.split(",") if a.strip()]
    report = reproduce_all(
        num_jobs=args.jobs,
        seed=args.seed,
        artifacts=artifacts,
        progress=lambda artifact: print(f"... {artifact}"),
    )
    if args.out:
        Path(args.out).write_text(report)
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


_COMMANDS = {
    "models": _cmd_models,
    "simulate": _cmd_simulate,
    "explain": _cmd_explain,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "trace": _cmd_trace,
    "capacity": _cmd_capacity,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "fuzz": _cmd_fuzz,
    "replay": _cmd_replay,
    "reproduce": _cmd_reproduce,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (KeyError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
