#!/usr/bin/env python3
"""Trace-driven scheduler study with persistent artifacts.

Generates a Philly-like trace, saves it to CSV, runs the full scheduler
matrix on it, prints the comparison, and writes the resulting metrics
to JSON — the workflow for running your own what-if studies on top of
this library.

Run:  python examples/trace_study.py [num_jobs]
"""

import json
import sys
from pathlib import Path

from repro import ClusterSimulator
from repro.analysis import format_table
from repro.observe import Tracer
from repro.cluster import Cluster
from repro.schedulers import make_scheduler
from repro.sim import DecisionLog
from repro.trace import Trace, build_jobs, generate_trace

OUTPUT_DIR = Path(__file__).parent / "output"
SCHEDULERS = ("fifo", "srtf", "srsf", "tiresias", "themis", "antman",
              "muri-s", "muri-l")


def main():
    num_jobs = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    OUTPUT_DIR.mkdir(exist_ok=True)

    # 1. Generate and persist the trace (CSV round-trips losslessly).
    trace = generate_trace("2", num_jobs=num_jobs, seed=42)
    trace_path = OUTPUT_DIR / "trace.csv"
    trace.to_csv(trace_path)
    reloaded = Trace.from_csv(trace_path, name=trace.name)
    assert len(reloaded) == len(trace)
    print(f"trace: {len(trace)} jobs, load {trace.load_factor(64):.1f}x "
          f"over 64 GPUs  -> {trace_path}")

    # 2. Materialize jobs (models assigned like the paper: uniformly
    #    from the Table 3 mix).
    specs = build_jobs(trace, seed=42)

    # 3. Run the scheduler matrix.
    rows = []
    metrics = {}
    for name in SCHEDULERS:
        scheduler = make_scheduler(name)
        # The decision log rides the simulator's tracer; the scheduler
        # gets no tracer, so its internals stay untraced.
        decision_log = DecisionLog()
        tracer = Tracer()
        tracer.subscribe(decision_log)
        result = ClusterSimulator(
            scheduler, cluster=Cluster(8, 8), tracer=tracer
        ).run(specs, trace.name)
        summary = result.summary()
        rows.append((
            scheduler.name,
            summary.avg_jct / 3600.0,
            summary.p99_jct / 3600.0,
            summary.makespan / 3600.0,
            summary.avg_queue_length,
            summary.total_preemptions,
        ))
        metrics[scheduler.name] = {
            "avg_jct_s": summary.avg_jct,
            "p50_jct_s": summary.p50_jct,
            "p99_jct_s": summary.p99_jct,
            "makespan_s": summary.makespan,
            "avg_queue_length": summary.avg_queue_length,
            "avg_blocking_index": summary.avg_blocking_index,
            "avg_utilization": list(summary.avg_utilization),
            "preemptions": summary.total_preemptions,
            "jct_cdf": result.jct_cdf(points=10),
            "decisions": decision_log.summary(),
        }

    print()
    print(format_table(
        ["Scheduler", "Avg JCT (h)", "p99 (h)", "Makespan (h)",
         "Avg queue", "Preemptions"],
        rows,
        title=f"Scheduler comparison on {trace.name} ({num_jobs} jobs, 64 GPUs)",
    ))

    # 4. Persist the metrics for downstream analysis.
    metrics_path = OUTPUT_DIR / "metrics.json"
    metrics_path.write_text(json.dumps(metrics, indent=2))
    print(f"\nmetrics written to {metrics_path}")


if __name__ == "__main__":
    main()
