"""Benchmark implementations for ``repro bench``.

Two suites, each writing one JSON document:

* the **grouping** suite (``BENCH_grouping.json``) times Algorithm 1
  itself — cold :class:`~repro.core.grouping.MultiRoundGrouper` runs
  at pinned queue sizes, and the warm ``event_regroup`` decision
  latency of a :class:`~repro.core.muri.MuriScheduler` fed a stream of
  queue-perturbing events (the per-bucket decision cache is on this
  path);
* the **service** suite (``BENCH_service.json``) times the scheduler
  embedded in its consumers — per-``decide`` latency during a drained
  service-style simulation (arrival events are the service's
  submit-to-decision path), and the serial throughput of the sweep
  runner on a small experiment grid;
* the **fleet** suite (``BENCH_fleet.json``) times the multi-tenant
  front-end of :mod:`repro.fleet` — per-submission admission+routing
  wall latency (tenant ledger, deterministic routing, shard
  admission) over a seeded multi-tenant stream, and the aggregate
  drain throughput of the sharded run as seconds per job;
* the **replay** suite (``BENCH_replay.json``) times production-scale
  trace replay end to end — CSV ingestion throughput of the Philly
  adapter, and the batch event-driven harness over a constant-load
  synthetic trace (100k jobs full, 10k quick) as per-job wall seconds
  plus p50/p99 simulator-step latency;
* the **hetero** suite (``BENCH_hetero.json``) pins the
  throughput-aware placement claim — the Gavel-style
  :class:`~repro.cluster.placement.ThroughputAwarePlacer` against the
  default descending placer on one seeded mixed k80+a100 workload —
  as a simulated-makespan ratio (deterministic, gated) next to the
  wall cost of the heterogeneous scheduling path.

Every benchmark entry carries raw ``*_seconds`` plus machine-speed
normalized ``*_normalized`` values (seconds divided by the
:func:`calibrate` workload's time).  Only the normalized values are
gated by ``tools/diff_metrics.py --bench``; gating raw seconds would
tie the baseline to one machine.  Workload generation is fully seeded,
so the *work* benchmarked is identical everywhere — only the clock
differs.
"""

from __future__ import annotations

import json
import platform
import random
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.muri import MuriScheduler
from repro.jobs.job import Job, JobSpec
from repro.jobs.stage import StageProfile
from repro.jobs.resources import NUM_RESOURCES

__all__ = [
    "ELASTIC_BENCH_FILE",
    "FLEET_BENCH_FILE",
    "GROUPING_BENCH_FILE",
    "HETERO_BENCH_FILE",
    "REPLAY_BENCH_FILE",
    "SERVICE_BENCH_FILE",
    "SCHEMA_VERSION",
    "calibrate",
    "gated_metrics",
    "load_bench",
    "run_elastic_suite",
    "run_fleet_suite",
    "run_grouping_suite",
    "run_hetero_suite",
    "run_replay_suite",
    "run_service_suite",
    "write_bench",
]

#: File names the suites write at the repo root (committed baselines).
GROUPING_BENCH_FILE = "BENCH_grouping.json"
SERVICE_BENCH_FILE = "BENCH_service.json"
FLEET_BENCH_FILE = "BENCH_fleet.json"
ELASTIC_BENCH_FILE = "BENCH_elastic.json"
REPLAY_BENCH_FILE = "BENCH_replay.json"
HETERO_BENCH_FILE = "BENCH_hetero.json"

#: Bumped whenever the benchmark workloads change incompatibly; the
#: diff gate refuses to compare documents with different schemas.
SCHEMA_VERSION = 1

#: Progress callback: one short human-readable line per benchmark.
Progress = Optional[Callable[[str], None]]


def calibrate(repeats: int = 3) -> float:
    """Time the fixed calibration workload; return the best of ``repeats``.

    The workload mirrors the instruction mix of the benchmarks —
    interpreter-bound loops over small tuples and dicts, the same mix
    the blossom and grouping inner loops execute — so dividing a
    benchmark's seconds by this time cancels machine speed to first
    order.  Taking the minimum of several runs discards scheduling
    jitter, which only ever adds time.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        acc = 0
        table: Dict[int, int] = {}
        row = (3, 1, 4, 1, 5, 9, 2, 6)
        for i in range(120_000):
            key = i & 1023
            table[key] = table.get(key, 0) + 1
            acc += row[i & 7] * (i & 15)
            if acc > 1 << 30:
                acc >>= 8
        pairs = sorted((v, k) for k, v in table.items())
        acc += pairs[0][1]
        best = min(best, time.perf_counter() - start)
    return best


def _make_jobs(
    count: int,
    seed: int,
    gpu_choices: Sequence[int] = (1, 1, 2, 4, 8),
) -> List[Job]:
    """A seeded mixed-GPU job queue for the grouping benchmarks.

    Stage durations are drawn uniformly per resource, giving the
    matcher a realistic spread of bottlenecks; the GPU-count choices
    weight small jobs the way the paper's traces do.
    """
    rng = random.Random(seed)
    jobs = []
    for _ in range(count):
        rows = tuple(
            round(rng.uniform(0.05, 5.0), 3) for _ in range(NUM_RESOURCES)
        )
        jobs.append(
            Job(
                JobSpec(
                    profile=StageProfile(rows),
                    num_gpus=rng.choice(list(gpu_choices)),
                    num_iterations=100,
                )
            )
        )
    return jobs


def _attach_normalized(
    benchmarks: Dict[str, Dict[str, float]], fallback: float
) -> None:
    """Fill in ``*_normalized`` next to every ``*_seconds`` metric.

    Each benchmark entry that recorded its own adjacent
    ``calibration`` sample (taken interleaved with its repeats) is
    normalized by that; entries without one fall back to the suite
    calibration.  Adjacent calibration matters on shared machines:
    background load drifts on minute timescales, and dividing a
    benchmark by the machine speed measured *around it* cancels that
    drift far better than one suite-wide sample.
    """
    for entry in benchmarks.values():
        calibration = entry.get("calibration", fallback)
        for name in list(entry):
            if name == "seconds":
                entry["normalized"] = entry[name] / calibration
            elif name.endswith("_seconds"):
                stem = name[: -len("_seconds")]
                entry[f"{stem}_normalized"] = entry[name] / calibration


def _percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (``fraction`` in [0, 1])."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(fraction * len(ordered)))
    return ordered[index]


def _cold_group(size: int, seed: int, repeats: int) -> Dict[str, float]:
    """Time a cold grouping of ``size`` jobs; best of ``repeats`` runs.

    Every repeat uses a freshly built grouper, so no cache survives
    between runs — this is the from-scratch decision latency the
    paper's "1,000 jobs in a few seconds" claim is about.  Jobs come
    from the repo's own trace generator (trace "1", the same workload
    ``repro simulate`` runs), whose model-zoo profiles repeat across
    jobs — the duplicate-heavy regime the weight cache is built for.
    """
    from repro.trace.philly import generate_trace
    from repro.trace.workload import build_jobs

    specs = build_jobs(generate_trace("1", num_jobs=size, seed=seed), seed=seed)
    jobs = [Job(spec) for spec in specs]
    best = float("inf")
    calibration = float("inf")
    groups = 0
    total_efficiency = 0.0
    for _ in range(max(1, repeats)):
        calibration = min(calibration, calibrate(repeats=1))
        scheduler = MuriScheduler()
        start = time.perf_counter()
        result = scheduler.grouper.group(jobs, capacity=None)
        best = min(best, time.perf_counter() - start)
        groups = len(result.groups)
        total_efficiency = result.total_efficiency
    calibration = min(calibration, calibrate(repeats=1))
    return {
        "jobs": len(jobs),
        "seconds": best,
        "groups": groups,
        "total_efficiency": total_efficiency,
        "calibration": calibration,
    }


def _warm_regroup(
    size: int, events: int, seed: int, repeats: int = 3
) -> Dict[str, float]:
    """Latency distribution of warm ``event_regroup`` decisions.

    The whole event stream is replayed ``repeats`` times (fresh
    scheduler and queue each time — the stream consumes the queue) and
    the best percentile across replays is reported: the work is
    deterministic, so differences between replays are pure scheduler
    jitter, which only ever inflates the tail.

    A :class:`MuriScheduler` with ``event_regroup=True`` is warmed with
    one cold decide, then fed ``events`` queue perturbations in the
    scheduler's own priority order: removals from the priority *tail*
    (completions past the dequeue budget, which leave the dequeued
    batch unchanged, so every bucket hits the per-bucket decision
    cache) alternating with removals from the priority *head*
    (batch-changing events, which re-match the touched bucket).
    Reported p50/p99 therefore cover both warm cases, with p99
    dominated by the re-matching regroups.

    The queue draws GPU counts uniformly from (1, 2, 4, 8) so no
    single GPU-count bucket dominates the dequeued batch: a
    batch-changing event then re-matches a bucket of a few dozen
    nodes, which is the service-loop regime the <10 ms p99 target is
    pinned for (priority-weighted mixes concentrate 1-GPU jobs at the
    queue head and grow that bucket past 100 nodes, where a single
    dense blossom rematch alone exceeds the budget — that regime is
    covered by the cold benchmarks instead).
    """
    capacity = 64
    best_p50 = float("inf")
    best_p99 = float("inf")
    calibration = float("inf")
    observed = 0
    for _ in range(max(1, repeats)):
        calibration = min(calibration, calibrate(repeats=1))
        scheduler = MuriScheduler(event_regroup=True)
        queue = _make_jobs(size, seed, gpu_choices=(1, 2, 4, 8))
        scheduler.decide(0.0, queue, {}, capacity, reason="arrival")
        # The scheduler's queue order: priority tuple, then submit
        # time, then id — removing from this list's tail leaves the
        # dequeued batch untouched, removing from its head perturbs it.
        ranked = sorted(
            queue,
            key=lambda job: (
                scheduler.policy(job, 0.0),
                job.spec.submit_time,
                job.job_id,
            ),
        )
        latencies: List[float] = []
        now = 1.0
        for event in range(events):
            if len(ranked) < 8:
                break
            victim = ranked.pop() if event % 2 == 0 else ranked.pop(0)
            queue = [job for job in queue if job is not victim]
            start = time.perf_counter()
            scheduler.decide(now, queue, {}, capacity, reason="completion")
            latencies.append(time.perf_counter() - start)
            now += 1.0
        observed = len(latencies)
        best_p50 = min(best_p50, _percentile(latencies, 0.50))
        best_p99 = min(best_p99, _percentile(latencies, 0.99))
    calibration = min(calibration, calibrate(repeats=1))
    return {
        "jobs": size,
        "events": observed,
        "p50_seconds": best_p50,
        "p99_seconds": best_p99,
        "calibration": calibration,
    }


def _environment() -> Dict[str, object]:
    """Context recorded alongside the numbers (never gated)."""
    import os

    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def run_grouping_suite(
    quick: bool = False, seed: int = 0, progress: Progress = None
) -> Dict[str, object]:
    """Run the grouping suite; return the ``BENCH_grouping.json`` document.

    Args:
        quick: Skip the largest cold size (the CI configuration).
            Every benchmark quick mode *does* run uses the exact full
            workload, so quick results are a strict, comparable subset
            of full results and gate cleanly against a committed full
            baseline.
        seed: Workload seed; the default is what the committed
            baselines use.
        progress: Optional callback receiving one line per benchmark.
    """

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    calibration = calibrate()
    note(f"calibration {calibration * 1e3:.1f} ms")
    sizes = (512, 1024) if quick else (512, 1024, 4096)
    benchmarks: Dict[str, Dict[str, float]] = {}
    for size in sizes:
        entry = _cold_group(size, seed, repeats=2)
        benchmarks[f"cold_group_{size}"] = entry
        note(
            f"cold_group_{size}: {entry['seconds']:.3f} s "
            f"({entry['groups']} groups)"
        )
    warm = _warm_regroup(128, 100, seed)
    benchmarks["warm_regroup"] = warm
    note(
        f"warm_regroup: p50 {warm['p50_seconds'] * 1e3:.2f} ms, "
        f"p99 {warm['p99_seconds'] * 1e3:.2f} ms over {warm['events']} events"
    )
    calibration = min(calibration, calibrate())
    _attach_normalized(benchmarks, calibration)
    return {
        "schema": SCHEMA_VERSION,
        "suite": "grouping",
        "quick": quick,
        "seed": seed,
        "calibration_seconds": calibration,
        "env": _environment(),
        "benchmarks": benchmarks,
    }


def run_service_suite(
    quick: bool = False, seed: int = 0, progress: Progress = None
) -> Dict[str, object]:
    """Run the service suite; return the ``BENCH_service.json`` document.

    Args:
        quick: Accepted for CLI symmetry with the grouping suite; the
            service workloads are already cheap, and shrinking them
            would make quick-run metrics incomparable with the
            committed full baseline, so the flag changes nothing here.
        seed: Workload seed for the trace generator and sweep cells.
        progress: Optional callback receiving one line per benchmark.
    """
    from repro.cluster.cluster import Cluster
    from repro.sim.simulator import ClusterSimulator
    from repro.sweep import SweepRunner, experiment_cells
    from repro.trace.philly import generate_trace
    from repro.trace.workload import build_jobs

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    calibration = calibrate()
    note(f"calibration {calibration * 1e3:.1f} ms")

    # Submit-to-decision: a drained service-style run (arrivals
    # reschedule immediately, completions regroup incrementally) with
    # every scheduler.decide call timed.  Arrival-reason latencies are
    # exactly what a service client waits between submit and decision.
    # The simulation is deterministic, so each repeat times identical
    # work; taking the best percentile over repeats discards scheduler
    # jitter, which only ever inflates the tail.
    num_jobs = 200
    repeats = 3
    trace = generate_trace("1", num_jobs=num_jobs, seed=seed)
    specs = build_jobs(trace, seed=seed)
    cluster = Cluster(8, 8)
    specs = [s for s in specs if s.num_gpus <= cluster.total_gpus]
    best_p50 = float("inf")
    best_p99 = float("inf")
    submit_cal = float("inf")
    decisions = 0
    arrival_count = 0
    for _ in range(repeats):
        submit_cal = min(submit_cal, calibrate(repeats=1))
        scheduler = MuriScheduler(event_regroup=True)
        latencies: Dict[str, List[float]] = {}
        inner_decide = scheduler.decide

        def timed_decide(now, jobs, running, total_gpus, reason="tick"):
            """Record per-reason wall time around the real decide call."""
            start = time.perf_counter()
            plan = inner_decide(now, jobs, running, total_gpus, reason)
            latencies.setdefault(reason, []).append(
                time.perf_counter() - start
            )
            return plan

        scheduler.decide = timed_decide  # type: ignore[method-assign]
        simulator = ClusterSimulator(
            scheduler,
            cluster=Cluster(8, 8),
            reschedule_on_arrival=True,
            arrival_reason="arrival",
            backfill_on_completion=True,
        )
        simulator.run(specs, trace.name)
        arrivals = latencies.get("arrival", [0.0])
        decisions = sum(len(samples) for samples in latencies.values())
        arrival_count = len(arrivals)
        best_p50 = min(best_p50, _percentile(arrivals, 0.50))
        best_p99 = min(best_p99, _percentile(arrivals, 0.99))
    submit_cal = min(submit_cal, calibrate(repeats=1))
    submit = {
        "jobs": len(specs),
        "decisions": decisions,
        "arrivals": arrival_count,
        "p50_seconds": best_p50,
        "p99_seconds": best_p99,
        "calibration": submit_cal,
    }
    note(
        f"submit_decide: p50 {submit['p50_seconds'] * 1e3:.2f} ms, "
        f"p99 {submit['p99_seconds'] * 1e3:.2f} ms "
        f"over {submit['arrivals']} arrivals"
    )

    # Sweep throughput: the serial runner on a pinned slice of the
    # fig11 ablation grid, best of a few repeats.  Gated as
    # seconds-per-cell so the direction matches every other metric
    # (higher = regression).
    cells = experiment_cells("fig11", num_jobs=40, seed=seed)[:4]
    elapsed = float("inf")
    sweep_cal = float("inf")
    results: Dict[str, object] = {}
    for _ in range(repeats):
        sweep_cal = min(sweep_cal, calibrate(repeats=1))
        runner = SweepRunner(max_workers=1)
        start = time.perf_counter()
        results = runner.run(cells)
        elapsed = min(elapsed, time.perf_counter() - start)
    sweep_cal = min(sweep_cal, calibrate(repeats=1))
    failed = sum(1 for run in results.values() if not run.ok)
    per_cell = elapsed / max(1, len(results))
    sweep = {
        "cells": len(results),
        "failed": failed,
        "cell_seconds": per_cell,
        "calibration": sweep_cal,
    }
    note(
        f"sweep_serial: {len(results)} cells in {elapsed:.2f} s "
        f"({per_cell:.2f} s/cell)"
    )
    benchmarks = {"submit_decide": submit, "sweep_serial": sweep}
    calibration = min(calibration, calibrate())
    _attach_normalized(benchmarks, calibration)
    return {
        "schema": SCHEMA_VERSION,
        "suite": "service",
        "quick": quick,
        "seed": seed,
        "calibration_seconds": calibration,
        "env": _environment(),
        "benchmarks": benchmarks,
    }


def run_fleet_suite(
    quick: bool = False, seed: int = 0, progress: Progress = None
) -> Dict[str, object]:
    """Run the fleet suite; return the ``BENCH_fleet.json`` document.

    A seeded three-tenant stream is submitted through a four-shard
    fleet (``partition_cluster(8, 8, 4)``), measuring what the fleet
    layer itself adds:

    * **fleet_submit** — per-submission admission+routing wall
      latency (ledger charge, open-job sweep, deterministic routing,
      shard admission), pooled across tenants; best p50/p99 over
      repeats since the seeded stream makes every repeat identical
      work;
    * **fleet_drain** — aggregate drain throughput of ``run_sync``
      over all shards, gated as seconds per job.

    Shards run FIFO: scheduler cost is the *service* suite's subject,
    and a cheap ``decide`` keeps this suite sensitive to the plumbing
    (routing, tenancy, merge) rather than re-measuring grouping.

    Args:
        quick: Accepted for CLI symmetry; the fleet workload is
            already cheap, so the flag changes nothing here.
        seed: Workload seed for the job stream.
        progress: Optional callback receiving one line per benchmark.
    """
    from repro.fleet import FleetFrontEnd, partition_cluster

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    calibration = calibrate()
    note(f"calibration {calibration * 1e3:.1f} ms")

    num_jobs = 400
    repeats = 3
    tenants = ("alice", "bob", "carol")
    topology = partition_cluster(8, 8, 4)
    # VCs are 2x8 = 16 GPUs, so every choice fits every shard and the
    # routing decision is always a genuine least-pending comparison.
    specs = [
        job.spec
        for job in _make_jobs(num_jobs, seed, gpu_choices=(1, 1, 2, 4, 8))
    ]

    best_p50 = float("inf")
    best_p99 = float("inf")
    best_drain = float("inf")
    submit_cal = float("inf")
    finished = 0
    for _ in range(repeats):
        submit_cal = min(submit_cal, calibrate(repeats=1))
        frontend = FleetFrontEnd.build(topology, scheduler="fifo")
        for index, spec in enumerate(specs):
            frontend.submit(spec, tenant=tenants[index % len(tenants)])
        pooled = [
            value
            for samples in frontend.submit_latencies.values()
            for value in samples
        ]
        best_p50 = min(best_p50, _percentile(pooled, 0.50))
        best_p99 = min(best_p99, _percentile(pooled, 0.99))
        start = time.perf_counter()
        result = frontend.run_sync()
        best_drain = min(best_drain, time.perf_counter() - start)
        finished = len(result.jcts)
    submit_cal = min(submit_cal, calibrate(repeats=1))

    submit = {
        "jobs": num_jobs,
        "shards": len(topology.vcs),
        "tenants": len(tenants),
        "p50_seconds": best_p50,
        "p99_seconds": best_p99,
        "calibration": submit_cal,
    }
    note(
        f"fleet_submit: p50 {submit['p50_seconds'] * 1e6:.1f} us, "
        f"p99 {submit['p99_seconds'] * 1e6:.1f} us "
        f"over {num_jobs} submissions"
    )
    drain = {
        "jobs": num_jobs,
        "finished": finished,
        "job_seconds": best_drain / max(1, finished),
        "calibration": submit_cal,
    }
    note(
        f"fleet_drain: {finished} jobs in {best_drain:.2f} s "
        f"({drain['job_seconds'] * 1e3:.2f} ms/job)"
    )
    benchmarks = {"fleet_submit": submit, "fleet_drain": drain}
    calibration = min(calibration, calibrate())
    _attach_normalized(benchmarks, calibration)
    return {
        "schema": SCHEMA_VERSION,
        "suite": "fleet",
        "quick": quick,
        "seed": seed,
        "calibration_seconds": calibration,
        "env": _environment(),
        "benchmarks": benchmarks,
    }


def run_elastic_suite(
    quick: bool = False, seed: int = 0, progress: Progress = None
) -> Dict[str, object]:
    """Run the elastic suite; return the ``BENCH_elastic.json`` document.

    Times what the elastic arm adds on top of Muri, on a seeded
    half-elastic trace-"1" workload:

    * **cold_elastic_group** — one full cold scheduling step: a fresh
      :class:`~repro.elastic.ElasticMuriScheduler` renegotiates GPU
      counts, the resizes are applied (with per-resize cache
      invalidation, as the simulator would), and Algorithm-1 grouping
      runs on the resized buckets;
    * **renegotiate_step** — p50/p99 latency of the per-tick
      renegotiation step alone (allocator water-fill plus resize
      application) over a stream of queue-perturbing events.

    Args:
        quick: Accepted for CLI symmetry; the elastic workloads are
            already cheap, and shrinking them would make quick-run
            metrics incomparable with the committed full baseline, so
            the flag changes nothing here.
        seed: Workload seed; the default is what the committed
            baseline uses.
        progress: Optional callback receiving one line per benchmark.
    """
    from repro.elastic.scheduler import ElasticMuriScheduler
    from repro.elastic.workload import attach_scalability
    from repro.trace.philly import generate_trace
    from repro.trace.workload import build_jobs

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    calibration = calibrate()
    note(f"calibration {calibration * 1e3:.1f} ms")

    capacity = 64
    num_jobs = 512
    repeats = 3
    specs = build_jobs(
        generate_trace("1", num_jobs=num_jobs, seed=seed), seed=seed
    )
    specs = [s for s in specs if s.num_gpus <= capacity]
    especs = attach_scalability(specs, fraction=0.5, seed=seed)

    def apply_targets(scheduler, by_id, targets) -> None:
        for job_id in sorted(targets):
            old = by_id[job_id].resize(targets[job_id])
            scheduler.notify_resize(job_id, old, targets[job_id])

    # Cold full step: renegotiate + apply + group, fresh every repeat
    # (resizes mutate the jobs, so each repeat rebuilds them).
    best = float("inf")
    cold_cal = float("inf")
    resizes = 0
    groups = 0
    for _ in range(repeats):
        cold_cal = min(cold_cal, calibrate(repeats=1))
        jobs = [Job(spec) for spec in especs]
        by_id = {job.job_id: job for job in jobs}
        scheduler = ElasticMuriScheduler()
        start = time.perf_counter()
        targets = scheduler.renegotiate(0.0, jobs, capacity)
        apply_targets(scheduler, by_id, targets)
        plan = scheduler.decide(0.0, jobs, {}, capacity, reason="tick")
        best = min(best, time.perf_counter() - start)
        resizes = len(targets)
        groups = len(plan)
    cold_cal = min(cold_cal, calibrate(repeats=1))
    cold = {
        "jobs": len(especs),
        "resizes": resizes,
        "groups": groups,
        "seconds": best,
        "calibration": cold_cal,
    }
    note(
        f"cold_elastic_group: {cold['seconds']:.3f} s "
        f"({resizes} resizes, {groups} groups)"
    )

    # Renegotiation-step latency on an evolving queue: each event
    # removes one job (alternating priority tail/head, as the warm
    # regroup benchmark does) and times renegotiate + apply alone.
    events = 100
    best_p50 = float("inf")
    best_p99 = float("inf")
    step_cal = float("inf")
    observed = 0
    for _ in range(repeats):
        step_cal = min(step_cal, calibrate(repeats=1))
        queue = [Job(spec) for spec in especs]
        by_id = {job.job_id: job for job in queue}
        scheduler = ElasticMuriScheduler()
        ranked = sorted(
            queue,
            key=lambda job: (
                scheduler.policy(job, 0.0),
                job.spec.submit_time,
                job.job_id,
            ),
        )
        latencies: List[float] = []
        now = 1.0
        for event in range(events):
            if len(ranked) < 8:
                break
            victim = ranked.pop() if event % 2 == 0 else ranked.pop(0)
            queue = [job for job in queue if job is not victim]
            start = time.perf_counter()
            targets = scheduler.renegotiate(now, queue, capacity)
            apply_targets(scheduler, by_id, targets)
            latencies.append(time.perf_counter() - start)
            now += 1.0
        observed = len(latencies)
        best_p50 = min(best_p50, _percentile(latencies, 0.50))
        best_p99 = min(best_p99, _percentile(latencies, 0.99))
    step_cal = min(step_cal, calibrate(repeats=1))
    step = {
        "jobs": len(especs),
        "events": observed,
        "p50_seconds": best_p50,
        "p99_seconds": best_p99,
        "calibration": step_cal,
    }
    note(
        f"renegotiate_step: p50 {step['p50_seconds'] * 1e3:.2f} ms, "
        f"p99 {step['p99_seconds'] * 1e3:.2f} ms over {observed} events"
    )

    benchmarks = {"cold_elastic_group": cold, "renegotiate_step": step}
    calibration = min(calibration, calibrate())
    _attach_normalized(benchmarks, calibration)
    return {
        "schema": SCHEMA_VERSION,
        "suite": "elastic",
        "quick": quick,
        "seed": seed,
        "calibration_seconds": calibration,
        "env": _environment(),
        "benchmarks": benchmarks,
    }


def run_replay_suite(
    quick: bool = False, seed: int = 0, progress: Progress = None
) -> Dict[str, object]:
    """Run the replay suite; return the ``BENCH_replay.json`` document.

    The full path of a production-scale replay, on a constant-load
    :func:`~repro.replay.workload.synthetic_trace` (100k jobs over 20
    simulated days; the quick configuration replays the same recipe at
    10k jobs — **not** a subset, so quick runs gate only against a
    quick baseline, which is what CI commits):

    * **csv_ingest** — Philly CSV adapter throughput: the trace is
      serialized with ``write_philly_csv`` and ingested back with
      ``load_philly_csv``, gated as seconds per job row;
    * **replay_run** — the batch event-driven harness end to end
      (FIFO shards the cost to the harness and simulator rather than
      the grouping paths other suites own), gated as wall seconds per
      job plus the p99 simulator-step latency from
      :class:`~repro.replay.ReplayStats`.

    Args:
        quick: Replay 10k jobs instead of 100k (the CI configuration).
        seed: Workload seed; the default is what the committed
            baseline uses.
        progress: Optional callback receiving one line per benchmark.
    """
    import tempfile

    from repro.cluster.cluster import Cluster
    from repro.replay import replay_trace
    from repro.replay.workload import synthetic_trace
    from repro.schedulers.registry import make_scheduler
    from repro.sim.simulator import ClusterSimulator
    from repro.trace.philly_csv import load_philly_csv, write_philly_csv
    from repro.trace.workload import build_jobs

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    calibration = calibrate()
    note(f"calibration {calibration * 1e3:.1f} ms")

    num_jobs = 10_000 if quick else 100_000
    trace = synthetic_trace(num_jobs, seed=seed)

    # CSV ingestion: serialize + parse the whole trace through the
    # Philly adapter; cheap enough to take the best of two rounds.
    ingest_cal = float("inf")
    best_ingest = float("inf")
    loaded = 0
    with tempfile.TemporaryDirectory() as tmp:
        csv_path = Path(tmp) / "replay.csv"
        for _ in range(2):
            ingest_cal = min(ingest_cal, calibrate(repeats=1))
            start = time.perf_counter()
            write_philly_csv(trace, csv_path)
            ingested, report = load_philly_csv(csv_path, min_duration=0.0)
            best_ingest = min(best_ingest, time.perf_counter() - start)
            loaded = report.jobs_loaded
    ingest_cal = min(ingest_cal, calibrate(repeats=1))
    ingest = {
        "jobs": num_jobs,
        "loaded": loaded,
        "job_seconds": best_ingest / max(1, loaded),
        "calibration": ingest_cal,
    }
    note(
        f"csv_ingest: {loaded} jobs in {best_ingest:.2f} s "
        f"({ingest['job_seconds'] * 1e6:.1f} us/job)"
    )

    # The replay itself: one round — the run is deterministic and
    # minutes long at full size, so repeats would only resample
    # scheduler jitter the adjacent calibration already cancels.
    specs = build_jobs(ingested, seed=seed)
    simulator = ClusterSimulator(
        make_scheduler("fifo"), cluster=Cluster(256, 8)
    )
    replay_cal = calibrate(repeats=1)
    result, stats = replay_trace(
        simulator, specs, ingested.name, batch_step_seconds=300.0
    )
    replay_cal = min(replay_cal, calibrate(repeats=1))
    run = {
        "jobs": num_jobs,
        "finished": len(result.jcts),
        "steps": stats.sim_steps,
        "rounds": stats.rounds,
        "job_seconds": stats.wall_clock / max(1, num_jobs),
        "p50_step_seconds": stats.step_seconds_p50,
        "p99_step_seconds": stats.step_seconds_p99,
        "calibration": replay_cal,
    }
    note(
        f"replay_run: {num_jobs} jobs in {stats.wall_clock:.1f} s "
        f"({num_jobs / max(stats.wall_clock, 1e-9):.0f} jobs/s), "
        f"step p50 {stats.step_seconds_p50 * 1e3:.2f} ms, "
        f"p99 {stats.step_seconds_p99 * 1e3:.2f} ms"
    )

    benchmarks = {"csv_ingest": ingest, "replay_run": run}
    calibration = min(calibration, calibrate())
    _attach_normalized(benchmarks, calibration)
    return {
        "schema": SCHEMA_VERSION,
        "suite": "replay",
        "quick": quick,
        "seed": seed,
        "calibration_seconds": calibration,
        "env": _environment(),
        "benchmarks": benchmarks,
    }


def run_hetero_suite(
    quick: bool = False, seed: int = 0, progress: Progress = None
) -> Dict[str, object]:
    """Run the hetero suite; return the ``BENCH_hetero.json`` document.

    One seeded workload pinned/preferred onto a mixed k80+a100
    cluster, run through Muri-S twice — default descending placer vs
    the Gavel-style throughput-aware placer — with landing-speed
    scaling active on both arms, so the *only* difference is where
    preferred and unaffine groups land:

    * **hetero_placement** — the headline claim.
      ``makespan_ratio_normalized`` is the aware arm's simulated
      makespan divided by the baseline arm's: deterministic for the
      seed (simulated time, no clock involved — it needs no
      calibration, the ``_normalized`` suffix opts it into the gate),
      lower is better, and strictly below 1.0 while throughput-aware
      placement actually beats affinity-only placement.  Per-arm
      makespans and per-generation occupancy ride along for humans,
      and ``run_seconds`` (both arms' wall time, calibrated) gates
      the cost of the heterogeneous scheduling path itself.
    """
    from repro.cluster.placement import ThroughputAwarePlacer
    from repro.hetero.types import DEFAULT_TYPE_SCALING
    from repro.hetero.workload import make_hetero_cluster, pin_jobs
    from repro.schedulers.registry import make_scheduler
    from repro.sim.simulator import ClusterSimulator
    from repro.trace.philly import generate_trace
    from repro.trace.workload import build_jobs

    def note(line: str) -> None:
        if progress is not None:
            progress(line)

    calibration = calibrate()
    note(f"calibration {calibration * 1e3:.1f} ms")

    num_jobs = 256 if quick else 1_024
    type_names = ("k80", "a100")
    specs = build_jobs(
        generate_trace("1", num_jobs=num_jobs, seed=seed), seed=seed
    )
    pinned = pin_jobs(
        specs, list(type_names), seed=seed, prefer_fraction=0.6
    )

    arm_cal = calibrate(repeats=1)
    makespans: Dict[str, float] = {}
    occupancy: Dict[str, Dict[str, float]] = {}
    wall = 0.0
    for label, placer in (
        ("baseline", None),
        ("aware", ThroughputAwarePlacer()),
    ):
        cluster = make_hetero_cluster(
            8, 8, type_names=type_names, seed=seed
        )
        simulator = ClusterSimulator(
            make_scheduler("muri-s"),
            cluster=cluster,
            landing_speed_scaling=DEFAULT_TYPE_SCALING,
            placer=placer,
        )
        start = time.perf_counter()
        result = simulator.run(pinned, "hetero-bench")
        wall += time.perf_counter() - start
        makespans[label] = result.makespan
        occupancy[label] = {
            name: round(value, 4)
            for name, value in result.utilization_by_type().items()
        }
    arm_cal = min(arm_cal, calibrate(repeats=1))

    placement = {
        "jobs": num_jobs,
        "makespan_baseline": makespans["baseline"],
        "makespan_aware": makespans["aware"],
        "improvement": 1.0 - makespans["aware"] / makespans["baseline"],
        "makespan_ratio_normalized": (
            makespans["aware"] / makespans["baseline"]
        ),
        "utilization_by_type": occupancy,
        "run_seconds": wall,
        "calibration": arm_cal,
    }
    note(
        f"hetero_placement: baseline {makespans['baseline']:.0f} s, "
        f"aware {makespans['aware']:.0f} s "
        f"({placement['improvement']:.1%} better) in {wall:.1f} s wall"
    )

    benchmarks = {"hetero_placement": placement}
    calibration = min(calibration, calibrate())
    _attach_normalized(benchmarks, calibration)
    return {
        "schema": SCHEMA_VERSION,
        "suite": "hetero",
        "quick": quick,
        "seed": seed,
        "calibration_seconds": calibration,
        "env": _environment(),
        "benchmarks": benchmarks,
    }


def write_bench(document: Dict[str, object], path: Path) -> None:
    """Write one suite document as stable, diff-friendly JSON."""
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def load_bench(path: Path) -> Dict[str, object]:
    """Read a suite document written by :func:`write_bench`."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def gated_metrics(document: Dict[str, object]) -> Dict[str, float]:
    """Flatten a suite document to its gated (normalized) metrics.

    Returns ``{"benchmark.metric": value}`` for every metric named
    ``normalized`` or ending in ``_normalized``, except medians:
    ``p50_*`` values are recorded for humans but never gated, because
    the warm paths are bimodal (every bucket a decision-cache hit vs a
    bucket re-matched) and a median sitting on that boundary jitters
    far beyond any honest tolerance — the tail (p99) is the latency
    contract.  The gated values are machine-speed invariant to first
    order, and all of them are lower-is-better.
    """
    flat: Dict[str, float] = {}
    for bench_name, entry in sorted(document.get("benchmarks", {}).items()):
        for metric, value in sorted(entry.items()):
            if metric.startswith("p50"):
                continue
            if metric == "normalized" or metric.endswith("_normalized"):
                flat[f"{bench_name}.{metric}"] = float(value)
    return flat
