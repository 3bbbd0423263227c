"""The four end-to-end workloads, built and driven through the public API.

Each workload has a ``setup`` (workload generation, the CSV round trip
where it applies, job construction, and scheduler, cluster and
simulator construction) and a ``drive`` that runs the program on the
generated inputs.  Program callables are looked up through their
modules at call time (``philly.generate_trace`` rather than an
imported name) so the wrappers of a traced repeat see every call.

A benchmark seed stands for several distinct inputs of each workload,
generated from :func:`input_seed`.  Sizes are the jobs of one input at
``scale=1``; each drive takes about two seconds on a 2-vCPU host.
"""

from __future__ import annotations

import random
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List

import repro.replay as replay
import repro.service.protocol as protocol
import repro.trace.philly as philly
import repro.trace.philly_csv as philly_csv
import repro.trace.workload as trace_workload
from repro.cluster.cluster import Cluster
from repro.cluster.placement import ThroughputAwarePlacer
from repro.core.muri import MuriScheduler
from repro.elastic.workload import attach_scalability
from repro.hetero.types import DEFAULT_TYPE_SCALING
from repro.hetero.workload import make_hetero_cluster, pin_jobs
from repro.jobs.job import JobStatus
from repro.schedulers.registry import make_scheduler
from repro.service.daemon import SchedulerService
from repro.service.server import ServiceServer
from repro.sim.metrics import SimulationResult, percentile
from repro.sim.simulator import ClusterSimulator

#: Same event-time tolerance as the simulator.
_EPS = 1e-9

#: Smallest workload any ``scale`` shrinks to.
_MIN_JOBS = 8


@dataclass
class Outcome:
    """What one drive produced, for the metrics and the correctness gate.

    Attributes:
        result: The simulation result.
        admitted: Jobs the program accepted.
        terminal: Admitted jobs that ended finished, or cancelled by
            the client.
        steps: Simulator steps driven.
        step_p50_ms: Median wall latency of one step.
        step_p99_ms: 99th-percentile wall latency of one step.
        rejected: Submissions the program refused.
        problems: Correctness-gate failures, empty when correct.
        extra: Workload-specific measurements.
    """

    result: SimulationResult
    admitted: int
    terminal: int
    steps: int
    step_p50_ms: float
    step_p99_ms: float
    rejected: int = 0
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)


def _replay_outcome(specs, result, stats) -> Outcome:
    outcome = Outcome(
        result=result,
        admitted=stats.injected_jobs,
        terminal=len(result.jcts),
        steps=stats.sim_steps,
        step_p50_ms=stats.step_seconds_p50 * 1e3,
        step_p99_ms=stats.step_seconds_p99 * 1e3,
        extra={"replay.rounds": stats.rounds},
    )
    if stats.injected_jobs != len(specs):
        outcome.problems.append(
            f"{stats.injected_jobs} of {len(specs)} jobs were injected"
        )
    if len(result.jcts) != len(specs):
        outcome.problems.append(
            f"{len(specs) - len(result.jcts)} jobs did not finish"
        )
    return outcome


def _setup_philly_tick(jobs: int, seed: int, workdir: Path):
    trace = philly.generate_trace("4", num_jobs=jobs, seed=seed)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = Path(tmp) / "trace-4.csv"
        philly_csv.write_philly_csv(trace, path)
        ingested, report = philly_csv.load_philly_csv(path)
    specs = trace_workload.build_jobs(ingested, seed=seed)
    simulator = ClusterSimulator(MuriScheduler(), cluster=Cluster(8, 8))

    def drive() -> Outcome:
        result, stats = replay.replay_trace(
            simulator, specs, ingested.name, batch_step_seconds=300.0
        )
        outcome = _replay_outcome(specs, result, stats)
        outcome.extra["trace.ingest.skipped"] = report.total_skipped
        return outcome

    return drive


def _setup_burst_unique(jobs: int, seed: int, workdir: Path):
    trace = philly.generate_trace("1'", num_jobs=jobs, seed=seed)
    rng = random.Random(seed)
    specs = [
        replace(spec, profile=spec.profile.scaled(rng.uniform(0.7, 1.3)))
        for spec in trace_workload.build_jobs(trace, seed=seed)
    ]
    simulator = ClusterSimulator(
        MuriScheduler(event_regroup=True),
        # Four jobs per GPU: as many as Muri packs onto one, so the
        # burst fills every group and the rest queues.  Never fewer
        # than 32 GPUs, the largest job of the trace shape.
        cluster=Cluster(max(4, jobs // 32), 8),
        reschedule_on_arrival=True,
        arrival_reason="arrival",
        backfill_on_completion=True,
    )

    def drive() -> Outcome:
        result, stats = replay.replay_trace(
            simulator, specs, trace.name, batch_step_seconds=0.0
        )
        return _replay_outcome(specs, result, stats)

    return drive


def _setup_hetero_elastic(jobs: int, seed: int, workdir: Path):
    trace = replay.synthetic_trace(jobs, seed=seed)
    specs = trace_workload.build_jobs(trace, seed=seed)
    specs = attach_scalability(specs, fraction=0.5, seed=seed)
    specs = pin_jobs(specs, ("k80", "a100"), seed=seed, prefer_fraction=0.6)
    simulator = ClusterSimulator(
        make_scheduler("elastic-muri"),
        cluster=make_hetero_cluster(8, 8, ("k80", "a100"), seed=seed),
        placer=ThroughputAwarePlacer(),
        landing_speed_scaling=DEFAULT_TYPE_SCALING,
    )

    def drive() -> Outcome:
        result, stats = replay.replay_trace(
            simulator, specs, trace.name, batch_step_seconds=300.0
        )
        return _replay_outcome(specs, result, stats)

    return drive


#: A ``status`` read rides along with every this-many arrivals.
_STATUS_EVERY = 10
#: Share of jobs the client cancels, and how many arrivals later.
_CANCEL_SHARE = 0.05
_CANCEL_LAG = 20


def _setup_service_mix(jobs: int, seed: int, workdir: Path):
    trace = philly.generate_trace("1", num_jobs=jobs, seed=seed)
    specs = sorted(
        trace_workload.build_jobs(trace, seed=seed),
        key=lambda spec: (spec.submit_time, spec.job_id),
    )
    rng = random.Random(seed)
    # Arrival index at which the client cancels an earlier job.
    cancel_at = {
        index + _CANCEL_LAG: index
        for index in range(len(specs))
        if rng.random() < _CANCEL_SHARE
    }
    simulator = ClusterSimulator(
        MuriScheduler(event_regroup=True),
        cluster=Cluster(8, 8),
        reschedule_on_arrival=True,
        arrival_reason="arrival",
        backfill_on_completion=True,
    )
    service = SchedulerService(simulator, max_pending=1024)
    # No socket is opened: the client calls dispatch directly.
    server = ServiceServer(service, path="unused.sock")

    def drive() -> Outcome:
        return _closed_loop(service, server, specs, cancel_at)

    return drive


def _closed_loop(service, server, specs, cancel_at) -> Outcome:
    """One client, one request at a time, in the service's virtual time.

    Before every step the client submits the next arrival (and every
    arrival sharing its submit time) once all earlier ones have fired,
    so no step runs past a submit time.  A job's decision latency is
    its submit round trip plus the step that fires its arrival, which
    also makes the scheduling decision for it.
    """
    state = service.state
    latencies: Dict[str, List[float]] = {
        "submit": [], "status": [], "cancel": [], "drain": [], "decision": [],
    }
    steps: List[float] = []
    unfired: deque = deque()
    job_ids: Dict[int, int] = {}
    cancelled = set()
    rejected = 0
    problems: List[str] = []

    def request(message, op: str) -> Dict:
        started = time.perf_counter()
        wire = protocol.encode_line(message)
        reply = protocol.encode_line(server.dispatch(protocol.decode_line(wire)))
        response = protocol.decode_line(reply)
        latencies[op].append(time.perf_counter() - started)
        return response

    index = 0
    while index < len(specs) or not service.is_done:
        if index < len(specs) and not unfired:
            batch_time = specs[index].submit_time
            while index < len(specs) and specs[index].submit_time <= batch_time + _EPS:
                spec = specs[index]
                response = request(protocol.SubmitRequest(spec=spec), "submit")
                if response.get("ok"):
                    job_ids[index] = response["job_id"]
                    unfired.append(
                        (max(state.now, spec.submit_time), latencies["submit"][-1])
                    )
                else:
                    rejected += 1
                index += 1
                if index % _STATUS_EVERY == 0:
                    request(protocol.StatusRequest(), "status")
                victim = job_ids.get(cancel_at.get(index))
                if victim is not None:
                    response = request(protocol.CancelRequest(job_id=victim), "cancel")
                    if response.get("cancelled"):
                        cancelled.add(victim)
            if index == len(specs):
                request(protocol.DrainRequest(), "drain")
        if service.is_done:
            break
        before = state.now
        started = time.perf_counter()
        service.step()
        took = time.perf_counter() - started
        steps.append(took)
        while unfired and unfired[0][0] <= before + _EPS:
            _arrival, submit_rtt = unfired.popleft()
            latencies["decision"].append(submit_rtt + took)

    result = service.finish()
    admitted = len(job_ids)
    finished = set(result.jcts)
    terminal = len(finished) + len(cancelled)
    for job_id in job_ids.values():
        status = state.jobs[job_id].status
        if job_id in cancelled:
            if status is not JobStatus.FAILED:
                problems.append(f"cancelled job {job_id} ended {status.value}")
        elif status is not JobStatus.FINISHED:
            problems.append(f"job {job_id} ended {status.value}")
    if rejected:
        problems.append(f"{rejected} submissions were rejected")

    extra: Dict[str, float] = {
        "service.cancelled": len(cancelled),
        "service.rejected": rejected,
        "service.decisions": len(latencies["decision"]),
    }
    for op in ("decision", "submit", "status", "cancel"):
        extra[f"service.{op}.p50_ms"] = _percentile_ms(latencies[op], 50)
        extra[f"service.{op}.p99_ms"] = _percentile_ms(latencies[op], 99)
    return Outcome(
        result=result,
        admitted=admitted,
        terminal=terminal,
        steps=len(steps),
        step_p50_ms=_percentile_ms(steps, 50),
        step_p99_ms=_percentile_ms(steps, 99),
        rejected=rejected,
        problems=problems,
        extra=extra,
    )


def _percentile_ms(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    return percentile(sorted(samples), q, presorted=True) * 1e3


#: Jobs at ``scale=1`` and set-up of each workload; why each exists is
#: recorded in ``BENCHMARK.json``.
WORKLOADS = {
    "philly-tick": (1200, _setup_philly_tick),
    "service-mix": (1000, _setup_service_mix),
    "burst-unique": (384, _setup_burst_unique),
    "hetero-elastic": (2000, _setup_hetero_elastic),
}


def input_seed(seed: int, index: int) -> int:
    """Generator seed of input ``index`` (``0 <= index < 1000``) of a
    benchmark seed; distinct benchmark seeds never share an input."""
    return seed * 1000 + index


def prepare(
    name: str, seed: int, index: int, scale: float, workdir: Path
) -> Callable[[], Outcome]:
    """Build input ``index`` of one workload for a benchmark seed;
    returns its drive callable."""
    jobs, setup = WORKLOADS[name]
    return setup(max(_MIN_JOBS, round(jobs * scale)), input_seed(seed, index), workdir)
