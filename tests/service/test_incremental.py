"""Acceptance tests for incremental regrouping and batch equivalence.

Two contracts from the service design:

* **Differential**: with ``event_regroup=True`` every arrival- and
  completion-driven regrouping decision must be identical to a cold
  full re-solve by a fresh scheduler on the same inputs — the
  per-bucket decision cache is a pure accelerator, never a behavior
  change.  Checked by :class:`repro.verify.IncrementalOracle` on a
  seeded stream of 500+ arrival/completion events.
* **Bit-identity**: a virtual-time service run that pre-submits a
  workload and drains must reproduce ``ClusterSimulator.run`` on the
  same specs bit-for-bit (average JCT and makespan compared with
  ``==``, not approx).
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.muri import MuriScheduler
from repro.observe.tracer import Tracer
from repro.service import SchedulerService
from repro.sim.simulator import ClusterSimulator
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs
from repro.verify import IncrementalOracle, InvariantChecker, plan_signature


def workload(num_jobs, seed, max_gpus=16):
    trace = generate_trace("1", num_jobs=num_jobs, seed=seed)
    specs = [s for s in build_jobs(trace, seed=seed)
             if s.num_gpus <= max_gpus]
    return trace, sorted(specs, key=lambda s: s.submit_time)


def event_driven_simulator(scheduler, tracer=None):
    return ClusterSimulator(
        scheduler,
        cluster=Cluster(2, 8),
        tracer=tracer,
        reschedule_on_arrival=True,
        arrival_reason="arrival",
        backfill_on_completion=True,
    )


class TestIncrementalDifferential:
    def test_500_event_stream_matches_cold_resolve(self):
        # The tentpole acceptance check: ≥500 arrival/completion events
        # through the warm (decision-cached) scheduler, every decision
        # compared against a fresh cold scheduler.
        trace, specs = workload(num_jobs=280, seed=7)
        tracer = Tracer()
        warm = MuriScheduler(policy="srsf", event_regroup=True,
                             tracer=tracer)
        oracle = IncrementalOracle(
            warm,
            lambda: MuriScheduler(policy="srsf", event_regroup=True),
        )
        service = SchedulerService(
            event_driven_simulator(oracle, tracer=tracer),
            trace_name=trace.name, tracer=tracer,
        )
        for spec in specs:
            service.submit(spec)
        result = service.run_sync()

        assert len(result.jcts) == len(specs)
        counters = tracer.counters
        events = (counters.get("sched.regroup.arrival", 0)
                  + counters.get("sched.regroup.completion", 0))
        assert events >= 500
        assert oracle.checks >= events
        # The cache must actually be exercised, or the differential
        # proves nothing about the incremental path.
        assert counters.get("grouping.decision_cache.hit", 0) > 0

    def test_oracle_flags_divergent_decisions(self):
        # A cold factory with a different policy must trip the oracle.
        from repro.verify import InvariantViolation

        trace, specs = workload(num_jobs=20, seed=3)
        oracle = IncrementalOracle(
            MuriScheduler(policy="srsf", event_regroup=True),
            lambda: MuriScheduler(policy="las2d", event_regroup=True),
        )
        service = SchedulerService(
            event_driven_simulator(oracle), trace_name=trace.name
        )
        for spec in specs:
            service.submit(spec)
        with pytest.raises(InvariantViolation):
            service.run_sync()

    def test_empty_plan_has_empty_signature(self):
        trace, specs = workload(num_jobs=6, seed=0)
        scheduler = MuriScheduler(policy="srsf")
        plan = scheduler.decide(0.0, [], {}, 16)
        assert plan_signature(plan) == ()


class TestBatchBitIdentity:
    @pytest.mark.parametrize("policy", ["srsf", "las2d"])
    def test_drained_service_reproduces_batch_run(self, policy):
        trace, specs = workload(num_jobs=60, seed=11)

        batch = ClusterSimulator(
            MuriScheduler(policy=policy), cluster=Cluster(2, 8)
        ).run(specs, trace.name)

        service = SchedulerService(
            ClusterSimulator(
                MuriScheduler(policy=policy), cluster=Cluster(2, 8)
            ),
            trace_name=trace.name,
        )
        for spec in specs:
            service.submit(spec)
        drained = service.run_sync()

        assert drained.avg_jct == batch.avg_jct
        assert drained.makespan == batch.makespan
        assert drained.jcts == batch.jcts
        assert drained.finish_times == batch.finish_times

    def test_async_virtual_run_reproduces_batch_run(self):
        import asyncio

        trace, specs = workload(num_jobs=30, seed=5)
        batch = ClusterSimulator(
            MuriScheduler(policy="srsf"), cluster=Cluster(2, 8)
        ).run(specs, trace.name)

        async def drive():
            service = SchedulerService(
                ClusterSimulator(
                    MuriScheduler(policy="srsf"), cluster=Cluster(2, 8)
                ),
                trace_name=trace.name,
            )
            for spec in specs:
                service.submit(spec)
            service.drain()
            return await service.run()

        drained = asyncio.run(drive())
        assert drained.avg_jct == batch.avg_jct
        assert drained.makespan == batch.makespan


class TestInvariantCheckedLiveLoop:
    def test_armed_checker_rides_the_service(self):
        # The InvariantChecker doubles as the service tracer: every
        # simulator and service event flows through the armed checks.
        trace, specs = workload(num_jobs=40, seed=2)
        checker = InvariantChecker(strict=True)
        scheduler = MuriScheduler(policy="srsf", event_regroup=True,
                                  tracer=checker)
        service = SchedulerService(
            event_driven_simulator(scheduler, tracer=checker),
            trace_name=trace.name, tracer=checker,
        )
        for spec in specs:
            service.submit(spec)
        result = service.run_sync()
        assert len(result.jcts) == len(specs)
        assert checker.violations == []
