"""Tests for the scheduling-decision audit log."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.muri import MuriScheduler
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.observe import Tracer
from repro.schedulers.classic import FifoScheduler, SrtfScheduler
from repro.sim.contention import IDEAL_CONTENTION
from repro.sim.decisions import Decision, DecisionLog
from repro.sim.simulator import ClusterSimulator

UNIT = StageProfile((0.25, 0.25, 0.25, 0.25))


def run_logged(scheduler, specs, **kwargs):
    log = DecisionLog()
    tracer = Tracer()
    tracer.subscribe(log)
    defaults = dict(
        restart_penalty=0.0,
        contention=IDEAL_CONTENTION,
        scheduling_interval=100.0,
        tracer=tracer,
    )
    defaults.update(kwargs)
    ClusterSimulator(scheduler, cluster=Cluster(1, 1), **defaults).run(
        specs, "logged"
    )
    return log


class TestLogUnit:
    def test_empty(self):
        log = DecisionLog()
        assert len(log) == 0
        assert log.churn_rate() == 0.0
        assert log.summary()["decisions"] == 0.0

    def test_record_and_query(self):
        log = DecisionLog()
        log.record(Decision(0.0, "tick", 2, 0, 2, 0, 0, 1, 0))
        log.record(Decision(100.0, "tick", 2, 1, 1, 1, 0, 0, 0))
        assert len(log) == 2
        assert log.total_started == 3
        assert log.total_preemptions == 1
        assert log.churn_rate() == 0.5

    def test_idle_decisions(self):
        log = DecisionLog()
        log.record(Decision(0.0, "tick", 1, 0, 1, 0, 0, 3, 2))
        log.record(Decision(1.0, "tick", 1, 1, 0, 0, 0, 0, 2))
        assert len(log.idle_decisions()) == 1

    def test_decision_to_dict(self):
        decision = Decision(5.0, "completion", 2, 1, 1, 0, 0, 4, 3)
        payload = decision.to_dict()
        assert payload == {
            "time": 5.0,
            "reason": "completion",
            "proposed_groups": 2,
            "kept": 1,
            "started": 1,
            "preempted": 0,
            "unplaced": 0,
            "queue_length": 4,
            "free_gpus": 3,
        }

    def test_log_to_dicts_preserves_order(self):
        log = DecisionLog()
        log.record(Decision(0.0, "tick", 1, 0, 1, 0, 0, 3, 2))
        log.record(Decision(1.0, "completion", 1, 1, 0, 1, 0, 0, 2))
        payloads = log.to_dicts()
        assert [p["time"] for p in payloads] == [0.0, 1.0]
        assert payloads[1]["preempted"] == 1


class TestLogInSimulation:
    def test_records_every_invocation(self):
        specs = [JobSpec(profile=UNIT, num_iterations=250) for _ in range(2)]
        log = run_logged(FifoScheduler(), specs)
        assert len(log) >= 2
        assert all(d.reason in ("tick", "completion") for d in log)

    def test_counts_starts(self):
        specs = [JobSpec(profile=UNIT, num_iterations=100) for _ in range(3)]
        log = run_logged(FifoScheduler(), specs)
        # Three jobs started (serially on one GPU).
        assert log.total_started == 3
        assert log.total_preemptions == 0

    def test_counts_preemptions(self):
        long_job = JobSpec(profile=UNIT, num_iterations=1000)
        short_job = JobSpec(profile=UNIT, num_iterations=10, submit_time=100.0)
        log = run_logged(SrtfScheduler(), [long_job, short_job])
        assert log.total_preemptions >= 1

    def test_stable_muri_plan_has_low_churn(self):
        cpu = StageProfile((0.1, 0.7, 0.1, 0.1))
        gpu = StageProfile((0.1, 0.1, 0.7, 0.1))
        specs = [JobSpec(profile=p, num_iterations=2000) for p in (cpu, gpu)]
        log = run_logged(MuriScheduler(), specs)
        # One group formed once, then kept every tick.
        assert log.total_started == 1
        assert log.churn_rate() == 0.0

    def test_summary_keys(self):
        specs = [JobSpec(profile=UNIT, num_iterations=50)]
        log = run_logged(FifoScheduler(), specs)
        summary = log.summary()
        assert set(summary) == {
            "decisions", "started", "preempted_groups", "churn_rate",
            "idle_decisions",
        }
