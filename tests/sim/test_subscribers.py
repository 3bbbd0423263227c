"""One observation channel: the decision log and the worker monitor
ride the run's tracer as subscribers.

The golden in ``tests/data/monitor_golden.json`` was recorded from the
simulator's own monitor feed before the monitor became a subscriber;
every float is compared through ``float.hex``, so the move must be
bit-exact.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.cluster.cluster import Cluster
from repro.observe import EventCategory, Tracer
from repro.schedulers.registry import make_scheduler
from repro.sim.decisions import DecisionLog
from repro.sim.faults import FaultInjector
from repro.sim.monitor import WorkerMonitor
from repro.sim.simulator import ClusterSimulator
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs
from repro.verify import InvariantChecker

GOLDEN = Path(__file__).resolve().parent.parent / "data" / "monitor_golden.json"


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _digest(rows):
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _monitor_record(monitor, job_ids):
    samples = [
        [_hex(s.time), _hex(s.span), s.machine_id, s.allocated_gpus,
         [_hex(u) for u in s.utilization]]
        for machine_id in monitor.machine_ids()
        for s in monitor.machine_samples(machine_id)
    ]
    progress = [
        [_hex(p.time), p.job_id, _hex(p.iterations_remaining),
         _hex(p.attained_service)]
        for job_id in sorted(job_ids)
        for p in monitor.progress_of(job_id)
    ]
    return {
        "machine_samples": {"count": len(samples), "sha256": _digest(samples)},
        "progress": {"count": len(progress), "sha256": _digest(progress)},
        "faults": [[_hex(f.time), f.job_id] for f in monitor.faults()],
    }


class _DecisionEvents:
    """Captures the ``sched.decision`` event args the tracer hands out."""

    def __init__(self):
        self.seen = []

    def on_event(self, name, sim_time, args):
        if name == "sched.decision":
            self.seen.append((sim_time, dict(args)))


class TestCombinedSubscribers:
    def test_armed_run_feeds_log_and_monitor(self):
        trace = generate_trace("1", num_jobs=30, seed=0)
        specs = [s for s in build_jobs(trace, seed=0) if s.num_gpus <= 8]
        checker = InvariantChecker()
        log, monitor, events = DecisionLog(), WorkerMonitor(), _DecisionEvents()
        for subscriber in (log, monitor, events):
            checker.subscribe(subscriber)
        ClusterSimulator(
            make_scheduler("muri-s", tracer=checker),
            cluster=Cluster(2, 4),
            fault_injector=FaultInjector(
                mean_time_between_faults=3000.0, seed=0, progress_loss=0.25
            ),
            tracer=checker,
        ).run(specs, trace.name)

        # Armed and storing nothing, yet every subscriber was fed.
        assert checker.violations == []
        assert len(checker) == 0
        assert checker.counters == {}

        assert [
            (d.time, d.reason, d.proposed_groups, d.kept, d.started,
             d.preempted, d.unplaced, d.queue_length, d.free_gpus)
            for d in log
        ] == [
            (t, a["reason"], a["proposed"], a["kept"], a["started"],
             a["preempted"], a["unplaced"], a["queue_length"], a["free_gpus"])
            for t, a in events.seen
        ]

        golden = json.loads(GOLDEN.read_text())
        golden_decisions = golden.pop("decisions")
        decisions = [[_hex(v) for v in d.to_dict().values()] for d in log]
        assert {"count": len(decisions), "sha256": _digest(decisions)} == (
            golden_decisions
        )
        assert _monitor_record(monitor, [s.job_id for s in specs]) == golden
        assert monitor.fault_count() == len(golden["faults"]) > 0


class TestTracerSubscribe:
    def test_subscriber_needs_a_hook(self):
        with pytest.raises(TypeError):
            Tracer().subscribe(object())

    def test_events_and_points_fan_out_in_order(self):
        tracer = Tracer()
        calls = []

        class Recorder:
            def __init__(self, tag):
                self.tag = tag

            def on_event(self, name, sim_time, args):
                calls.append((self.tag, "event", name, sim_time, args))

            def on_inspect(self, point, sim_time, state):
                calls.append((self.tag, "inspect", point, sim_time, state))

        tracer.subscribe(Recorder("a"))
        tracer.subscribe(Recorder("b"))
        tracer.emit(EventCategory.JOB, "job.arrival", 1.0, job=7)
        tracer.inspect("sim.cluster", 2.0, cluster="c")
        assert calls == [
            ("a", "event", "job.arrival", 1.0, {"job": 7}),
            ("b", "event", "job.arrival", 1.0, {"job": 7}),
            ("a", "inspect", "sim.cluster", 2.0, {"cluster": "c"}),
            ("b", "inspect", "sim.cluster", 2.0, {"cluster": "c"}),
        ]
        assert len(tracer) == 1

    def test_one_hook_is_enough(self):
        tracer = Tracer()
        log = DecisionLog()
        tracer.subscribe(log)
        tracer.inspect("sim.cluster", 0.0, cluster=None)
        tracer.emit(
            EventCategory.SCHED, "sched.decision", 3.0, reason="tick",
            proposed=2, kept=1, started=1, preempted=0, unplaced=0,
            queue_length=4, free_gpus=0,
        )
        assert [d.to_dict() for d in log] == [{
            "time": 3.0, "reason": "tick", "proposed_groups": 2, "kept": 1,
            "started": 1, "preempted": 0, "unplaced": 0, "queue_length": 4,
            "free_gpus": 0,
        }]

    def test_disabled_tracer_feeds_nobody(self):
        tracer = Tracer(enabled=False)
        log, monitor = DecisionLog(), WorkerMonitor()
        tracer.subscribe(log)
        tracer.subscribe(monitor)
        trace = generate_trace("1", num_jobs=10, seed=0)
        specs = [s for s in build_jobs(trace, seed=0) if s.num_gpus <= 8]
        ClusterSimulator(
            make_scheduler("muri-s", tracer=tracer),
            cluster=Cluster(2, 4),
            tracer=tracer,
        ).run(specs, trace.name)
        assert len(log) == 0
        assert monitor.machine_ids() == []
