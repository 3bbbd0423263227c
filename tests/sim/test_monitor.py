"""Tests for the worker monitor."""

import pytest

from repro.cluster.cluster import Cluster
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.observe import Tracer
from repro.schedulers.classic import FifoScheduler
from repro.sim.faults import FaultInjector
from repro.sim.monitor import WorkerMonitor
from repro.sim.simulator import ClusterSimulator

UNIT = StageProfile((0.25, 0.25, 0.25, 0.25))


def subscribed(monitor):
    """A tracer that feeds ``monitor``."""
    tracer = Tracer()
    tracer.subscribe(monitor)
    return tracer


class TestMonitorUnit:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkerMonitor(progress_interval=0.0)

    def test_machine_samples_and_means(self):
        monitor = WorkerMonitor()
        monitor.record_machine(0.0, 10.0, 0, 4, (0.2, 0.0, 0.8, 0.0))
        monitor.record_machine(10.0, 30.0, 0, 4, (0.6, 0.0, 0.4, 0.0))
        assert monitor.machine_ids() == [0]
        util = monitor.machine_utilization(0)
        assert util[0] == pytest.approx((0.2 * 10 + 0.6 * 30) / 40)
        assert util[2] == pytest.approx((0.8 * 10 + 0.4 * 30) / 40)

    def test_unknown_machine_is_zero(self):
        assert WorkerMonitor().machine_utilization(7) == (0.0,) * 4

    def test_busiest_machine(self):
        monitor = WorkerMonitor()
        monitor.record_machine(0.0, 10.0, 0, 1, (0.0, 0.0, 0.2, 0.0))
        monitor.record_machine(0.0, 10.0, 1, 1, (0.0, 0.0, 0.9, 0.0))
        assert monitor.busiest_machine() == 1

    def test_busiest_machine_empty(self):
        assert WorkerMonitor().busiest_machine() is None

    def test_progress_rate_limited(self):
        monitor = WorkerMonitor(progress_interval=100.0)
        monitor.report_progress(0.0, 1, 50.0, 0.0)
        monitor.report_progress(10.0, 1, 45.0, 10.0)  # suppressed
        monitor.report_progress(150.0, 1, 20.0, 150.0)
        assert len(monitor.progress_of(1)) == 2

    def test_fault_reports(self):
        monitor = WorkerMonitor()
        monitor.report_fault(5.0, 3)
        monitor.report_fault(9.0, 3)
        monitor.report_fault(9.0, 4)
        assert monitor.fault_count() == 3
        assert monitor.fault_count(3) == 2
        assert [f.job_id for f in monitor.faults()] == [3, 3, 4]


class TestMonitorInSimulation:
    def test_receives_machine_samples(self):
        monitor = WorkerMonitor()
        specs = [JobSpec(profile=UNIT, num_iterations=100),
                 JobSpec(profile=UNIT, num_iterations=50)]
        ClusterSimulator(
            FifoScheduler(), cluster=Cluster(2, 1), tracer=subscribed(monitor),
            restart_penalty=0.0,
        ).run(specs, "monitored")
        assert monitor.machine_ids() == [0, 1]
        # The busy machine saw real utilization.
        busiest = monitor.busiest_machine()
        assert sum(monitor.machine_utilization(busiest)) > 0.5

    def test_receives_progress_reports(self):
        monitor = WorkerMonitor(progress_interval=10.0)
        spec = JobSpec(profile=UNIT, num_iterations=500)
        ClusterSimulator(
            FifoScheduler(), cluster=Cluster(1, 1), tracer=subscribed(monitor),
            restart_penalty=0.0, scheduling_interval=50.0,
        ).run([spec], "monitored")
        reports = monitor.progress_of(spec.job_id)
        assert reports
        remaining = [r.iterations_remaining for r in reports]
        assert remaining == sorted(remaining, reverse=True)

    def test_receives_fault_reports(self):
        monitor = WorkerMonitor()
        spec = JobSpec(profile=UNIT, num_iterations=400)
        ClusterSimulator(
            FifoScheduler(),
            cluster=Cluster(1, 1),
            tracer=subscribed(monitor),
            fault_injector=FaultInjector(mean_time_between_faults=60.0, seed=2),
            scheduling_interval=50.0,
            restart_penalty=0.0,
        ).run([spec], "faulty")
        assert monitor.fault_count(spec.job_id) >= 1

    def test_idle_machines_report_zero(self):
        monitor = WorkerMonitor()
        spec = JobSpec(profile=UNIT, num_iterations=50)
        ClusterSimulator(
            FifoScheduler(), cluster=Cluster(2, 2), tracer=subscribed(monitor),
            restart_penalty=0.0,
        ).run([spec], "idle")
        # One of the two machines never ran anything.
        utils = [sum(monitor.machine_utilization(m)) for m in (0, 1)]
        assert min(utils) == 0.0
        assert max(utils) > 0.0
