"""Deterministic micro-scenarios for the cluster simulator."""

import pytest

from repro.cluster.cluster import Cluster
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.schedulers.antman import AntManScheduler
from repro.schedulers.classic import FifoScheduler, SrtfScheduler
from repro.core.muri import MuriScheduler
from repro.sim.contention import IDEAL_CONTENTION
from repro.sim.faults import FaultInjector
from repro.sim.simulator import ClusterSimulator, SimulationError
from repro.trace.records import Trace, TraceRecord
from repro.trace.workload import build_jobs

UNIT = StageProfile((0.25, 0.25, 0.25, 0.25))  # 1 second per iteration
CPU2 = StageProfile((0.0, 2.0, 1.0, 0.0))      # 3 s/iter, CPU-heavy
GPU2 = StageProfile((0.0, 1.0, 2.0, 0.0))      # 3 s/iter, GPU-heavy


def spec(iters, gpus=1, submit=0.0, profile=UNIT, name=None):
    return JobSpec(profile=profile, num_gpus=gpus, submit_time=submit,
                   num_iterations=iters, name=name)


def ideal_sim(scheduler, cluster=None, **kwargs):
    defaults = dict(
        restart_penalty=0.0,
        contention=IDEAL_CONTENTION,
        uncoordinated_penalty=1.0,
    )
    defaults.update(kwargs)
    return ClusterSimulator(scheduler, cluster=cluster or Cluster(1, 1), **defaults)


class TestSingleJob:
    def test_exact_completion(self):
        job = spec(100)
        result = ideal_sim(FifoScheduler()).run([job])
        assert result.jcts[job.job_id] == pytest.approx(100.0)
        assert result.makespan == pytest.approx(100.0)

    def test_restart_penalty_delays_completion(self):
        job = spec(10)
        result = ideal_sim(FifoScheduler(), restart_penalty=30.0).run([job])
        assert result.jcts[job.job_id] == pytest.approx(40.0)

    def test_late_submission(self):
        job = spec(10, submit=500.0)
        result = ideal_sim(FifoScheduler()).run([job])
        assert result.finish_times[job.job_id] == pytest.approx(510.0)
        assert result.jcts[job.job_id] == pytest.approx(10.0)


class TestQueueing:
    def test_fifo_tick_boundary_start(self):
        """Without completion backfill, the queued job waits for the
        next scheduling tick (the paper's six-minute interval)."""
        a, b = spec(100, name="a"), spec(50, name="b")
        result = ideal_sim(FifoScheduler(), scheduling_interval=360.0).run([a, b])
        assert result.finish_times[a.job_id] == pytest.approx(100.0)
        # b starts at the t=360 tick.
        assert result.finish_times[b.job_id] == pytest.approx(410.0)

    def test_event_driven_backfill(self):
        a, b = spec(100), spec(50)
        result = ideal_sim(
            FifoScheduler(), backfill_on_completion=True
        ).run([a, b])
        assert result.finish_times[b.job_id] == pytest.approx(150.0)

    def test_srtf_preempts_for_shorter_job(self):
        long_job = spec(1000, name="long")
        short_job = spec(10, submit=100.0, name="short")
        result = ideal_sim(SrtfScheduler(), scheduling_interval=100.0).run(
            [long_job, short_job]
        )
        # Short preempts at the t=100 tick, runs 100-110; long resumes
        # at the t=200 tick with 900 iterations left.
        assert result.finish_times[short_job.job_id] == pytest.approx(110.0)
        assert result.finish_times[long_job.job_id] == pytest.approx(1100.0)
        assert result.total_preemptions == 1

    def test_fifo_never_preempts(self):
        long_job = spec(1000)
        short_job = spec(10, submit=50.0)
        result = ideal_sim(FifoScheduler(), scheduling_interval=100.0).run(
            [long_job, short_job]
        )
        assert result.total_preemptions == 0
        assert result.finish_times[long_job.job_id] == pytest.approx(1000.0)


class TestInterleavedGroups:
    def test_pair_runs_at_group_period(self):
        """Two complementary jobs on one GPU: T = 4 s/iter each."""
        x, y = spec(50, profile=CPU2), spec(50, profile=GPU2)
        result = ideal_sim(MuriScheduler()).run([x, y])
        assert result.finish_times[x.job_id] == pytest.approx(200.0)
        assert result.finish_times[y.job_id] == pytest.approx(200.0)
        assert result.total_preemptions == 0

    def test_survivor_speeds_up_after_member_finishes(self):
        """When the short member finishes, the survivor reverts to its
        solo period without a restart."""
        x, y = spec(10, profile=CPU2), spec(50, profile=GPU2)
        result = ideal_sim(MuriScheduler()).run([x, y])
        assert result.finish_times[x.job_id] == pytest.approx(40.0)
        # y: 10 iterations at T=4, then 40 solo iterations at 3 s.
        assert result.finish_times[y.job_id] == pytest.approx(40.0 + 40 * 3.0)
        assert result.total_preemptions == 0

    def test_contention_inflates_period(self):
        x, y = spec(50, profile=CPU2), spec(50, profile=GPU2)
        from repro.sim.contention import ContentionModel

        model = ContentionModel(factors={1: 1.0, 2: 1.5})
        result = ideal_sim(MuriScheduler(), contention=model).run([x, y])
        assert result.finish_times[x.job_id] == pytest.approx(200.0 * 1.5)

    def test_light_load_means_no_sharing(self):
        x, y = spec(50, profile=CPU2), spec(50, profile=GPU2)
        result = ideal_sim(MuriScheduler(), cluster=Cluster(1, 2)).run([x, y])
        # Two GPUs for two jobs: each runs solo at 3 s/iter.
        assert result.finish_times[x.job_id] == pytest.approx(150.0)
        assert result.finish_times[y.job_id] == pytest.approx(150.0)


class TestAntMan:
    def test_shares_only_when_full(self):
        a, b, c = spec(100), spec(100), spec(100)
        result = ideal_sim(AntManScheduler()).run([a, b, c])
        # a runs dedicated; b shares a's GPU (identity interleaving of
        # two identical uniform jobs serializes: 2 s/iter each); c waits
        # for the 2-job sharing cap.
        assert result.num_jobs == 3
        assert result.finish_times[a.job_id] >= 100.0

    def test_uncoordinated_penalty_applies(self):
        x, y = spec(50, profile=CPU2), spec(50, profile=GPU2)
        fast = ideal_sim(AntManScheduler()).run([x, y])
        slow = ideal_sim(AntManScheduler(), uncoordinated_penalty=2.0).run(
            [JobSpec(profile=CPU2, num_iterations=50),
             JobSpec(profile=GPU2, num_iterations=50)]
        )
        assert slow.makespan > fast.makespan


class TestCrossMachine:
    def test_spanning_job_pays_penalty(self):
        from repro.sim.contention import ContentionModel

        model = ContentionModel(factors={1: 1.0}, cross_machine_penalty=1.5)
        wide = spec(100, gpus=12)
        compact_cluster = Cluster(1, 16)
        spread_cluster = Cluster(2, 8)
        on_one = ideal_sim(FifoScheduler(), cluster=compact_cluster,
                           contention=model).run([wide])
        wide2 = spec(100, gpus=12)
        on_two = ideal_sim(FifoScheduler(), cluster=spread_cluster,
                           contention=model).run([wide2])
        assert on_two.makespan == pytest.approx(on_one.makespan * 1.5)


class TestFaults:
    def test_faulted_job_still_completes(self):
        job = spec(300)
        injector = FaultInjector(mean_time_between_faults=80.0, seed=3)
        result = ideal_sim(
            FifoScheduler(), fault_injector=injector, scheduling_interval=50.0
        ).run([job])
        assert result.num_jobs == 1
        assert result.jcts[job.job_id] > 300.0  # faults cost time

    def test_progress_loss(self):
        job_a = spec(300)
        lossless = ideal_sim(
            FifoScheduler(),
            fault_injector=FaultInjector(mean_time_between_faults=80.0, seed=3),
            scheduling_interval=50.0,
        ).run([job_a])
        job_b = spec(300)
        lossy = ideal_sim(
            FifoScheduler(),
            fault_injector=FaultInjector(
                mean_time_between_faults=80.0, seed=3, progress_loss=0.5
            ),
            scheduling_interval=50.0,
        ).run([job_b])
        assert lossy.jcts[job_b.job_id] >= lossless.jcts[job_a.job_id]


class TestValidation:
    def test_oversized_job_rejected(self):
        with pytest.raises(SimulationError):
            ideal_sim(FifoScheduler()).run([spec(10, gpus=2)])

    def test_empty_workload_rejected(self):
        with pytest.raises(SimulationError):
            ideal_sim(FifoScheduler()).run([])

    def test_duplicate_job_ids_rejected(self):
        # Two records share job id 0: a dict keyed by id would keep one
        # of them and report 2 JCTs for 3 specs.
        trace = Trace(name="dup", records=(
            TraceRecord(0, 0.0, 60.0, 1),
            TraceRecord(0, 5.0, 60.0, 1),
            TraceRecord(1, 9.0, 60.0, 1),
        ))
        specs = build_jobs(trace, seed=0)
        simulator = ClusterSimulator(MuriScheduler(), cluster=Cluster(1, 8))
        with pytest.raises(SimulationError, match="job id 0 already"):
            simulator.run(specs)
        with pytest.raises(SimulationError, match="job id 0 already"):
            simulator.begin(specs)
        result = simulator.run(specs[1:])
        assert len(result.jcts) == 2

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ClusterSimulator(FifoScheduler(), scheduling_interval=0.0)
        with pytest.raises(ValueError):
            ClusterSimulator(FifoScheduler(), restart_penalty=-1.0)
        with pytest.raises(ValueError):
            ClusterSimulator(FifoScheduler(), uncoordinated_penalty=0.9)


class TestBookkeeping:
    def test_timeseries_spans_cover_run(self):
        jobs = [spec(100), spec(80, submit=30.0)]
        result = ideal_sim(FifoScheduler(), cluster=Cluster(1, 2)).run(jobs)
        total_span = sum(p.span for p in result.timeseries)
        assert total_span == pytest.approx(result.makespan, rel=0.01)

    def test_utilization_bounded(self):
        jobs = [spec(60, profile=CPU2), spec(60, profile=GPU2), spec(60)]
        result = ideal_sim(MuriScheduler()).run(jobs)
        for point in result.timeseries:
            for value in point.utilization:
                assert 0.0 <= value <= 1.0

    def test_submit_times_recorded(self):
        jobs = [spec(10, submit=5.0), spec(10, submit=9.0)]
        result = ideal_sim(FifoScheduler(), cluster=Cluster(1, 2)).run(jobs)
        assert result.submit_times[jobs[0].job_id] == 5.0
        assert result.submit_times[jobs[1].job_id] == 9.0

    def test_wall_clock_positive(self):
        result = ideal_sim(FifoScheduler()).run([spec(10)])
        assert result.wall_clock >= 0.0


class TestArrivalRescheduling:
    def test_arrival_waits_for_tick_by_default(self):
        early = spec(50)
        late = spec(10, submit=100.0)
        result = ideal_sim(
            SrtfScheduler(), cluster=Cluster(1, 2), scheduling_interval=360.0
        ).run([early, late])
        # The late job arrives at t=100 but starts at the t=360 tick.
        assert result.finish_times[late.job_id] == pytest.approx(370.0)

    def test_arrival_triggers_reschedule_when_enabled(self):
        early = spec(50)
        late = spec(10, submit=100.0)
        result = ideal_sim(
            SrtfScheduler(),
            cluster=Cluster(1, 2),
            scheduling_interval=360.0,
            reschedule_on_arrival=True,
        ).run([early, late])
        assert result.finish_times[late.job_id] == pytest.approx(110.0)


class TestLifecycleApi:
    """The begin/step/finalize decomposition behind repro.service."""

    def test_manual_loop_matches_run(self):
        specs = [spec(100), spec(50, submit=5.0), spec(25, submit=40.0)]
        batch = ideal_sim(FifoScheduler()).run(specs)

        simulator = ideal_sim(FifoScheduler())
        state = simulator.begin(specs)
        while state.unfinished:
            simulator.step(state)
        manual = simulator.finalize(state)

        assert manual.jcts == batch.jcts
        assert manual.finish_times == batch.finish_times

    def test_begin_requires_jobs_unless_allowed(self):
        simulator = ideal_sim(FifoScheduler())
        with pytest.raises(SimulationError):
            simulator.begin([])
        state = simulator.begin([], allow_empty=True)
        assert state.unfinished == 0

    def test_inject_mid_run(self):
        simulator = ideal_sim(FifoScheduler(), backfill_on_completion=True)
        state = simulator.begin([spec(10)])
        simulator.step(state)  # first job done at t=10
        late = simulator.inject(state, spec(10, submit=0.0))
        while state.unfinished:
            simulator.step(state)
        result = simulator.finalize(state)
        # The late job arrives at the current clock, never in the past.
        assert result.finish_times[late.job_id] >= 10.0

    def test_inject_after_empty_begin_still_rejects_duplicates(self):
        simulator = ideal_sim(FifoScheduler())
        state = simulator.begin([], allow_empty=True)
        first = simulator.inject(state, spec(10))
        with pytest.raises(SimulationError, match="already submitted"):
            simulator.inject(state, first.spec)
        while state.unfinished:
            simulator.step(state)
        assert list(simulator.finalize(state).jcts) == [first.job_id]

    def test_inject_oversized_rejected(self):
        simulator = ideal_sim(FifoScheduler())
        state = simulator.begin([spec(10)])
        with pytest.raises(SimulationError):
            simulator.inject(state, spec(10, gpus=64))

    def test_inject_after_finalize_rejected(self):
        simulator = ideal_sim(FifoScheduler())
        state = simulator.begin([spec(1)])
        while state.unfinished:
            simulator.step(state)
        simulator.finalize(state)
        with pytest.raises(SimulationError):
            simulator.inject(state, spec(1))

    def test_cancel_pending_job_before_arrival(self):
        simulator = ideal_sim(FifoScheduler())
        a, b = spec(10), spec(10, submit=500.0)
        state = simulator.begin([a, b])
        assert simulator.cancel(state, b.job_id) is True
        while state.unfinished:
            simulator.step(state)
        result = simulator.finalize(state)
        assert b.job_id not in result.jcts
        assert result.jcts[a.job_id] == pytest.approx(10.0)

    def test_cancel_unknown_or_terminal_is_false(self):
        simulator = ideal_sim(FifoScheduler())
        a = spec(1)
        state = simulator.begin([a])
        assert simulator.cancel(state, 9999) is False
        while state.unfinished:
            simulator.step(state)
        assert simulator.cancel(state, a.job_id) is False

    def test_finalize_is_idempotent(self):
        simulator = ideal_sim(FifoScheduler())
        state = simulator.begin([spec(1)])
        while state.unfinished:
            simulator.step(state)
        assert simulator.finalize(state) is simulator.finalize(state)

    def test_step_after_budget_exhaustion_raises(self):
        simulator = ideal_sim(FifoScheduler(), max_steps=1)
        state = simulator.begin([spec(10), spec(10, submit=100.0)])
        simulator.step(state)
        with pytest.raises(SimulationError):
            simulator.step(state)
