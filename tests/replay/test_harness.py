"""The batch event-driven replay harness.

The load-bearing test is the differential: at
``batch_step_seconds == 0`` the harness must produce a
:class:`~repro.sim.metrics.SimulationResult` *bit-identical* to
``ClusterSimulator.run()`` on the same workload — the whole
serialized payload, not just summary statistics.  That identity is
what lets every ``run()``-based oracle and experiment transfer to the
replay path unchanged.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.replay import ReplayStats, replay_trace, synthetic_trace
from repro.schedulers.registry import make_scheduler
from repro.sim.simulator import ClusterSimulator, SimulationError
from repro.trace.workload import build_jobs
from repro.verify import result_mismatches


def workload(num_jobs=500, seed=0):
    return build_jobs(synthetic_trace(num_jobs, seed=seed), seed=seed)


def simulator(scheduler_name="fifo", machines=32):
    return ClusterSimulator(
        make_scheduler(scheduler_name), cluster=Cluster(machines, 8)
    )


class TestContinuousModeIdentity:
    @pytest.mark.parametrize("scheduler", ["fifo", "muri-s", "srtf"])
    def test_batch_zero_identical_to_run(self, scheduler):
        specs = workload(num_jobs=500)
        reference = simulator(scheduler).run(list(specs), "replay-500")
        replayed, stats = replay_trace(
            simulator(scheduler), list(specs),
            trace_name="replay-500", batch_step_seconds=0.0,
        )
        # The full serialized result: JCTs, finish times, preemption
        # and restart accounting, the cluster time series — everything.
        assert result_mismatches(replayed, reference) == {}
        assert stats.finished_jobs == len(specs)

    def test_identity_includes_fault_schedules(self):
        from repro.sim.faults import FaultInjector

        specs = workload(num_jobs=120)

        def build():
            return ClusterSimulator(
                make_scheduler("fifo"),
                cluster=Cluster(16, 8),
                fault_injector=FaultInjector(
                    mean_time_between_faults=900.0,
                    seed=3,
                    progress_loss=0.5,
                ),
            )

        reference = build().run(list(specs), "faulty")
        replayed, _ = replay_trace(
            build(), list(specs), trace_name="faulty",
            batch_step_seconds=0.0,
        )
        assert result_mismatches(replayed, reference) == {}


class TestBatchAdmission:
    def test_batching_delays_but_finishes_everything(self):
        specs = workload(num_jobs=200)
        continuous, _ = replay_trace(
            simulator(), list(specs), batch_step_seconds=0.0
        )
        batched, stats = replay_trace(
            simulator(), list(specs), batch_step_seconds=600.0
        )
        assert len(batched.jcts) == len(specs)
        assert stats.finished_jobs == len(specs)
        # Quantized admission can only delay completion.
        assert batched.makespan >= continuous.makespan
        assert batched.avg_jct >= continuous.avg_jct

    def test_coarser_batching_means_fewer_admission_rounds(self):
        from repro.observe.tracer import Tracer

        def admission_rounds(batch_step):
            tracer = Tracer()
            sim = ClusterSimulator(
                make_scheduler("fifo"),
                cluster=Cluster(32, 8),
                tracer=tracer,
            )
            replay_trace(
                sim, workload(num_jobs=200),
                batch_step_seconds=batch_step,
            )
            # ``replay.round`` fires only when a round admits jobs, so
            # its count is the number of non-empty admission rounds
            # (``stats.rounds`` counts harness loop iterations, which
            # track simulator steps and do not shrink with batching).
            return len(tracer.events_named("replay.round"))

        fine = admission_rounds(300.0)
        coarse = admission_rounds(3600.0)
        assert 0 < coarse <= fine

    def test_deterministic_per_seed(self):
        specs = workload(num_jobs=150)
        first, _ = replay_trace(
            simulator(), list(specs), batch_step_seconds=300.0
        )
        second, _ = replay_trace(
            simulator(), list(specs), batch_step_seconds=300.0
        )
        assert result_mismatches(first, second) == {}


class TestReplayStats:
    def test_stats_are_consistent(self):
        specs = workload(num_jobs=100)
        _, stats = replay_trace(
            simulator(), list(specs), batch_step_seconds=300.0
        )
        assert isinstance(stats, ReplayStats)
        assert stats.injected_jobs == len(specs)
        assert stats.finished_jobs == len(specs)
        assert stats.sim_steps > 0
        assert stats.rounds > 0
        assert stats.wall_clock > 0.0
        assert 0.0 <= stats.step_seconds_p50 <= stats.step_seconds_p99

    def test_to_dict_round_trips_through_json(self):
        import json

        specs = workload(num_jobs=50)
        _, stats = replay_trace(simulator(), list(specs))
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["injected_jobs"] == 50
        assert "_step_samples" not in payload

    def test_finalize_with_no_samples_keeps_zero_defaults(self):
        # A replay whose rounds all fast-forwarded drove no simulator
        # step; the percentile fold must not raise on the empty set.
        stats = ReplayStats()
        stats.finalize_step_stats()
        assert stats.step_seconds_p50 == 0.0
        assert stats.step_seconds_p99 == 0.0

    def test_finalize_with_one_sample_is_its_own_tail(self):
        stats = ReplayStats()
        stats._step_samples.append(0.25)
        stats.finalize_step_stats()
        assert stats.step_seconds_p50 == 0.25
        assert stats.step_seconds_p99 == 0.25

    def test_finalize_is_idempotent(self):
        stats = ReplayStats()
        stats._step_samples.extend([0.1, 0.2, 0.3, 0.4])
        stats.finalize_step_stats()
        first = (stats.step_seconds_p50, stats.step_seconds_p99)
        stats.finalize_step_stats()
        assert (stats.step_seconds_p50, stats.step_seconds_p99) == first


class TestValidation:
    def test_negative_batch_rejected(self):
        with pytest.raises(ValueError, match="batch_step_seconds"):
            replay_trace(
                simulator(), workload(num_jobs=5),
                batch_step_seconds=-1.0,
            )

    def test_empty_workload_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            replay_trace(simulator(), [])

    def test_round_valve_trips(self):
        specs = workload(num_jobs=20)
        with pytest.raises(SimulationError, match="round"):
            replay_trace(
                simulator(), list(specs),
                batch_step_seconds=300.0, max_rounds=1,
            )
