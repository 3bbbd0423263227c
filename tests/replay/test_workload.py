"""The constant-load synthetic trace behind the replay benchmarks."""

import random

import pytest

from repro.replay.workload import synthetic_trace
from repro.trace.records import Trace, TraceRecord


def two_pass_trace(num_jobs, seed):
    """The trace built the straightforward way: draw records, sort
    them, then renumber them into a second set of records."""
    window = num_jobs / 5_000.0 * 86_400.0
    rng = random.Random(seed)
    choices = [1, 1, 1, 2, 2, 4, 8]
    records = [
        TraceRecord(
            job_id=index,
            submit_time=round(rng.uniform(0.0, window), 1),
            duration=round(rng.uniform(60.0, 600.0), 1),
            num_gpus=rng.choice(choices),
        )
        for index in range(num_jobs)
    ]
    records.sort(key=lambda record: (record.submit_time, record.job_id))
    return Trace(name=f"replay-{num_jobs}", records=tuple(
        TraceRecord(index, record.submit_time, record.duration,
                    record.num_gpus)
        for index, record in enumerate(records)
    ))


class TestSyntheticTrace:
    def test_deterministic_per_seed(self):
        a = synthetic_trace(200, seed=4)
        b = synthetic_trace(200, seed=4)
        c = synthetic_trace(200, seed=5)
        assert a.records == b.records
        assert a.records != c.records

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_two_pass_reference(self, seed):
        # 2,000 jobs in a 0.4-day window collide on submit times, so
        # the tie-break by draw order is exercised.
        assert synthetic_trace(2_000, seed=seed) == two_pass_trace(
            2_000, seed
        )

    def test_records_sorted_and_renumbered(self):
        trace = synthetic_trace(300, seed=1)
        submits = [r.submit_time for r in trace.records]
        assert submits == sorted(submits)
        assert [r.job_id for r in trace.records] == list(range(300))

    def test_constant_load_window_scales_with_jobs(self):
        small = synthetic_trace(1_000, seed=0)
        large = synthetic_trace(4_000, seed=0)
        small_window = max(r.submit_time for r in small.records)
        large_window = max(r.submit_time for r in large.records)
        # 4x the jobs spread over ~4x the window: offered load stays
        # flat, which is what makes replay wall time linear in jobs.
        assert large_window == pytest.approx(4 * small_window, rel=0.05)

    def test_durations_and_gpus_within_bounds(self):
        trace = synthetic_trace(
            500, seed=2, duration_range=(10.0, 50.0), gpu_choices=(1, 2)
        )
        for record in trace.records:
            assert 10.0 <= record.duration <= 50.0
            assert record.num_gpus in (1, 2)

    def test_default_name_embeds_size(self):
        assert synthetic_trace(42).name == "replay-42"
        assert synthetic_trace(5, name="x").name == "x"

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_trace(0)
        with pytest.raises(ValueError):
            synthetic_trace(10, jobs_per_day=0.0)
        with pytest.raises(ValueError):
            synthetic_trace(10, duration_range=(0.0, 10.0))
        with pytest.raises(ValueError):
            synthetic_trace(10, duration_range=(50.0, 10.0))
