"""Tests for trace records and trace transformations."""

import pytest

from repro.trace.records import Trace, TraceRecord


def make_trace():
    return Trace.from_records(
        "t",
        [
            TraceRecord(job_id=0, submit_time=100.0, duration=50.0, num_gpus=1),
            TraceRecord(job_id=1, submit_time=0.0, duration=200.0, num_gpus=4),
            TraceRecord(job_id=2, submit_time=50.0, duration=100.0, num_gpus=2),
        ],
    )


class TestTraceRecord:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceRecord(0, -1.0, 10.0, 1)
        with pytest.raises(ValueError):
            TraceRecord(0, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            TraceRecord(0, 0.0, 10.0, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_rejected(self, bad):
        with pytest.raises(ValueError):
            TraceRecord(0, bad, 10.0, 1)
        with pytest.raises(ValueError):
            TraceRecord(0, 0.0, bad, 1)

    def test_model_optional(self):
        assert TraceRecord(0, 0.0, 1.0, 1).model is None
        assert TraceRecord(0, 0.0, 1.0, 1, model="Bert").model == "Bert"


class TestTraceBasics:
    def test_sorted_by_submission(self):
        trace = make_trace()
        assert [r.job_id for r in trace] == [1, 2, 0]

    def test_len_and_getitem(self):
        trace = make_trace()
        assert len(trace) == 3
        assert trace[0].job_id == 1

    def test_total_gpu_seconds(self):
        assert make_trace().total_gpu_seconds == pytest.approx(
            50 * 1 + 200 * 4 + 100 * 2
        )

    def test_makespan_lower_bound(self):
        # Last solo completion: job 0 at 150, job 1 at 200, job 2 at 150.
        assert make_trace().makespan_lower_bound == pytest.approx(200.0)

    def test_load_factor(self):
        trace = make_trace()
        assert trace.load_factor(total_gpus=10) == pytest.approx(
            1050.0 / (100.0 * 10)
        )


class TestTransformations:
    def test_at_time_zero(self):
        prime = make_trace().at_time_zero()
        assert all(r.submit_time == 0.0 for r in prime)
        assert prime.name == "t-prime"
        assert len(prime) == 3

    def test_busiest_interval(self):
        records = [
            TraceRecord(i, float(t), 10.0, 1)
            for i, t in enumerate([0, 100, 101, 102, 500])
        ]
        trace = Trace.from_records("t", records)
        window = trace.busiest_interval(3)
        assert len(window) == 3
        # Densest 3-job window is 100..102, rebased to zero.
        assert [r.submit_time for r in window] == [0.0, 1.0, 2.0]

    def test_busiest_interval_whole_trace(self):
        trace = make_trace()
        assert trace.busiest_interval(10) is trace

    def test_busiest_interval_invalid(self):
        with pytest.raises(ValueError):
            make_trace().busiest_interval(0)

    def test_head(self):
        head = make_trace().head(2)
        assert [r.job_id for r in head] == [1, 2]

    @pytest.mark.parametrize("num_jobs", (0, -1))
    def test_head_invalid(self, num_jobs):
        with pytest.raises(ValueError):
            make_trace().head(num_jobs)

    def test_scaled_durations(self):
        scaled = make_trace().scaled_durations(2.0)
        assert scaled.total_gpu_seconds == pytest.approx(
            2 * make_trace().total_gpu_seconds
        )
        with pytest.raises(ValueError):
            make_trace().scaled_durations(0.0)


class TestPersistence:
    def test_csv_roundtrip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        loaded = Trace.from_csv(path, name="t")
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert a == b

    def test_csv_keeps_models(self, tmp_path):
        trace = Trace.from_records(
            "t", [TraceRecord(0, 0.0, 1.0, 1, model="GPT-2")]
        )
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        assert Trace.from_csv(path)[0].model == "GPT-2"

    def test_json_roundtrip(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "trace.json"
        trace.to_json(path)
        loaded = Trace.from_json(path)
        assert loaded.name == trace.name
        assert tuple(loaded) == tuple(trace)
