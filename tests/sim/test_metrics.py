"""Tests for simulation metrics."""

import json

import pytest

from repro.jobs.resources import Resource
from repro.sim.metrics import (
    SimulationResult,
    TimePoint,
    percentile,
)


class TestPercentile:
    def test_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_value(self):
        assert percentile([42.0], 99) == 42.0

    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 50) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 9.0, 3.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_unsorted_input(self):
        assert percentile([9.0, 1.0, 5.0], 50) == 5.0

    def test_q0_and_q100_are_min_and_max(self):
        values = [7.0, 2.0, 2.0, 11.0]
        assert percentile(values, 0) == 2.0
        assert percentile(values, 100) == 11.0

    def test_presorted_skips_sorting(self):
        values = [1.0, 3.0, 5.0, 9.0]
        for q in (0, 25, 50, 75, 100):
            assert percentile(values, q, presorted=True) == percentile(
                sorted(values), q
            )

    def test_presorted_trusts_caller(self):
        # With presorted=True the input is used as-is; an unsorted list
        # gives a different (wrong) answer, proving no re-sort happens.
        assert percentile([9.0, 1.0], 100, presorted=True) == 1.0


def make_result():
    result = SimulationResult(scheduler_name="X", trace_name="t")
    result.jcts = {0: 100.0, 1: 200.0, 2: 600.0}
    result.finish_times = {0: 150.0, 1: 260.0, 2: 660.0}
    result.submit_times = {0: 50.0, 1: 60.0, 2: 60.0}
    result.timeseries = [
        TimePoint(0.0, 10.0, 4, 2, 0.5, (0.1, 0.2, 0.3, 0.4)),
        TimePoint(10.0, 30.0, 2, 4, 0.25, (0.2, 0.4, 0.6, 0.8)),
    ]
    return result


class TestSimulationResult:
    def test_avg_jct(self):
        assert make_result().avg_jct == pytest.approx(300.0)

    def test_avg_jct_requires_jobs(self):
        with pytest.raises(ValueError):
            SimulationResult("X", "t").avg_jct

    def test_tail_jct(self):
        assert make_result().tail_jct(100) == 600.0

    def test_makespan(self):
        assert make_result().makespan == 660.0

    def test_time_weighted_queue_length(self):
        # (4*10 + 2*30) / 40 = 2.5
        assert make_result().avg_queue_length == pytest.approx(2.5)

    def test_time_weighted_blocking(self):
        # (0.5*10 + 0.25*30) / 40 = 0.3125
        assert make_result().avg_blocking_index == pytest.approx(0.3125)

    def test_avg_utilization(self):
        util = make_result().avg_utilization()
        assert util[0] == pytest.approx((0.1 * 10 + 0.2 * 30) / 40)
        assert util[3] == pytest.approx((0.4 * 10 + 0.8 * 30) / 40)

    def test_utilization_of(self):
        result = make_result()
        assert result.utilization_of(Resource.GPU) == pytest.approx(
            (0.3 * 10 + 0.6 * 30) / 40
        )

    def test_empty_timeseries_averages(self):
        result = SimulationResult("X", "t")
        assert result.avg_queue_length == 0.0

    def test_summary(self):
        summary = make_result().summary()
        assert summary.num_jobs == 3
        assert summary.avg_jct == pytest.approx(300.0)
        assert summary.makespan == 660.0

    def test_speedup_over(self):
        fast, slow = make_result(), make_result()
        slow.jcts = {k: v * 2 for k, v in slow.jcts.items()}
        slow.finish_times = {k: v * 3 for k, v in slow.finish_times.items()}
        speedups = fast.speedup_over(slow)
        assert speedups["avg_jct"] == pytest.approx(2.0)
        assert speedups["makespan"] == pytest.approx(3.0)
        assert speedups["p99_jct"] == pytest.approx(2.0)


class TestSerialization:
    def test_round_trip(self):
        original = make_result()
        original.total_preemptions = 4
        original.total_restart_time = 12.5
        original.wall_clock = 0.75
        restored = SimulationResult.from_dict(original.to_dict())
        assert restored.scheduler_name == original.scheduler_name
        assert restored.trace_name == original.trace_name
        assert restored.jcts == original.jcts
        assert restored.finish_times == original.finish_times
        assert restored.submit_times == original.submit_times
        assert restored.total_preemptions == 4
        assert restored.total_restart_time == 12.5
        assert restored.wall_clock == 0.75
        assert restored.timeseries == original.timeseries

    def test_payload_is_json_compatible(self):
        payload = make_result().to_dict()
        assert payload["format_version"] == SimulationResult.FORMAT_VERSION
        # Job-id keys are strings, as JSON object keys must be.
        assert all(isinstance(k, str) for k in payload["jcts"])
        json.dumps(payload)

    def test_unknown_version_rejected(self):
        payload = make_result().to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            SimulationResult.from_dict(payload)

    def test_missing_version_rejected(self):
        payload = make_result().to_dict()
        del payload["format_version"]
        with pytest.raises(ValueError):
            SimulationResult.from_dict(payload)


    @pytest.mark.parametrize("change, message", [
        (lambda p: [1], "payload must be a JSON object"),
        (lambda p: {k: v for k, v in p.items() if k != "jcts"},
         "lacks field 'jcts'"),
        (lambda p: {**p, "trace_name": 3}, "field 'trace_name' has type int"),
        (lambda p: {**p, "jcts": [1.0]}, "field 'jcts' has type list"),
        (lambda p: {**p, "timeseries": [1]}, "field 'timeseries'"),
        (lambda p: {**p, "gpus_by_type": []}, "field 'gpus_by_type'"),
    ])
    def test_wrong_shape_names_the_field(self, change, message):
        payload = change(make_result().to_dict())
        with pytest.raises(ValueError, match=message):
            SimulationResult.from_dict(payload)


class TestUtilizationByType:
    def make_typed_result(self):
        result = make_result()
        # Makespan is 660.0 (latest finish time).
        result.gpus_by_type = {"k80": 8, "a100": 4}
        result.gpu_seconds_by_type = {"k80": 2640.0, "a100": 1320.0}
        return result

    def test_per_generation_ratio(self):
        utilization = self.make_typed_result().utilization_by_type()
        assert utilization["k80"] == pytest.approx(2640.0 / (8 * 660.0))
        assert utilization["a100"] == pytest.approx(1320.0 / (4 * 660.0))

    def test_untyped_result_reports_nothing(self):
        assert make_result().utilization_by_type() == {}

    def test_generation_with_no_seconds_reads_zero(self):
        result = self.make_typed_result()
        result.gpu_seconds_by_type = {"k80": 2640.0}
        assert result.utilization_by_type()["a100"] == 0.0

    def test_no_finished_jobs_reports_nothing(self):
        result = SimulationResult(scheduler_name="X", trace_name="t")
        result.gpus_by_type = {"k80": 8}
        assert result.utilization_by_type() == {}

    def test_occupancy_round_trips(self):
        original = self.make_typed_result()
        payload = original.to_dict()
        json.dumps(payload)
        restored = SimulationResult.from_dict(payload)
        assert restored.gpus_by_type == original.gpus_by_type
        assert restored.gpu_seconds_by_type == original.gpu_seconds_by_type
        assert restored.utilization_by_type() == (
            original.utilization_by_type()
        )

    def test_untyped_payload_is_byte_stable(self):
        # Pre-hetero payloads must not grow keys they never had.
        payload = make_result().to_dict()
        assert "gpu_seconds_by_type" not in payload
        assert "gpus_by_type" not in payload


class TestJctCdf:
    def test_endpoints(self):
        result = make_result()
        cdf = result.jct_cdf(points=5)
        assert cdf[0] == (100.0, 0.0)
        assert cdf[-1] == (600.0, 1.0)

    def test_monotone(self):
        cdf = make_result().jct_cdf(points=11)
        jcts = [j for j, _f in cdf]
        fractions = [f for _j, f in cdf]
        assert jcts == sorted(jcts)
        assert fractions == sorted(fractions)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_result().jct_cdf(points=1)
        empty = SimulationResult("X", "t")
        with pytest.raises(ValueError):
            empty.jct_cdf()


class _LazyAscending:
    """A presorted sample of ``n`` ascending floats, never materialized.

    Stands in for the large JCT arrays aggregation pipelines hand to
    :func:`percentile`: big enough to expose float-rank rounding
    without allocating tens of millions of floats.
    """

    def __init__(self, n):
        self._n = n

    def __len__(self):
        return self._n

    def __getitem__(self, index):
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(index)
        return float(index)


class TestPercentileRankClamp:
    # Regression: with a reduced-precision q (numpy float32, the dtype
    # aggregation pipelines produce), `last * q / 100.0` promotes to
    # float32 under NEP 50 and rounds past the last index, so the
    # ceil'd high index raised IndexError.

    def test_float32_q_near_100(self):
        numpy = pytest.importorskip("numpy")
        values = _LazyAscending(16_777_236)
        q = numpy.float32(99.99999237060547)  # largest float32 < 100
        assert percentile(values, q, presorted=True) == float(len(values) - 1)

    def test_float32_q_exactly_100(self):
        numpy = pytest.importorskip("numpy")
        values = _LazyAscending(16_777_220)
        q = numpy.float32(100.0)
        assert percentile(values, q, presorted=True) == float(len(values) - 1)

    def test_plain_float_boundaries_unchanged(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 0.0) == 1.0
