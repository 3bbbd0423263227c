"""Golden-file tests of the Philly CSV ingestion adapter.

``data/philly_golden.csv`` is a committed 50-row fixture modelled on
the real Philly dump's failure modes: multi-attempt jobs, rows with a
missing job id, non-numeric GPU counts, CPU-only (zero-GPU) attempts
— both alongside GPU attempts and as a job's only attempts — open and
inverted (out-of-order) attempt windows, non-``Pass`` final statuses,
an unparseable submit time, and a sub-``min_duration`` job.  The
tests pin the *exact* skip/error accounting and the exact surviving
records, so any semantic drift in the adapter shows up as a diff
against this file.
"""

import csv
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.philly_csv import (
    CSV_FIELDS,
    IngestError,
    load_philly_csv,
    write_philly_csv,
)
from repro.trace.records import Trace, TraceRecord

GOLDEN = Path(__file__).parent / "data" / "philly_golden.csv"


class TestGoldenAccounting:
    def test_exact_skip_accounting(self):
        trace, report = load_philly_csv(GOLDEN)
        assert report.rows_read == 50
        assert report.jobs_seen == 43
        assert report.jobs_loaded == 37
        assert report.skipped == {
            "missing_field": 1,
            "bad_gpus": 1,
            "zero_gpus": 3,
            "bad_attempt_window": 2,
            "filtered_status": 2,
            "bad_submit_time": 1,
            "no_gpus": 2,
            "too_short": 1,
        }
        assert report.total_skipped == 13
        assert len(trace.records) == 37

    def test_exact_error_details_in_file_order(self):
        _, report = load_philly_csv(GOLDEN)
        assert report.errors == [
            IngestError(8, "app_05", "bad_attempt_window"),
            IngestError(10, None, "missing_field"),
            IngestError(11, "app_06", "bad_gpus"),
            IngestError(12, "app_06", "zero_gpus"),
            IngestError(13, "app_07", "bad_attempt_window"),
            IngestError(49, "app_42", "zero_gpus"),
            IngestError(51, "app_43", "zero_gpus"),
            IngestError(11, "app_06", "no_gpus"),
            IngestError(13, "app_07", "too_short"),
            IngestError(15, "app_08", "filtered_status"),
            IngestError(16, "app_09", "filtered_status"),
            IngestError(17, "app_10", "bad_submit_time"),
            IngestError(51, "app_43", "no_gpus"),
        ]

    def test_report_to_dict_is_json_friendly(self):
        import json

        _, report = load_philly_csv(GOLDEN)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["jobs_loaded"] == 37
        assert payload["skipped"]["bad_gpus"] == 1
        assert payload["skipped"]["zero_gpus"] == 3


class TestGoldenRecords:
    def test_submits_rebased_to_earliest_kept_job(self):
        trace, _ = load_philly_csv(GOLDEN)
        # app_03 (2017-10-04 23:00) is the earliest kept submission.
        first = trace.records[0]
        assert first.submit_time == 0.0
        assert first.duration == 2100.0
        assert first.num_gpus == 4  # 3 rounded up to a power of two

    def test_multi_attempt_durations_summed_and_peak_gpus(self):
        trace, _ = load_philly_csv(GOLDEN)
        # app_02: attempts of 600 + 600 + 1800 seconds, peak 8 GPUs,
        # submitted 65 minutes after the base.
        app_02 = next(
            r for r in trace.records if r.submit_time == 3900.0
        )
        assert app_02.duration == 3000.0
        assert app_02.num_gpus == 8

    def test_job_with_one_bad_attempt_still_loads(self):
        trace, _ = load_philly_csv(GOLDEN)
        # app_05: the inverted attempt is dropped, the good one kept.
        app_05 = next(
            r for r in trace.records if r.submit_time == 14400.0
        )
        assert app_05.duration == 600.0

    def test_cpu_only_attempt_dropped_but_job_survives(self):
        trace, report = load_philly_csv(GOLDEN)
        # app_42: the zero-GPU (CPU-only) attempt is dropped as
        # ``zero_gpus`` — never rounded up to 1 GPU — while the real
        # GPU attempt alone defines the job: 600 s on 2 GPUs.
        app_42 = next(r for r in trace.records if r.submit_time == 27000.0)
        assert app_42.duration == 600.0
        assert app_42.num_gpus == 2
        # app_43 is CPU-only in every attempt: each row is counted
        # ``zero_gpus`` and the job itself ends as ``no_gpus``.
        assert report.skipped["no_gpus"] == 2

    def test_trace_name_defaults_to_stem(self):
        trace, _ = load_philly_csv(GOLDEN)
        assert trace.name == "philly_golden"


class TestFilters:
    def test_vc_filter_counts_other_clusters(self):
        trace, report = load_philly_csv(GOLDEN, virtual_cluster="vc1")
        # app_03 + app_05 + app_43 (vc2), app_11 (vc3), 15 bulk vc2 jobs.
        assert report.skipped["filtered_vc"] == 19
        assert report.jobs_loaded == 19
        assert trace.name == "philly_golden-vc1"
        # The vc1 slice rebases to app_01's submission.
        assert trace.records[0].submit_time == 0.0

    def test_include_failed_keeps_non_pass_jobs(self):
        _, report = load_philly_csv(GOLDEN, include_failed=True)
        assert "filtered_status" not in report.skipped
        assert report.jobs_loaded == 39

    def test_min_duration_zero_keeps_short_jobs(self):
        _, report = load_philly_csv(GOLDEN, min_duration=0.0)
        assert "too_short" not in report.skipped
        assert report.jobs_loaded == 38

    def test_all_jobs_filtered_raises_with_accounting(self):
        with pytest.raises(ValueError, match="filtered_vc"):
            load_philly_csv(GOLDEN, virtual_cluster="no-such-vc")


class TestHeaderValidation:
    def test_missing_columns_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("job_id,vc\napp,vc1\n")
        with pytest.raises(ValueError, match="missing required columns"):
            load_philly_csv(bad)


class TestWriteRoundTrip:
    def test_roundtrip_reconstructs_integer_second_traces(self, tmp_path):
        original = Trace(name="rt", records=(
            TraceRecord(job_id=0, submit_time=0.0, duration=120.0, num_gpus=2),
            TraceRecord(job_id=1, submit_time=45.0, duration=600.0, num_gpus=8),
            TraceRecord(job_id=2, submit_time=90.0, duration=31.0, num_gpus=1),
        ))
        path = tmp_path / "rt.csv"
        assert write_philly_csv(original, path) == 3
        loaded, report = load_philly_csv(path, min_duration=0.0)
        assert report.total_skipped == 0
        assert [
            (r.submit_time, r.duration, r.num_gpus) for r in loaded.records
        ] == [
            (r.submit_time, r.duration, r.num_gpus)
            for r in original.records
        ]

    def test_written_header_matches_schema(self, tmp_path):
        trace = Trace(name="h", records=(
            TraceRecord(job_id=0, submit_time=0.0, duration=60.0, num_gpus=1),
        ))
        path = tmp_path / "h.csv"
        write_philly_csv(trace, path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(CSV_FIELDS)

    def test_custom_anchor_shifts_absolute_times_only(self, tmp_path):
        trace = Trace(name="a", records=(
            TraceRecord(job_id=0, submit_time=0.0, duration=60.0, num_gpus=1),
            TraceRecord(job_id=1, submit_time=30.0, duration=90.0, num_gpus=2),
        ))
        path = tmp_path / "a.csv"
        write_philly_csv(trace, path, base_time=datetime(2020, 1, 1))
        loaded, _ = load_philly_csv(path, min_duration=0.0)
        assert [r.submit_time for r in loaded.records] == [0.0, 30.0]

    def test_year_below_1000_roundtrips(self, tmp_path):
        """Four-digit years keep early anchors loadable."""
        trace = Trace(name="y", records=(
            TraceRecord(job_id=0, submit_time=0.0, duration=60.0, num_gpus=1),
            TraceRecord(job_id=1, submit_time=30.0, duration=90.0, num_gpus=2),
        ))
        path = tmp_path / "y.csv"
        write_philly_csv(trace, path, base_time=datetime(999, 1, 1))
        assert path.read_text().splitlines()[1].split(",")[3] == (
            "0999-01-01 00:00:00"
        )
        loaded, report = load_philly_csv(path, min_duration=0.0)
        assert report.total_skipped == 0
        assert [(r.submit_time, r.duration) for r in loaded.records] == [
            (0.0, 60.0), (30.0, 90.0),
        ]

    def test_aware_anchor_writes_wall_clock_time(self, tmp_path):
        trace = Trace(name="z", records=(
            TraceRecord(job_id=0, submit_time=5.0, duration=60.0, num_gpus=1),
        ))
        naive, aware = tmp_path / "naive.csv", tmp_path / "aware.csv"
        write_philly_csv(trace, naive, base_time=datetime(2020, 1, 1))
        write_philly_csv(
            trace, aware,
            base_time=datetime(2020, 1, 1, tzinfo=timezone(timedelta(hours=8))),
        )
        assert aware.read_text() == naive.read_text()


_STRFTIME_FORMAT = "%Y-%m-%d %H:%M:%S"


class TestWrittenTimestampParity:
    """Written timestamps match ``strftime`` for four-digit years."""

    @settings(max_examples=100, deadline=None)
    @given(
        anchor=st.datetimes(
            min_value=datetime(1000, 1, 1), max_value=datetime(9000, 1, 1),
        ),
        times=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e9),
                st.floats(min_value=1e-3, max_value=1e8),
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_matches_strftime(self, anchor, times):
        trace = Trace(name="p", records=tuple(
            TraceRecord(job_id=i, submit_time=submit, duration=duration,
                        num_gpus=1)
            for i, (submit, duration) in enumerate(times)
        ))
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "p.csv"
            write_philly_csv(trace, path, base_time=anchor)
            with path.open(newline="") as handle:
                rows = list(csv.DictReader(handle))
        for record, row in zip(trace.records, rows):
            submitted = anchor + timedelta(seconds=record.submit_time)
            end = submitted + timedelta(seconds=record.duration)
            assert row["submitted_time"] == submitted.strftime(_STRFTIME_FORMAT)
            assert row["attempt_start_time"] == row["submitted_time"]
            assert row["attempt_end_time"] == end.strftime(_STRFTIME_FORMAT)
