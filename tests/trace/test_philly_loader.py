"""Tests for the real Philly-format loader (on a synthetic fixture)."""

import json
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.philly_loader import (
    load_philly_json,
    parse_philly_time,
    round_up_power_of_two,
)


def philly_entry(jobid, vc, submitted, attempts, status="Pass"):
    return {
        "jobid": jobid,
        "vc": vc,
        "submitted_time": submitted,
        "attempts": attempts,
        "status": status,
    }


def attempt(start, end, gpus_per_machine):
    return {
        "start_time": start,
        "end_time": end,
        "detail": [
            {"ip": f"m{i}", "gpus": [f"gpu{g}" for g in range(count)]}
            for i, count in enumerate(gpus_per_machine)
        ],
    }


@pytest.fixture()
def trace_file(tmp_path):
    entries = [
        philly_entry(
            "app_1", "vc-a", "2017-10-03 10:00:00",
            [attempt("2017-10-03 10:05:00", "2017-10-03 11:05:00", [2, 1])],
        ),
        philly_entry(
            "app_2", "vc-a", "2017-10-03 10:30:00",
            [
                attempt("2017-10-03 10:31:00", "2017-10-03 10:41:00", [1]),
                attempt("2017-10-03 11:00:00", "2017-10-03 11:20:00", [1]),
            ],
        ),
        philly_entry(
            "app_3", "vc-b", "2017-10-03 09:00:00",
            [attempt("2017-10-03 09:01:00", "2017-10-03 12:01:00", [8])],
        ),
        philly_entry(  # failed job
            "app_4", "vc-a", "2017-10-03 10:10:00",
            [attempt("2017-10-03 10:11:00", "2017-10-03 10:21:00", [1])],
            status="Killed",
        ),
        philly_entry(  # too short
            "app_5", "vc-a", "2017-10-03 10:20:00",
            [attempt("2017-10-03 10:20:01", "2017-10-03 10:20:05", [1])],
        ),
        philly_entry(  # unparsable times
            "app_6", "vc-a", "None",
            [attempt("None", "None", [1])],
        ),
    ]
    path = tmp_path / "cluster_job_log"
    path.write_text(json.dumps(entries))
    return path


class TestHelpers:
    def test_parse_time(self):
        parsed = parse_philly_time("2017-10-03 17:13:54")
        assert parsed is not None and parsed.hour == 17

    def test_parse_time_none(self):
        assert parse_philly_time("None") is None
        assert parse_philly_time("") is None
        assert parse_philly_time("garbage") is None

    @pytest.mark.parametrize("value", [1507050834, 1.5, None, [], {}])
    def test_parse_time_non_string(self, value):
        assert parse_philly_time(value) is None

    @pytest.mark.parametrize("value,expected", [
        (1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16), (17, 32),
    ])
    def test_round_up_power_of_two(self, value, expected):
        assert round_up_power_of_two(value) == expected

    def test_round_up_invalid(self):
        with pytest.raises(ValueError):
            round_up_power_of_two(0)


class TestLoader:
    def test_loads_passing_jobs(self, trace_file):
        trace = load_philly_json(trace_file)
        # app_1, app_2, app_3 survive; 4 (failed), 5 (short), 6 (bad).
        assert len(trace) == 3

    def test_vc_filter(self, trace_file):
        trace = load_philly_json(trace_file, virtual_cluster="vc-a")
        assert len(trace) == 2
        assert trace.name.endswith("-vc-a")

    def test_submit_times_rebased(self, trace_file):
        trace = load_philly_json(trace_file, virtual_cluster="vc-a")
        assert trace[0].submit_time == 0.0
        assert trace[1].submit_time == pytest.approx(30 * 60.0)

    def test_duration_sums_attempts(self, trace_file):
        trace = load_philly_json(trace_file, virtual_cluster="vc-a")
        # app_2 had 10 + 20 minutes across two attempts.
        by_duration = sorted(r.duration for r in trace)
        assert by_duration[0] == pytest.approx(30 * 60.0)
        assert by_duration[1] == pytest.approx(60 * 60.0)

    def test_gpus_power_of_two(self, trace_file):
        trace = load_philly_json(trace_file)
        for record in trace:
            assert record.num_gpus & (record.num_gpus - 1) == 0
        # app_1 used 3 GPUs peak -> rounded to 4.
        assert max(r.num_gpus for r in load_philly_json(
            trace_file, virtual_cluster="vc-a")) == 4

    def test_include_failed(self, trace_file):
        trace = load_philly_json(
            trace_file, virtual_cluster="vc-a", include_failed=True
        )
        assert len(trace) == 3

    def test_no_jobs_raises(self, trace_file):
        with pytest.raises(ValueError):
            load_philly_json(trace_file, virtual_cluster="vc-nope")

    def test_non_string_timestamps_are_skipped(self, tmp_path):
        """Epoch integers are bad timestamps, not a crash."""
        entries = [
            philly_entry(
                "app_1", "vc-a", "2017-10-03 10:00:00",
                [attempt("2017-10-03 10:05:00", "2017-10-03 11:05:00", [1])],
            ),
            philly_entry(
                "app_2", "vc-a", 1507050834,
                [attempt("2017-10-03 10:05:00", "2017-10-03 11:05:00", [1])],
            ),
            philly_entry(
                "app_3", "vc-a", "2017-10-03 10:00:00",
                [
                    attempt(1507050834, 1507054434, [1]),
                    attempt("2017-10-03 12:00:00", "2017-10-03 12:30:00", [2]),
                ],
            ),
        ]
        path = tmp_path / "epoch_log"
        path.write_text(json.dumps(entries))
        trace = load_philly_json(path)
        # app_2 is dropped; app_3 keeps only its parseable attempt.
        assert [(r.duration, r.num_gpus) for r in trace] == [
            (3600.0, 1), (1800.0, 2),
        ]

    @pytest.mark.parametrize("document,where", [
        ([1], "entry 0 must be an object, not number"),
        ({"jobs": []}, "the top level must be an array, not object"),
        (
            [philly_entry("app_1", "vc-a", "2017-10-03 10:00:00", None)],
            "entry 0 attempts must be an array, not null",
        ),
        (
            [philly_entry("app_1", "vc-a", "2017-10-03 10:00:00", ["x"])],
            "entry 0 attempts[0] must be an object, not string",
        ),
        (
            [philly_entry("app_1", "vc-a", "2017-10-03 10:00:00", [{
                "start_time": "2017-10-03 10:05:00",
                "end_time": "2017-10-03 11:05:00",
                "detail": None,
            }])],
            "entry 0 attempts[0].detail must be an array, not null",
        ),
        (
            [philly_entry("app_1", "vc-a", "2017-10-03 10:00:00", [{
                "start_time": "2017-10-03 10:05:00",
                "end_time": "2017-10-03 11:05:00",
                "detail": [{"ip": "m0", "gpus": None}],
            }])],
            "entry 0 attempts[0].detail[0].gpus must be an array, not null",
        ),
    ], ids=[
        "non-object-entry", "top-level-object", "null-attempts",
        "string-attempt", "null-detail", "null-gpus",
    ])
    def test_wrong_shape_raises_value_error(self, tmp_path, document, where):
        """A wrong-shape entry names its index and field, not a crash."""
        path = tmp_path / "bad_log"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError) as info:
            load_philly_json(path)
        assert str(info.value) == f"{path}: {where}"

    def test_feeds_build_jobs(self, trace_file):
        from repro.trace.workload import build_jobs

        trace = load_philly_json(trace_file)
        specs = build_jobs(trace, seed=0)
        assert len(specs) == len(trace)


def reference_parse(value):
    """The parser's specification: ``strptime`` on the stripped text."""
    try:
        return datetime.strptime(value.strip(), "%Y-%m-%d %H:%M:%S")
    except ValueError:
        return None


_FULL_WIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14"
                            "\uff15\uff16\uff17\uff18\uff19")


@st.composite
def near_canonical_times(draw):
    """Strings on and around the canonical ``YYYY-MM-DD HH:MM:SS`` shape.

    Covers out-of-range fields (month 13, day 32, hour 24, second 60),
    unpadded fields, a ``T`` separator, fractional seconds, full-width
    digits, surrounding whitespace and ``None`` placeholders.
    """
    fields = [
        draw(st.integers(0, 9999)),
        draw(st.integers(0, 13)),
        draw(st.integers(0, 32)),
        draw(st.integers(0, 24)),
        draw(st.integers(0, 60)),
        draw(st.integers(0, 61)),
    ]
    widths = [4, 2, 2, 2, 2, 2]
    text = [
        str(value).zfill(width) if draw(st.booleans()) else str(value)
        for value, width in zip(fields, widths)
    ]
    separator = draw(st.sampled_from([" ", " ", "T", "  "]))
    value = (
        f"{text[0]}-{text[1]}-{text[2]}{separator}"
        f"{text[3]}:{text[4]}:{text[5]}"
    )
    if draw(st.integers(0, 9)) == 0:
        value += ".5"
    if draw(st.integers(0, 9)) == 0:
        value = value.translate(_FULL_WIDTH)
    if draw(st.integers(0, 9)) == 0:
        value = draw(st.sampled_from([" ", "\t", "\n"])) + value
    if draw(st.integers(0, 9)) == 0:
        value += draw(st.sampled_from([" ", "\t", "\n"]))
    if draw(st.integers(0, 19)) == 0:
        value = "None" + value
    return value


class TestParseParity:
    """The canonical fast path agrees with ``strptime`` everywhere."""

    @settings(max_examples=300, deadline=None)
    @given(near_canonical_times())
    def test_near_canonical(self, value):
        assert parse_philly_time(value) == reference_parse(value)

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=24))
    def test_arbitrary_text(self, value):
        assert parse_philly_time(value) == reference_parse(value)

    @pytest.mark.parametrize("value", [
        "2017-01-03 01:02:03",
        "2017-1-3 1:2:3",
        " 2017-01-03 01:02:03 ",
        "2017-01-03 24:00:00",
        "2017-02-29 00:00:00",
        "2016-02-29 23:59:59",
        "0999-01-01 00:00:00",
        "0000-01-01 00:00:00",
        "2017-01-03T01:02:03",
        "2017-01-03 01:02:03.5",
        "\uff12\uff10\uff11\uff17-01-03 01:02:03",
        "None",
        "None 2017-01-03 01:02:03",
    ])
    def test_edge_cases(self, value):
        assert parse_philly_time(value) == reference_parse(value)
