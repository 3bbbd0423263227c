"""``load_philly_csv`` reads rows exactly as ``csv.DictReader`` would.

The loader indexes ``csv.reader`` rows by header position instead of
building a dict per row.  :func:`_reference_load` below is the
``DictReader`` loader it replaced, kept as the oracle: on the committed
fixture and on hostile files (blank lines, short and long rows,
duplicate and reordered columns, quoted newlines, CRLF endings, empty
and header-only files) both must return equal traces and reports, or
raise the same error.
"""

import csv
from pathlib import Path
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.philly_csv import (
    CSV_FIELDS,
    IngestReport,
    _attempt_window,
    _JobRows,
    load_philly_csv,
)
from repro.trace.philly_loader import parse_philly_time, round_up_power_of_two
from repro.trace.records import Trace, TraceRecord

GOLDEN = Path(__file__).parent / "data" / "philly_golden.csv"


def _reference_load(path, virtual_cluster=None, include_failed=False,
                    min_duration=30.0):
    """The ``csv.DictReader`` loader, as it was before the rewrite."""
    report = IngestReport()
    jobs: Dict[str, _JobRows] = {}
    with Path(path).open(newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [col for col in CSV_FIELDS if col not in header]
        if missing:
            raise ValueError(
                f"{path} is missing required columns {missing}; "
                f"expected {list(CSV_FIELDS)}"
            )
        for row in reader:
            line = reader.line_num
            report.rows_read += 1
            job_id = (row.get("job_id") or "").strip()
            if not job_id:
                report.record("missing_field", line, None)
                continue
            if job_id not in jobs:
                jobs[job_id] = _JobRows(first_line=line)
            acc = jobs[job_id]
            if not acc.vc:
                acc.vc = (row.get("vc") or "").strip() or None
            if not acc.status:
                acc.status = (row.get("status") or "").strip() or None
            if not acc.submitted_raw:
                acc.submitted_raw = (row.get("submitted_time") or "").strip()
            try:
                gpus = int((row.get("num_gpus") or "").strip())
            except ValueError:
                report.record("bad_gpus", line, job_id)
                continue
            if gpus == 0:
                report.record("zero_gpus", line, job_id)
                continue
            if gpus < 0:
                report.record("bad_gpus", line, job_id)
                continue
            window = _attempt_window(
                (row.get("attempt_start_time") or "").strip(),
                (row.get("attempt_end_time") or "").strip(),
            )
            if window is None:
                report.record("bad_attempt_window", line, job_id)
                continue
            acc.duration += window
            acc.peak_gpus = max(acc.peak_gpus, gpus)

    report.jobs_seen = len(jobs)
    kept: List[Tuple] = []
    for job_id, acc in jobs.items():
        if virtual_cluster is not None and acc.vc != virtual_cluster:
            report.record("filtered_vc", acc.first_line, job_id)
            continue
        if not include_failed and acc.status != "Pass":
            report.record("filtered_status", acc.first_line, job_id)
            continue
        submitted = parse_philly_time(acc.submitted_raw)
        if submitted is None:
            report.record("bad_submit_time", acc.first_line, job_id)
            continue
        if acc.peak_gpus < 1:
            report.record("no_gpus", acc.first_line, job_id)
            continue
        if acc.duration < min_duration:
            report.record("too_short", acc.first_line, job_id)
            continue
        kept.append((submitted, acc.duration, acc.peak_gpus))
    if not kept:
        raise ValueError(
            f"no usable jobs in {path}"
            + (f" for vc={virtual_cluster!r}" if virtual_cluster else "")
            + f" (skipped: {dict(sorted(report.skipped.items()))})"
        )
    base = min(submitted for submitted, _, _ in kept)
    records = [
        TraceRecord(
            job_id=index,
            submit_time=(submitted - base).total_seconds(),
            duration=duration,
            num_gpus=round_up_power_of_two(gpus),
        )
        for index, (submitted, duration, gpus) in enumerate(kept)
    ]
    report.jobs_loaded = len(records)
    label = Path(path).stem + (f"-{virtual_cluster}" if virtual_cluster else "")
    return Trace(name=label, records=tuple(records)), report


def _outcome(load, path, **kwargs):
    try:
        trace, report = load(path, **kwargs)
    except ValueError as error:
        return ("error", str(error))
    return (trace, trace.name, report.to_dict())


def _assert_parity(path, **kwargs):
    expected = _outcome(_reference_load, path, **kwargs)
    assert _outcome(load_philly_csv, path, **kwargs) == expected
    return expected


HEADER = ",".join(CSV_FIELDS)
ROWS = (
    "a1,vc1,Pass,2017-10-05 00:00:00,2017-10-05 00:10:00,"
    "2017-10-05 00:20:00,4",
    "a2,vc1,Pass,2017-10-05 00:05:00,2017-10-05 00:06:00,"
    "2017-10-05 00:16:00,2",
    "a2,vc1,Pass,2017-10-05 00:05:00,2017-10-05 00:20:00,"
    "2017-10-05 00:30:00,8",
    "a3,vc2,Failed,2017-10-05 00:07:00,2017-10-05 00:08:00,"
    "2017-10-05 00:40:00,1",
    ",vc1,Pass,2017-10-05 00:09:00,2017-10-05 00:09:00,"
    "2017-10-05 00:19:00,1",
    "a4,vc1,Pass,2017-10-05 00:11:00,2017-10-05 00:12:00,"
    "2017-10-05 00:13:00,x",
    "a5,vc1,Pass,2017-10-05 00:12:00,2017-10-05 00:14:00,"
    "2017-10-05 00:13:00,2",
)


def _write(tmp_path, text, name="hostile.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return path


def test_golden_fixture_matches_reference():
    for kwargs in (
        {},
        {"virtual_cluster": "vc1"},
        {"include_failed": True},
        {"min_duration": 0.0},
    ):
        _assert_parity(GOLDEN, **kwargs)


@pytest.mark.parametrize(
    "text",
    [
        # Blank lines: leading, doubled, between rows and trailing.
        HEADER + "\n\n" + ROWS[0] + "\n\n\n" + ROWS[1] + "\n" + ROWS[2]
        + "\n\n",
        # Short rows read the missing cells as empty.
        HEADER + "\n" + ROWS[0] + "\na6,vc1,Pass\n" + ROWS[1] + "\n"
        + ROWS[1].rsplit(",", 1)[0] + "\n",
        # Extra cells are ignored.
        HEADER + "\n" + ROWS[0] + ",extra,cells\n" + ROWS[1] + ",9\n",
        # CRLF line endings.
        "\r\n".join((HEADER,) + ROWS) + "\r\n",
        # Quoted cells with embedded newlines shift the line numbers.
        HEADER + "\n" + ROWS[0] + '\n"a7\nsplit",vc1,Pass,'
        '2017-10-05 00:01:00,"2017-10-05 00:02:00",2017-10-05 00:03:00,'
        '"1"\n' + ROWS[5] + "\n\n" + ROWS[6] + "\n",
        # Header only, and no newline at all after the last row.
        HEADER + "\n",
        HEADER + "\n" + ROWS[0],
        # Every row dropped.
        HEADER + "\n" + ROWS[4] + "\n" + ROWS[5] + "\n",
        # Empty file and a blank first line: no header.
        "",
        "\n" + HEADER + "\n" + ROWS[0] + "\n",
    ],
)
def test_hostile_files_match_reference(tmp_path, text):
    _assert_parity(_write(tmp_path, text))


def test_duplicate_and_reordered_columns_match_reference(tmp_path):
    # The last num_gpus column wins; a short row loses it entirely.
    header = (
        "num_gpus,status,attempt_end_time,job_id,vc,submitted_time,"
        "attempt_start_time,num_gpus"
    )
    text = "\n".join([
        header,
        "1,Pass,2017-10-05 00:20:00,b1,vc1,2017-10-05 00:00:00,"
        "2017-10-05 00:10:00,4",
        "8,Pass,2017-10-05 00:30:00,b2,vc1,2017-10-05 00:01:00,"
        "2017-10-05 00:10:00",
        "2,Pass,2017-10-05 00:30:00,b3,vc1,2017-10-05 00:01:00,"
        "2017-10-05 00:10:00,,x",
    ]) + "\n"
    expected = _assert_parity(_write(tmp_path, text))
    trace, _, report = expected
    assert [r.num_gpus for r in trace] == [4]
    assert report["skipped"] == {"bad_gpus": 2, "no_gpus": 2}


@settings(max_examples=60, deadline=None)
@given(
    lines=st.lists(
        st.one_of(
            st.sampled_from(ROWS),
            st.just(""),
            st.sampled_from(ROWS).map(lambda row: row.rsplit(",", 2)[0]),
            st.sampled_from(ROWS).map(lambda row: row + ",spare"),
        ),
        max_size=12,
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_random_row_mixes_match_reference(tmp_path_factory, lines, newline):
    path = _write(
        tmp_path_factory.mktemp("mix"), newline.join([HEADER] + lines)
    )
    _assert_parity(path)
