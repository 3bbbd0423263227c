"""CSV ingestion adapter for the public Philly trace schema.

The flattened CSV export of the Philly ``cluster_job_log`` (one row
per *attempt*; jobs with several attempts repeat the job columns)::

    job_id,vc,status,submitted_time,attempt_start_time,attempt_end_time,num_gpus
    application_001,ee9e8c,Pass,2017-10-03 17:13:54,2017-10-03 17:20:00,2017-10-03 19:20:00,4

:func:`load_philly_csv` normalizes that into a
:class:`~repro.trace.records.Trace` alongside the JSON loader, with
identical semantics — final-status filtering, summed attempt
durations, peak GPUs rounded up to a power of two, submit times
rebased to the slice's earliest submission — plus *structured
skip/error accounting*: real trace dumps contain malformed rows,
out-of-order timestamps, and open attempt windows, and silently
dropping them makes replay results unreproducible.  Every dropped row
and job is counted by reason in the returned :class:`IngestReport`.

:func:`write_philly_csv` is the inverse for synthetic traces: it
serializes a :class:`Trace` into the same schema so 100k-job replay
runs can exercise the full ingestion path end to end (see
``repro replay --via-csv``).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.trace.philly_loader import parse_philly_time, round_up_power_of_two
from repro.trace.records import Trace, TraceRecord

__all__ = [
    "CSV_FIELDS",
    "IngestError",
    "IngestReport",
    "load_philly_csv",
    "write_philly_csv",
]

#: Required header columns of the flattened Philly CSV schema.
CSV_FIELDS: Tuple[str, ...] = (
    "job_id",
    "vc",
    "status",
    "submitted_time",
    "attempt_start_time",
    "attempt_end_time",
    "num_gpus",
)

#: Detail cap: reports keep counting past it but stop storing rows.
_MAX_ERROR_DETAILS = 64


@dataclass(frozen=True)
class IngestError:
    """One dropped row (or job), with provenance.

    Attributes:
        line: 1-based line number in the CSV file (header is line 1);
            0 for job-level drops that aggregate several rows.
        job_id: The raw ``job_id`` cell, when one was readable.
        reason: Machine-readable reason code (a key of
            :attr:`IngestReport.skipped`).
    """

    line: int
    job_id: Optional[str]
    reason: str


@dataclass
class IngestReport:
    """Structured accounting of one :func:`load_philly_csv` run.

    Attributes:
        rows_read: Data rows consumed (header excluded).
        jobs_seen: Distinct job ids encountered.
        jobs_loaded: Jobs that became trace records.
        skipped: ``reason -> count`` over every dropped row and job.
            Row-level reasons: ``missing_field``, ``bad_gpus``
            (unparseable or negative), ``zero_gpus`` (an explicit 0 —
            a CPU-only attempt, common in the public Philly dump),
            ``bad_attempt_window``.  Job-level reasons:
            ``filtered_vc``, ``filtered_status``, ``bad_submit_time``,
            ``too_short``, ``no_gpus``.
        errors: Detail for the first :data:`_MAX_ERROR_DETAILS`
            drops, in file order.
    """

    rows_read: int = 0
    jobs_seen: int = 0
    jobs_loaded: int = 0
    skipped: Dict[str, int] = field(default_factory=dict)
    errors: List[IngestError] = field(default_factory=list)

    def record(self, reason: str, line: int, job_id: Optional[str]) -> None:
        """Count one drop, keeping bounded detail."""
        self.skipped[reason] = self.skipped.get(reason, 0) + 1
        if len(self.errors) < _MAX_ERROR_DETAILS:
            self.errors.append(IngestError(line, job_id, reason))

    @property
    def total_skipped(self) -> int:
        """Total drops across every reason."""
        return sum(self.skipped.values())

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly summary (used by the CLI and tests)."""
        return {
            "rows_read": self.rows_read,
            "jobs_seen": self.jobs_seen,
            "jobs_loaded": self.jobs_loaded,
            "skipped": dict(sorted(self.skipped.items())),
            "errors": [
                {"line": e.line, "job_id": e.job_id, "reason": e.reason}
                for e in self.errors
            ],
        }


@dataclass
class _JobRows:
    """Accumulated attempt rows of one job id, in file order."""

    first_line: int
    vc: Optional[str] = None
    status: Optional[str] = None
    submitted_raw: str = ""
    duration: float = 0.0
    peak_gpus: int = 0


def _attempt_window(start_raw: str, end_raw: str) -> Optional[float]:
    """Seconds of one attempt, or None when the window is unusable.

    Open windows (either bound missing or a ``None`` placeholder) and
    inverted windows (end before start — the out-of-order timestamps
    real dumps contain) are both unusable.
    """
    start = parse_philly_time(start_raw)
    end = parse_philly_time(end_raw)
    if start is None or end is None or end <= start:
        return None
    return (end - start).total_seconds()


def load_philly_csv(
    path: Union[str, Path],
    virtual_cluster: Optional[str] = None,
    include_failed: bool = False,
    min_duration: float = 30.0,
    name: Optional[str] = None,
) -> Tuple[Trace, IngestReport]:
    """Load a flattened Philly CSV as a :class:`Trace` plus a report.

    Args:
        path: Path to the CSV file (header row required).
        virtual_cluster: Keep only this ``vc``; None keeps every job.
        include_failed: Keep jobs whose final status is not "Pass".
        min_duration: Drop jobs whose summed attempt time is below
            this many seconds.
        name: Trace label; defaults to the file stem plus the vc.

    Returns:
        ``(trace, report)``; the report counts every dropped row and
        job by reason.

    Raises:
        ValueError: On a missing/invalid header, or when no jobs
            survive the filters (the report's counters explain why).
    """
    report = IngestReport()
    jobs: Dict[str, _JobRows] = {}

    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None) or []
        missing = [col for col in CSV_FIELDS if col not in header]
        if missing:
            raise ValueError(
                f"{path} is missing required columns {missing}; "
                f"expected {list(CSV_FIELDS)}"
            )
        # Rows read as csv.DictReader reads them: the last of two
        # same-named columns wins, missing cells of a short row read as
        # empty, and extra cells are ignored.
        column = {name: index for index, name in enumerate(header)}
        (
            job_col, vc_col, status_col, submitted_col, start_col, end_col,
            gpus_col,
        ) = (column[name] for name in CSV_FIELDS)
        width = max(column[name] for name in CSV_FIELDS) + 1
        for row in reader:
            if not row:
                continue  # a blank line, which DictReader skips too
            line = reader.line_num
            if len(row) < width:
                row += [""] * (width - len(row))
            report.rows_read += 1
            job_id = row[job_col].strip()
            if not job_id:
                report.record("missing_field", line, None)
                continue
            if job_id not in jobs:
                jobs[job_id] = _JobRows(first_line=line)
            acc = jobs[job_id]
            # Job columns: first non-empty value wins, so repeated
            # attempt rows cannot silently rewrite a job's identity.
            if not acc.vc:
                acc.vc = row[vc_col].strip() or None
            if not acc.status:
                acc.status = row[status_col].strip() or None
            if not acc.submitted_raw:
                acc.submitted_raw = row[submitted_col].strip()

            gpus_raw = row[gpus_col].strip()
            try:
                gpus = int(gpus_raw)
            except ValueError:
                report.record("bad_gpus", line, job_id)
                continue
            if gpus == 0:
                # CPU-only attempts are a distinct population in the
                # public dump: call them out instead of lumping them
                # with malformed rows (and never round 0 up to 1 GPU).
                report.record("zero_gpus", line, job_id)
                continue
            if gpus < 0:
                report.record("bad_gpus", line, job_id)
                continue
            window = _attempt_window(
                row[start_col].strip(), row[end_col].strip()
            )
            if window is None:
                report.record("bad_attempt_window", line, job_id)
                continue
            acc.duration += window
            acc.peak_gpus = max(acc.peak_gpus, gpus)

    report.jobs_seen = len(jobs)
    kept: List[Tuple[datetime, float, int]] = []
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
    label = name or (
        Path(path).stem + (f"-{virtual_cluster}" if virtual_cluster else "")
    )
    return Trace(name=label, records=tuple(records)), report


def write_philly_csv(
    trace: Trace,
    path: Union[str, Path],
    vc: str = "vc0",
    base_time: Optional[datetime] = None,
) -> int:
    """Serialize a trace into the flattened Philly CSV schema.

    Each record becomes one single-attempt ``Pass`` row whose attempt
    window spans exactly the record's duration, so
    ``load_philly_csv(write_philly_csv(t))`` reconstructs ``t`` up to
    power-of-two GPU rounding and the ``min_duration`` floor.

    Args:
        trace: The trace to serialize.
        path: Destination CSV path (overwritten).
        vc: Virtual-cluster label stamped on every row.
        base_time: Absolute wall-clock anchor of ``submit_time == 0``;
            defaults to the Philly collection epoch (2017-10-01).

    Returns:
        Number of data rows written.
    """
    anchor = base_time if base_time is not None else datetime(2017, 10, 1)
    # The schema's timestamps are naive wall-clock times.
    anchor = anchor.replace(tzinfo=None)
    destination = Path(path)
    with destination.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for record in trace.records:
            # The single attempt starts at submission.  isoformat pads
            # the year to four digits, so years < 1000 still load.
            submitted = anchor + timedelta(seconds=record.submit_time)
            end = submitted + timedelta(seconds=record.duration)
            stamp = submitted.isoformat(" ", "seconds")
            writer.writerow([
                f"job_{record.job_id}",
                vc,
                "Pass",
                stamp,
                stamp,
                end.isoformat(" ", "seconds"),
                record.num_gpus,
            ])
    return len(trace.records)
