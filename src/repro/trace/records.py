"""Trace records: the (submit time, duration, GPU count) tuples that
drive every evaluation.

The paper uses the public Microsoft Philly traces, which expose exactly
these three fields per job — the DL model is *not* part of the trace
and is assigned randomly from the evaluation mix (section 6.1).  A
:class:`Trace` here is that same shape, plus helpers for the paper's
trace manipulations: the "prime" variants with all submissions at time
zero and the busiest-interval selection used for testbed runs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from math import inf
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Union

from repro.numeric import ordered_sum

__all__ = ["TraceRecord", "Trace"]

#: Trace order: submission time, ties broken by job id.
_TRACE_ORDER = attrgetter("submit_time", "job_id")


@dataclass(frozen=True)
class TraceRecord:
    """One job as it appears in a cluster trace.

    Attributes:
        job_id: Stable identifier within the trace.
        submit_time: Arrival time in seconds from trace start.
        duration: Solo running time in seconds.
        num_gpus: GPUs requested (a power of two in practice).
        model: Optional model name; None means "assign one randomly"
            exactly as the paper does for Philly jobs.
    """

    job_id: int
    submit_time: float
    duration: float
    num_gpus: int
    model: Optional[str] = None

    def __post_init__(self) -> None:
        if not 0 <= self.submit_time < inf:
            raise ValueError(
                f"submit_time must be finite and >= 0, got {self.submit_time}"
            )
        if not 0 < self.duration < inf:
            raise ValueError(
                f"duration must be finite and > 0, got {self.duration}"
            )
        if self.num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")


@dataclass(frozen=True)
class Trace:
    """An immutable sequence of trace records plus a name.

    Attributes:
        name: Trace label (e.g. "trace-1", "trace-1-prime").
        records: Job records sorted by submission time.
    """

    name: str
    records: tuple

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.records, key=_TRACE_ORDER))
        object.__setattr__(self, "records", ordered)

    # -- basic container behaviour -----------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> TraceRecord:
        return self.records[index]

    # -- summary -----------------------------------------------------------

    @property
    def total_gpu_seconds(self) -> float:
        """Aggregate demand: sum of duration x GPUs over all jobs."""
        return ordered_sum(r.duration * r.num_gpus for r in self.records)

    @property
    def makespan_lower_bound(self) -> float:
        """Span from first submission to last solo completion if the
        cluster were infinitely large."""
        if not self.records:
            return 0.0
        return max(r.submit_time + r.duration for r in self.records) - min(
            r.submit_time for r in self.records
        )

    def load_factor(self, total_gpus: int) -> float:
        """Offered load relative to cluster capacity over the trace span."""
        span = max(
            (r.submit_time for r in self.records), default=0.0
        ) or 1.0
        return self.total_gpu_seconds / (max(span, 1.0) * total_gpus)

    # -- paper transformations ----------------------------------------------

    def at_time_zero(self) -> "Trace":
        """The paper's "prime" variant: every job submitted at t = 0.

        Used in Figs. 9, 10 (traces 1'-4') and throughout Fig. 12 to
        raise contention.  The records keep their ids, durations, GPU
        counts and models, and end up in job-id order.  For a generated
        trace, :func:`repro.trace.philly.generate_trace` builds the same
        trace in one pass (``"1'"`` or ``at_time_zero=True``).
        """
        return Trace(
            name=f"{self.name}-prime",
            records=tuple(
                TraceRecord(r.job_id, 0.0, r.duration, r.num_gpus, r.model)
                for r in self.records
            ),
        )

    def busiest_interval(self, num_jobs: int) -> "Trace":
        """The densest submission window containing ``num_jobs`` jobs.

        The paper selects "the busiest interval that contains 400 jobs"
        for testbed experiments.  Submission times are rebased so the
        window starts at zero.
        """
        if num_jobs >= len(self.records):
            return self
        if num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        submits = [r.submit_time for r in self.records]
        best_start = 0
        best_span = float("inf")
        for start in range(len(submits) - num_jobs + 1):
            span = submits[start + num_jobs - 1] - submits[start]
            if span < best_span:
                best_span = span
                best_start = start
        window = self.records[best_start:best_start + num_jobs]
        base = window[0].submit_time
        return Trace(
            name=f"{self.name}-busiest{num_jobs}",
            records=tuple(
                TraceRecord(
                    r.job_id, r.submit_time - base, r.duration, r.num_gpus,
                    r.model,
                )
                for r in window
            ),
        )

    def head(self, num_jobs: int) -> "Trace":
        """The first ``num_jobs`` submissions.

        Raises:
            ValueError: If ``num_jobs < 1`` (a negative count would
                silently drop records from the tail instead).
        """
        if num_jobs < 1:
            raise ValueError("num_jobs must be >= 1")
        return Trace(
            name=f"{self.name}-head{num_jobs}",
            records=self.records[:num_jobs],
        )

    def scaled_durations(self, factor: float) -> "Trace":
        """Uniformly scale every job's duration (load knob)."""
        if factor <= 0:
            raise ValueError("factor must be > 0")
        return Trace(
            name=f"{self.name}-x{factor:g}",
            records=tuple(
                TraceRecord(
                    r.job_id, r.submit_time, r.duration * factor, r.num_gpus,
                    r.model,
                )
                for r in self.records
            ),
        )

    # -- persistence -----------------------------------------------------------

    _CSV_FIELDS = ("job_id", "submit_time", "duration", "num_gpus", "model")

    def to_csv(self, path: Union[str, Path]) -> None:
        """Write the trace as CSV with a header row."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self._CSV_FIELDS)
            for r in self.records:
                writer.writerow(
                    [r.job_id, r.submit_time, r.duration, r.num_gpus, r.model or ""]
                )

    @classmethod
    def from_csv(cls, path: Union[str, Path], name: Optional[str] = None) -> "Trace":
        """Read a trace written by :meth:`to_csv`."""
        records: List[TraceRecord] = []
        with open(path, newline="") as handle:
            for row in csv.DictReader(handle):
                records.append(
                    TraceRecord(
                        job_id=int(row["job_id"]),
                        submit_time=float(row["submit_time"]),
                        duration=float(row["duration"]),
                        num_gpus=int(row["num_gpus"]),
                        model=row.get("model") or None,
                    )
                )
        return cls(name=name or Path(path).stem, records=tuple(records))

    def to_json(self, path: Union[str, Path]) -> None:
        """Write the trace as a JSON document."""
        payload = {
            "name": self.name,
            "records": [
                {
                    "job_id": r.job_id,
                    "submit_time": r.submit_time,
                    "duration": r.duration,
                    "num_gpus": r.num_gpus,
                    "model": r.model,
                }
                for r in self.records
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2))

    @classmethod
    def from_json(cls, path: Union[str, Path]) -> "Trace":
        """Read a trace written by :meth:`to_json`."""
        payload = json.loads(Path(path).read_text())
        return cls(
            name=payload["name"],
            records=tuple(
                TraceRecord(**record) for record in payload["records"]
            ),
        )

    @classmethod
    def from_records(
        cls, name: str, records: Iterable[TraceRecord]
    ) -> "Trace":
        """Build a named trace from any iterable of records."""
        return cls(name=name, records=tuple(records))
