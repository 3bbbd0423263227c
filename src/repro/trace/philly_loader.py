"""Loader for the real Microsoft Philly trace format.

The paper evaluates on the public Philly traces
(https://github.com/msr-fiddle/philly-traces, from Jeon et al.,
ATC '19).  The dataset cannot be redistributed here, but users who
download it can drive every experiment in this repository from the
real data instead of our synthetic equivalents.

``cluster_job_log`` is a JSON array; each entry describes one job::

    {
      "jobid": "application_14199...",
      "vc": "ee9e8c",                      # virtual cluster id
      "submitted_time": "2017-10-03 17:13:54",
      "attempts": [
        {"start_time": "...", "end_time": "...",
         "detail": [{"ip": "m1", "gpus": ["gpu0", ...]}, ...]},
        ...
      ],
      "status": "Pass" | "Killed" | "Failed"
    }

:func:`load_philly_json` turns that into a :class:`~repro.trace.records.Trace`:

* submit time = seconds since the earliest submission in the slice;
* duration = summed attempt running time (the paper uses the trace's
  duration directly);
* GPU count = peak GPUs across attempts, rounded up to a power of two
  (the paper's "common practice" normalization);
* the paper splits by virtual-cluster id — pass ``virtual_cluster``.
"""

from __future__ import annotations

import json
import math
import re
from datetime import datetime
from pathlib import Path
from typing import Any, List, Optional, Union

from repro.numeric import ordered_sum
from repro.trace.records import Trace, TraceRecord

__all__ = ["load_philly_json", "parse_philly_time", "round_up_power_of_two"]

_TIME_FORMAT = "%Y-%m-%d %H:%M:%S"

#: The canonical ``_TIME_FORMAT`` shape in ASCII digits.  Hour 24 is
#: left to ``strptime``, which rejects it: ISO 8601 allows ``24:00`` as
#: the end of a day, so ``fromisoformat`` is not relied on to reject it.
_CANONICAL_TIME = re.compile(
    r"\d{4}-\d\d-\d\d (?:[01]\d|2[0-3]):\d\d:\d\d", re.ASCII
).fullmatch


def parse_philly_time(value: object) -> Optional[datetime]:
    """Parse a Philly timestamp; None for missing/placeholder values.

    Canonical ``YYYY-MM-DD HH:MM:SS`` strings take a fast path through
    ``datetime.fromisoformat``, which agrees with ``strptime`` on that
    shape but is several times cheaper.  Every other string falls back
    to ``strptime``, which also accepts single-digit fields, non-ASCII
    digits and surrounding whitespace.  Non-strings (a JSON dump may
    carry epoch integers) are unparseable, as are out-of-range fields.
    """
    if not isinstance(value, str):
        return None
    if _CANONICAL_TIME(value):
        try:
            return datetime.fromisoformat(value)
        except ValueError:
            return None
    if not value or value.startswith("None"):
        return None
    try:
        return datetime.strptime(value.strip(), _TIME_FORMAT)
    except ValueError:
        return None


def round_up_power_of_two(value: int) -> int:
    """Round a positive integer up to the next power of two."""
    if value < 1:
        raise ValueError("value must be >= 1")
    return 1 << (value - 1).bit_length()


#: JSON names of the types ``json.loads`` produces, for error messages.
_JSON_KINDS = {
    type(None): "null", bool: "boolean", int: "number", float: "number",
    str: "string", list: "array", dict: "object",
}


def _expect(value: Any, kind: type, where: str) -> Any:
    """Return ``value`` if it decoded as ``kind`` (list or dict).

    Raises:
        ValueError: Naming ``where`` (the entry index and field) and
            the JSON type found instead.
    """
    if isinstance(value, kind):
        return value
    wanted = "an array" if kind is list else "an object"
    raise ValueError(
        f"{where} must be {wanted}, not {_JSON_KINDS[type(value)]}"
    )


def _attempt_gpus(attempt: dict, where: str) -> int:
    details = _expect(attempt.get("detail", []), list, f"{where}.detail")
    gpus = 0
    for k, detail in enumerate(details):
        detail = _expect(detail, dict, f"{where}.detail[{k}]")
        gpus += len(
            _expect(detail.get("gpus", []), list, f"{where}.detail[{k}].gpus")
        )
    return gpus


def _attempt_duration(attempt: dict) -> float:
    start = parse_philly_time(attempt.get("start_time", ""))
    end = parse_philly_time(attempt.get("end_time", ""))
    if start is None or end is None or end <= start:
        return 0.0
    return (end - start).total_seconds()


def load_philly_json(
    path: Union[str, Path],
    virtual_cluster: Optional[str] = None,
    include_failed: bool = False,
    min_duration: float = 30.0,
    name: Optional[str] = None,
) -> Trace:
    """Load a Philly ``cluster_job_log`` file as a :class:`Trace`.

    Args:
        path: Path to the JSON file (array of job entries).
        virtual_cluster: Keep only this ``vc`` (the paper splits the
            trace by virtual cluster id); None keeps every job.
        include_failed: Keep jobs whose final status is not "Pass".
            The paper's scheduler replays completed work, so failed
            jobs are dropped by default.
        min_duration: Drop jobs that ran for less than this many
            seconds (profiling blips).
        name: Trace label; defaults to the file stem plus the vc.

    Returns:
        A trace with submit times rebased to the slice's first
        submission.

    Raises:
        ValueError: If no jobs survive the filters, or if the file is
            not an array of objects, or a kept entry's ``attempts``,
            ``detail`` or ``gpus`` field has the wrong JSON type (the
            message names the entry index and the field).
    """
    entries = _expect(
        json.loads(Path(path).read_text()), list, f"{path}: the top level"
    )
    kept: List[dict] = []
    for index, entry in enumerate(entries):
        where = f"{path}: entry {index}"
        entry = _expect(entry, dict, where)
        if virtual_cluster is not None and entry.get("vc") != virtual_cluster:
            continue
        if not include_failed and entry.get("status") != "Pass":
            continue
        submitted = parse_philly_time(entry.get("submitted_time", ""))
        if submitted is None:
            continue
        attempts = [
            _expect(a, dict, f"{where} attempts[{j}]")
            for j, a in enumerate(
                _expect(entry.get("attempts", []), list, f"{where} attempts")
            )
        ]
        duration = ordered_sum(_attempt_duration(a) for a in attempts)
        if duration < min_duration:
            continue
        gpus = max(
            (
                _attempt_gpus(a, f"{where} attempts[{j}]")
                for j, a in enumerate(attempts)
            ),
            default=0,
        )
        if gpus < 1:
            continue
        kept.append({
            "submitted": submitted,
            "duration": duration,
            "gpus": round_up_power_of_two(gpus),
        })

    if not kept:
        raise ValueError(
            f"no usable jobs in {path}"
            + (f" for vc={virtual_cluster!r}" if virtual_cluster else "")
        )

    base = min(item["submitted"] for item in kept)
    records = [
        TraceRecord(
            job_id=index,
            submit_time=(item["submitted"] - base).total_seconds(),
            duration=item["duration"],
            num_gpus=item["gpus"],
        )
        for index, item in enumerate(kept)
    ]
    label = name or (
        Path(path).stem + (f"-{virtual_cluster}" if virtual_cluster else "")
    )
    return Trace(name=label, records=tuple(records))
