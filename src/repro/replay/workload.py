"""Seeded synthetic traces sized for production-scale replay.

The paper's trace presets shape realistic burstiness and lognormal
durations, but their long job tails make 100k-job runs dominated by a
handful of multi-day stragglers rather than by event throughput.
:func:`synthetic_trace` instead targets the *replay harness itself*:
short uniform durations and an arrival window that grows with the job
count (``jobs_per_day`` fixed), so offered load — and therefore the
number of concurrently running groups each simulator step scans — is
constant at any size.  Replay wall time then scales linearly in jobs,
which is what makes the 100k-job bench and CI acceptance runs
tractable.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from repro.trace.records import Trace, TraceRecord

__all__ = ["synthetic_trace"]

#: Arrival density: a 100k-job trace spans 20 simulated days.
_SECONDS_PER_DAY = 86_400.0


def synthetic_trace(
    num_jobs: int,
    seed: int = 0,
    jobs_per_day: float = 5_000.0,
    duration_range: Tuple[float, float] = (60.0, 600.0),
    gpu_choices: Sequence[int] = (1, 1, 1, 2, 2, 4, 8),
    name: Optional[str] = None,
) -> Trace:
    """A seeded constant-load trace for replay benchmarks.

    Args:
        num_jobs: Number of records.
        seed: RNG seed; the trace is fully determined by
            ``(num_jobs, seed)`` and the shape arguments.
        jobs_per_day: Arrival density; the window is
            ``num_jobs / jobs_per_day`` days.
        duration_range: Uniform job-duration bounds in seconds.
        gpu_choices: GPU counts drawn uniformly (repeats weight small
            jobs, as the Philly mix does).
        name: Trace label; defaults to ``replay-<num_jobs>``.

    Returns:
        Records sorted by ``(submit_time, job_id)``, ready for
        :func:`~repro.trace.build_jobs`.

    Raises:
        ValueError: On a non-positive size, density, or duration.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be >= 1")
    if jobs_per_day <= 0:
        raise ValueError("jobs_per_day must be > 0")
    low, high = duration_range
    if low <= 0 or high < low:
        raise ValueError("duration_range must be 0 < low <= high")
    window = num_jobs / jobs_per_day * _SECONDS_PER_DAY
    rng = random.Random(seed)
    choices = list(gpu_choices)
    # Draw in job order, then sort by (submit time, draw index): the
    # index is unique, so the sort never compares the later fields.
    draws = [
        (
            round(rng.uniform(0.0, window), 1),
            index,
            round(rng.uniform(low, high), 1),
            rng.choice(choices),
        )
        for index in range(num_jobs)
    ]
    draws.sort()
    records = [
        TraceRecord(
            job_id=job_id,
            submit_time=submit_time,
            duration=duration,
            num_gpus=num_gpus,
        )
        for job_id, (submit_time, _, duration, num_gpus) in enumerate(draws)
    ]
    return Trace(
        name=name or f"replay-{num_jobs}", records=tuple(records)
    )
