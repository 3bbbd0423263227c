"""Synthetic Philly-like trace generation.

The paper evaluates on four virtual-cluster slices of the public
Microsoft Philly traces (992-5755 jobs each).  The raw traces are not
redistributable, so this module synthesizes traces with the same
published statistical shape:

* heavy-tailed (log-normal) job durations spanning minutes to days;
* power-of-two GPU counts dominated by single-GPU jobs (the Philly
  analysis paper reports >80% of jobs use <= 1 machine, most 1 GPU);
* bursty arrivals (hyper-parameter sweeps submit many jobs at once).

Four presets mirror the characters the paper attributes to its traces,
most notably trace 3: lightly loaded, with several very long jobs
submitted near the beginning (the reason Muri shows no makespan
speedup there).

All generation is seeded; the same preset + seed + size yields an
identical trace.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.numeric import ordered_sum
from repro.trace.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    poisson_arrivals,
    zero_arrivals,
)
from repro.trace.records import Trace, TraceRecord

__all__ = [
    "TracePreset",
    "PhillyTraceGenerator",
    "TRACE_PRESETS",
    "generate_trace",
    "PAPER_TRACE_IDS",
]

#: Trace ids used throughout the paper's figures.
PAPER_TRACE_IDS = ("1", "2", "3", "4")


@dataclass(frozen=True)
class TracePreset:
    """Statistical shape of one synthetic trace.

    Attributes:
        name: Preset label ("trace-1" .. "trace-4").
        num_jobs: Default job count (paper-scale).
        mean_interarrival: Mean seconds between submissions, expressed
            per 1000 jobs of paper scale; it is automatically loosened
            when a smaller trace is requested so the offered load stays
            comparable.
        duration_median: Median job duration in seconds.
        duration_sigma: Log-normal sigma of durations (heavier tail
            for larger sigma).
        duration_cap: Upper clip for durations.
        gpu_distribution: ``{num_gpus: probability}``.
        arrivals: "poisson", "bursty", or "diurnal".
        long_head_jobs: Number of extra-long jobs forced into the first
            5% of submissions (trace 3's defining quirk).
        long_head_duration: Duration of those long head jobs.
        target_load: Offered load (GPU-demand over capacity x span)
            relative to ``reference_gpus``.  Submission times are
            rescaled to hit this exactly, so a scaled-down trace keeps
            the preset's congestion level.
        reference_gpus: Cluster size the load targets (the paper's 64).
    """

    name: str
    num_jobs: int
    mean_interarrival: float
    duration_median: float
    duration_sigma: float
    duration_cap: float
    gpu_distribution: Dict[int, float]
    arrivals: str = "bursty"
    long_head_jobs: int = 0
    long_head_duration: float = 0.0
    target_load: Optional[float] = None
    reference_gpus: int = 64


_COMMON_GPUS = {1: 0.62, 2: 0.14, 4: 0.12, 8: 0.08, 16: 0.03, 32: 0.01}

#: The four evaluation traces.  Job counts straddle the paper's
#: 992-5755 range; loads differ so scheduler gaps differ per trace as
#: in Figs. 9-10.
TRACE_PRESETS: Dict[str, TracePreset] = {
    "1": TracePreset(
        name="trace-1",
        num_jobs=992,
        mean_interarrival=40.0,
        duration_median=900.0,
        duration_sigma=1.2,
        duration_cap=6 * 3600.0,
        gpu_distribution=dict(_COMMON_GPUS),
        arrivals="bursty",
        target_load=3.0,
    ),
    "2": TracePreset(
        name="trace-2",
        num_jobs=2463,
        mean_interarrival=18.0,
        duration_median=700.0,
        duration_sigma=1.4,
        duration_cap=8 * 3600.0,
        gpu_distribution={1: 0.50, 2: 0.18, 4: 0.16, 8: 0.10, 16: 0.04, 32: 0.02},
        arrivals="bursty",
        target_load=3.0,
    ),
    "3": TracePreset(
        name="trace-3",
        num_jobs=1277,
        mean_interarrival=120.0,
        duration_median=500.0,
        duration_sigma=1.1,
        duration_cap=4 * 3600.0,
        gpu_distribution=dict(_COMMON_GPUS),
        arrivals="poisson",
        long_head_jobs=6,
        long_head_duration=12 * 3600.0,
        target_load=0.55,
    ),
    "4": TracePreset(
        name="trace-4",
        num_jobs=5755,
        mean_interarrival=10.0,
        duration_median=400.0,
        duration_sigma=1.5,
        duration_cap=6 * 3600.0,
        gpu_distribution={1: 0.70, 2: 0.12, 4: 0.10, 8: 0.06, 16: 0.015, 32: 0.005},
        arrivals="diurnal",
        target_load=3.5,
    ),
}


class PhillyTraceGenerator:
    """Seeded generator for Philly-like synthetic traces."""

    def __init__(self, preset: TracePreset, seed: int = 0) -> None:
        self.preset = preset
        self.seed = seed

    def generate(self, num_jobs: Optional[int] = None) -> Trace:
        """Synthesize a trace.

        Args:
            num_jobs: Override the preset's job count (benchmarks use
                scaled-down traces for runtime).  The arrival rate is
                kept proportionate so the offered load matches the
                preset regardless of size.
        """
        preset = self.preset
        submit_times, durations, gpus = self._columns(num_jobs)
        n = len(durations)

        # Rescale submissions so the offered load matches the preset
        # regardless of trace size or arrival-process quirks.
        if preset.target_load is not None and n > 1:
            span = max(submit_times) or 1.0
            work = ordered_sum(d * g for d, g in zip(durations, gpus))
            current_load = work / (span * preset.reference_gpus)
            scale = current_load / preset.target_load
            submit_times = [t * scale for t in submit_times]

        records = [
            TraceRecord(i, submit_times[i], durations[i], gpus[i])
            for i in range(n)
        ]
        return Trace(name=preset.name, records=tuple(records))

    # -- internals ---------------------------------------------------------

    def _columns(
        self, num_jobs: Optional[int]
    ) -> Tuple[List[float], List[float], List[int]]:
        """Draw the raw ``(submit_times, durations, gpus)`` columns.

        Submit times are the arrival process's own, before the
        target-load rescale; every random number the trace uses is
        drawn here, in a fixed order.
        """
        preset = self.preset
        n = num_jobs if num_jobs is not None else preset.num_jobs
        if n < 1:
            raise ValueError("num_jobs must be >= 1")
        # zlib.crc32 is stable across processes (str hashes are salted).
        seed_material = f"{self.seed}/{preset.name}/{n}".encode()
        rng = random.Random(zlib.crc32(seed_material))

        submit_times = self._arrival_times(rng, n)

        # Log-normal durations clipped to [30 s, cap].
        mu = math.log(preset.duration_median)
        sigma = preset.duration_sigma
        cap = preset.duration_cap
        lognormvariate = rng.lognormvariate
        durations = [
            min(max(lognormvariate(mu, sigma), 30.0), cap) for _ in range(n)
        ]

        # GPU counts by inverse CDF over the ascending counts.
        thresholds: List[Tuple[float, int]] = []
        cumulative = 0.0
        for count, probability in sorted(preset.gpu_distribution.items()):
            cumulative += probability
            thresholds.append((cumulative, count))
        fallback = max(preset.gpu_distribution)
        draw = rng.random
        gpus = []
        for _ in range(n):
            roll = draw()
            for threshold, count in thresholds:
                if roll < threshold:
                    gpus.append(count)
                    break
            else:
                gpus.append(fallback)

        # Trace-3 quirk: plant long jobs near the head of the trace.
        head = max(1, n // 20)
        planted = min(preset.long_head_jobs, head)
        for _ in range(planted):
            index = rng.randrange(head)
            durations[index] = preset.long_head_duration * rng.uniform(0.8, 1.2)
        return submit_times, durations, gpus

    def _arrival_times(self, rng: random.Random, n: int) -> List[float]:
        preset = self.preset
        # Absolute rate does not matter: target_load rescaling pins the
        # offered load afterwards.  The process only shapes burstiness.
        interarrival = preset.mean_interarrival
        if preset.arrivals == "poisson":
            return poisson_arrivals(rng, n, interarrival)
        if preset.arrivals == "bursty":
            return bursty_arrivals(rng, n, interarrival)
        if preset.arrivals == "diurnal":
            return diurnal_arrivals(rng, n, interarrival)
        raise ValueError(f"unknown arrival process {preset.arrivals!r}")


def generate_trace(
    trace_id: str,
    num_jobs: Optional[int] = None,
    seed: int = 0,
    at_time_zero: bool = False,
) -> Trace:
    """Convenience front-end: synthesize one of the paper's traces.

    A prime trace is built in one pass from the generator's duration
    and GPU columns: every record is submitted at t = 0, in job-id
    order, under the name ``<preset>-prime``.  It equals
    ``generate(num_jobs).at_time_zero()`` record for record, since the
    submit-time rescale draws no random numbers and changes nothing
    but the submit times.

    Args:
        trace_id: "1".."4", optionally with a trailing apostrophe
            ("1'") or "-prime" suffix for the all-at-zero variant.
        num_jobs: Optional size override.
        seed: Generator seed.
        at_time_zero: Force the prime variant.
    """
    key = trace_id.strip()
    prime = at_time_zero
    if key.endswith("'"):
        key = key[:-1]
        prime = True
    if key.endswith("-prime"):
        key = key[: -len("-prime")]
        prime = True
    if key not in TRACE_PRESETS:
        raise KeyError(
            f"unknown trace id {trace_id!r}; valid: {', '.join(TRACE_PRESETS)}"
        )
    preset = TRACE_PRESETS[key]
    generator = PhillyTraceGenerator(preset, seed=seed)
    if not prime:
        return generator.generate(num_jobs)
    _, durations, gpus = generator._columns(num_jobs)
    records = tuple(
        TraceRecord(i, 0.0, durations[i], gpus[i]) for i in range(len(gpus))
    )
    return Trace(name=f"{preset.name}-prime", records=records)
