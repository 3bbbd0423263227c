"""Simulation metrics: the quantities the paper's evaluation reports.

* **average / tail JCT** and **makespan** — headline metrics of
  Tables 4-5 and Figs. 9-10;
* **queue length** — pending jobs over time (Fig. 8);
* **blocking index** — mean ratio of pending time to remaining time of
  pending jobs, the starvation indicator of Fig. 8;
* **per-resource utilization** — storage/CPU/GPU/network busy
  fractions over time (Fig. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.jobs.resources import NUM_RESOURCES, RESOURCE_ORDER, Resource
from repro.numeric import ordered_sum

__all__ = ["TimePoint", "MetricsSummary", "SimulationResult", "percentile"]

_NUMBER = (int, float)


def check_fields(
    payload: Any, owner: str, required: Mapping[str, Any],
    optional: Mapping[str, Any] = {},
) -> None:
    """Check a decoded JSON ``payload`` against ``{field: type(s)}`` maps.

    Raises:
        ValueError: Naming ``owner`` and the field, when ``payload`` is
            not an object, lacks a required field, or holds a listed
            field of another type.
    """
    if not isinstance(payload, Mapping):
        raise ValueError(f"{owner} payload must be a JSON object, "
                         f"got {type(payload).__name__}")
    for name, types in {**optional, **required}.items():
        if name not in payload:
            if name in required:
                raise ValueError(f"{owner} payload lacks field {name!r}")
        elif not isinstance(payload[name], types):
            raise ValueError(f"{owner} field {name!r} has type "
                             f"{type(payload[name]).__name__}")


def percentile(
    values: Sequence[float], q: float, presorted: bool = False
) -> float:
    """Linear-interpolation percentile (q in [0, 100]).

    Args:
        values: The sample.
        q: The percentile, 0-100 inclusive.
        presorted: Set True when ``values`` is already in ascending
            order to skip the O(n log n) sort — the multi-quantile
            paths (:meth:`SimulationResult.summary`,
            :meth:`SimulationResult.jct_cdf`) sort once and reuse.

    Raises:
        ValueError: On an empty sequence or q outside [0, 100].
    """
    if not values:
        raise ValueError("cannot take the percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = values if presorted else sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    last = len(ordered) - 1
    # The float rank can land outside [0, last] when q arrives as a
    # reduced-precision real (e.g. a numpy float32 from an aggregation
    # pipeline): the product then rounds past the end and indexing
    # would raise IndexError.  Clamp before indexing — through float(),
    # because comparing a float32 rank against an int demotes the int
    # to float32 and can hide the overshoot.
    rank = float(last * q / 100.0)
    if rank < 0:
        rank = 0.0
    elif rank > last:
        rank = float(last)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight


@dataclass(frozen=True)
class TimePoint:
    """One sample of the cluster's instantaneous state.

    Attributes:
        time: Sample time (start of the span it describes).
        span: Seconds until the next sample.
        queue_length: Pending (submitted, not running) jobs.
        running_jobs: Jobs currently making progress.
        blocking_index: Mean pending/remaining ratio over pending jobs
            (zero when nothing is pending).
        utilization: Busy fraction per resource, in
            (storage, CPU, GPU, network) order, normalized by total
            cluster GPUs.
    """

    time: float
    span: float
    queue_length: int
    running_jobs: int
    blocking_index: float
    utilization: Tuple[float, ...]


@dataclass(frozen=True)
class MetricsSummary:
    """Headline metrics of one simulation."""

    avg_jct: float
    p50_jct: float
    p99_jct: float
    makespan: float
    avg_queue_length: float
    avg_blocking_index: float
    avg_utilization: Tuple[float, ...]
    total_preemptions: int
    num_jobs: int


@dataclass
class SimulationResult:
    """Everything a simulation run produced.

    Attributes:
        scheduler_name: Scheduler that produced the run.
        trace_name: Workload label.
        jcts: Completion time per job id.
        finish_times: Absolute finish time per job id.
        submit_times: Absolute submit time per job id.
        timeseries: Sampled cluster state over the run.
        total_preemptions: Stop/restart events across all jobs.
        total_restart_time: Seconds lost to restart penalties.
        wall_clock: Real seconds the simulation took (not simulated
            time).
        gpu_seconds_by_type: Occupied GPU-seconds per GPU generation
            (empty on untyped clusters); fed by the simulator's
            advance loop, including restart-penalty time — occupancy,
            not productive work.
        gpus_by_type: Total GPU slots per generation of the cluster
            the run used (empty on untyped clusters).
    """

    scheduler_name: str
    trace_name: str
    jcts: Dict[int, float] = field(default_factory=dict)
    finish_times: Dict[int, float] = field(default_factory=dict)
    submit_times: Dict[int, float] = field(default_factory=dict)
    timeseries: List[TimePoint] = field(default_factory=list)
    total_preemptions: int = 0
    total_restart_time: float = 0.0
    wall_clock: float = 0.0
    gpu_seconds_by_type: Dict[str, float] = field(default_factory=dict)
    gpus_by_type: Dict[str, int] = field(default_factory=dict)

    # -- headline metrics ---------------------------------------------------

    @property
    def num_jobs(self) -> int:
        """Number of completed jobs."""
        return len(self.jcts)

    @property
    def avg_jct(self) -> float:
        """Mean job completion time."""
        if not self.jcts:
            raise ValueError("no completed jobs")
        return ordered_sum(self.jcts.values()) / len(self.jcts)

    def tail_jct(self, q: float = 99.0) -> float:
        """The q-th percentile JCT (the paper reports the 99th)."""
        return percentile(list(self.jcts.values()), q)

    def jct_cdf(self, points: int = 20) -> List[Tuple[float, float]]:
        """The JCT distribution as ``(jct_seconds, fraction <= jct)``.

        Args:
            points: Number of evenly spaced quantile samples.

        Raises:
            ValueError: With no completed jobs or ``points < 2``.
        """
        if points < 2:
            raise ValueError("points must be >= 2")
        values = sorted(self.jcts.values())
        if not values:
            raise ValueError("no completed jobs")
        cdf = []
        for index in range(points):
            fraction = index / (points - 1)
            cdf.append(
                (percentile(values, 100.0 * fraction, presorted=True),
                 fraction)
            )
        return cdf

    @property
    def makespan(self) -> float:
        """Time from trace start until the last job completes."""
        if not self.finish_times:
            raise ValueError("no completed jobs")
        return max(self.finish_times.values())

    # -- time-weighted series averages ----------------------------------------

    def _weighted_average(self, extractor) -> float:
        total_span = ordered_sum(p.span for p in self.timeseries)
        if total_span <= 0:
            return 0.0
        return ordered_sum(
            extractor(p) * p.span for p in self.timeseries
        ) / total_span

    @property
    def avg_queue_length(self) -> float:
        """Time-weighted mean number of pending jobs."""
        return self._weighted_average(lambda p: p.queue_length)

    @property
    def avg_blocking_index(self) -> float:
        """Time-weighted mean blocking index (Fig. 8)."""
        return self._weighted_average(lambda p: p.blocking_index)

    def avg_utilization(self) -> Tuple[float, ...]:
        """Time-weighted mean busy fraction per resource."""
        return tuple(
            self._weighted_average(lambda p, j=j: p.utilization[j])
            for j in range(NUM_RESOURCES)
        )

    def utilization_of(self, resource: Resource) -> float:
        """Time-weighted mean busy fraction of one resource."""
        return self.avg_utilization()[Resource(resource)]

    # -- summaries ----------------------------------------------------------------

    def utilization_by_type(self) -> Dict[str, float]:
        """Occupancy fraction per GPU generation over the makespan.

        ``gpu_seconds / (slots * makespan)`` for each generation the
        cluster carried; empty on untyped clusters.  This is the
        per-generation view the heterogeneous sweep and bench report
        — it shows where a placement policy actually lands work.
        """
        if not self.gpus_by_type or not self.finish_times:
            return {}
        horizon = self.makespan
        if horizon <= 0:
            return {name: 0.0 for name in self.gpus_by_type}
        return {
            name: (
                self.gpu_seconds_by_type.get(name, 0.0)
                / (slots * horizon)
            )
            for name, slots in sorted(self.gpus_by_type.items())
            if slots > 0
        }

    def summary(self) -> MetricsSummary:
        """Collapse the run into a :class:`MetricsSummary`."""
        # Both quantiles share one sort instead of re-sorting per call.
        ordered_jcts = sorted(self.jcts.values())
        return MetricsSummary(
            avg_jct=self.avg_jct,
            p50_jct=percentile(ordered_jcts, 50.0, presorted=True),
            p99_jct=percentile(ordered_jcts, 99.0, presorted=True),
            makespan=self.makespan,
            avg_queue_length=self.avg_queue_length,
            avg_blocking_index=self.avg_blocking_index,
            avg_utilization=self.avg_utilization(),
            total_preemptions=self.total_preemptions,
            num_jobs=self.num_jobs,
        )

    # -- serialization ------------------------------------------------------

    #: Schema version of :meth:`to_dict` payloads.
    FORMAT_VERSION = 1

    def to_dict(self) -> Dict:
        """Serialize to plain JSON-compatible data.

        Round-trips through :meth:`from_dict`; job-id keys become
        strings (JSON object keys), the time series a list of dicts.
        The per-generation dicts appear only when populated, so every
        pre-hetero payload (and committed baseline) is byte-stable.
        """
        payload = {
            "format_version": self.FORMAT_VERSION,
            "scheduler_name": self.scheduler_name,
            "trace_name": self.trace_name,
            "jcts": {str(k): v for k, v in self.jcts.items()},
            "finish_times": {str(k): v for k, v in self.finish_times.items()},
            "submit_times": {str(k): v for k, v in self.submit_times.items()},
            "total_preemptions": self.total_preemptions,
            "total_restart_time": self.total_restart_time,
            "wall_clock": self.wall_clock,
            "timeseries": [
                {
                    "time": p.time,
                    "span": p.span,
                    "queue_length": p.queue_length,
                    "running_jobs": p.running_jobs,
                    "blocking_index": p.blocking_index,
                    "utilization": list(p.utilization),
                }
                for p in self.timeseries
            ],
        }
        if self.gpu_seconds_by_type:
            payload["gpu_seconds_by_type"] = dict(
                sorted(self.gpu_seconds_by_type.items())
            )
        if self.gpus_by_type:
            payload["gpus_by_type"] = dict(sorted(self.gpus_by_type.items()))
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output.

        Raises:
            ValueError: On an unknown format version, a non-object
                payload, or a missing or mistyped field (named).
        """
        check_fields(payload, "SimulationResult", {})
        version = payload.get("format_version")
        if version != cls.FORMAT_VERSION:
            raise ValueError(
                f"unsupported result format version: {version!r}"
            )
        check_fields(payload, "SimulationResult", {
            "scheduler_name": str, "trace_name": str, "jcts": dict,
            "finish_times": dict, "submit_times": dict,
            "total_preemptions": int, "total_restart_time": _NUMBER,
            "wall_clock": _NUMBER, "timeseries": list,
        }, {"gpu_seconds_by_type": dict, "gpus_by_type": dict})
        if not all(isinstance(p, dict) for p in payload["timeseries"]):
            raise ValueError("SimulationResult field 'timeseries' holds a "
                             "non-object point")
        result = cls(
            scheduler_name=payload["scheduler_name"],
            trace_name=payload["trace_name"],
            jcts={int(k): v for k, v in payload["jcts"].items()},
            finish_times={
                int(k): v for k, v in payload["finish_times"].items()
            },
            submit_times={
                int(k): v for k, v in payload["submit_times"].items()
            },
            total_preemptions=payload["total_preemptions"],
            total_restart_time=payload["total_restart_time"],
            wall_clock=payload["wall_clock"],
        )
        result.timeseries = [
            TimePoint(
                time=p["time"],
                span=p["span"],
                queue_length=p["queue_length"],
                running_jobs=p["running_jobs"],
                blocking_index=p["blocking_index"],
                utilization=tuple(p["utilization"]),
            )
            for p in payload["timeseries"]
        ]
        result.gpu_seconds_by_type = dict(
            payload.get("gpu_seconds_by_type", {})
        )
        result.gpus_by_type = {
            name: int(slots)
            for name, slots in payload.get("gpus_by_type", {}).items()
        }
        return result

    def speedup_over(self, baseline: "SimulationResult") -> Dict[str, float]:
        """Baseline-normalized improvements (>1 means this run wins).

        Matches the paper's reporting: "Muri improves average JCT by
        2.03x" means baseline avg JCT / Muri avg JCT = 2.03.
        """
        return {
            "avg_jct": baseline.avg_jct / self.avg_jct,
            "makespan": baseline.makespan / self.makespan,
            "p99_jct": baseline.tail_jct(99.0) / self.tail_jct(99.0),
        }
