"""The worker monitor (Fig. 3).

The paper's worker monitor "collects the resource information of each
machine and tracks the progress of each job": per-machine GPU topology
and utilization, job progress reports from executors, and fault
notifications.  In the simulator it is an observer the
:class:`~repro.sim.simulator.ClusterSimulator` feeds during execution;
experiments use it for per-machine utilization breakdowns and
progress/fault audit trails that the cluster-wide metrics don't carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.jobs.resources import NUM_RESOURCES
from repro.numeric import ordered_sum
from repro.observe.events import EventCategory
from repro.observe.tracer import Tracer

__all__ = ["MachineSample", "ProgressReport", "FaultReport", "WorkerMonitor"]


@dataclass(frozen=True)
class MachineSample:
    """One machine's state over a simulated span.

    Attributes:
        time: Span start.
        span: Span length in seconds.
        machine_id: The machine observed.
        allocated_gpus: GPU slots allocated on the machine.
        utilization: Busy fraction per resource on this machine,
            normalized by its GPU count.
    """

    time: float
    span: float
    machine_id: int
    allocated_gpus: int
    utilization: Tuple[float, ...]


@dataclass(frozen=True)
class ProgressReport:
    """An executor's periodic progress report for one job."""

    time: float
    job_id: int
    iterations_remaining: float
    attained_service: float


@dataclass(frozen=True)
class FaultReport:
    """An executor's fault notification (section 5)."""

    time: float
    job_id: int


class WorkerMonitor:
    """Collects machine samples, progress reports, and fault reports.

    Args:
        progress_interval: Minimum simulated seconds between stored
            progress reports per job (keeps the audit trail compact).
        tracer: Optional :class:`~repro.observe.Tracer`; when enabled,
            fault reports become trace events and sample/report volumes
            are counted.
    """

    def __init__(
        self,
        progress_interval: float = 60.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if progress_interval <= 0:
            raise ValueError("progress_interval must be > 0")
        self.progress_interval = progress_interval
        self.tracer = tracer
        self._machine_samples: Dict[int, List[MachineSample]] = {}
        self._progress: Dict[int, List[ProgressReport]] = {}
        self._faults: List[FaultReport] = []
        self._last_progress_time: Dict[int, float] = {}

    # -- ingestion (called by the simulator / executors) -------------------

    def record_machine(
        self,
        time: float,
        span: float,
        machine_id: int,
        allocated_gpus: int,
        utilization: Tuple[float, ...],
    ) -> None:
        """Store one machine-level utilization sample."""
        if self.tracer is not None:
            self.tracer.count("monitor.machine_samples")
        self._machine_samples.setdefault(machine_id, []).append(
            MachineSample(time, span, machine_id, allocated_gpus, utilization)
        )

    def report_progress(
        self,
        time: float,
        job_id: int,
        iterations_remaining: float,
        attained_service: float,
    ) -> None:
        """Store a job progress report, rate-limited per job."""
        last = self._last_progress_time.get(job_id)
        if last is not None and time - last < self.progress_interval:
            return
        self._last_progress_time[job_id] = time
        if self.tracer is not None:
            self.tracer.count("monitor.progress_reports")
        self._progress.setdefault(job_id, []).append(
            ProgressReport(time, job_id, iterations_remaining, attained_service)
        )

    def report_fault(self, time: float, job_id: int) -> None:
        """Store a fault notification."""
        if self.tracer is not None:
            self.tracer.emit(
                EventCategory.JOB, "monitor.fault_report", time, job=job_id
            )
        self._faults.append(FaultReport(time, job_id))

    # -- queries (what the scheduler asks the monitor) -----------------------

    def machine_ids(self) -> List[int]:
        return sorted(self._machine_samples)

    def machine_samples(self, machine_id: int) -> List[MachineSample]:
        return list(self._machine_samples.get(machine_id, []))

    def machine_utilization(self, machine_id: int) -> Tuple[float, ...]:
        """Time-weighted mean busy fraction per resource on a machine."""
        samples = self._machine_samples.get(machine_id, [])
        total = ordered_sum(s.span for s in samples)
        if total <= 0:
            return (0.0,) * NUM_RESOURCES
        return tuple(
            ordered_sum(s.utilization[r] * s.span for s in samples) / total
            for r in range(NUM_RESOURCES)
        )

    def busiest_machine(self) -> Optional[int]:
        """Machine with the highest mean GPU-stage utilization."""
        best_id, best_value = None, -1.0
        for machine_id in self._machine_samples:
            value = self.machine_utilization(machine_id)[2]
            if value > best_value:
                best_id, best_value = machine_id, value
        return best_id

    def progress_of(self, job_id: int) -> List[ProgressReport]:
        return list(self._progress.get(job_id, []))

    def faults(self) -> List[FaultReport]:
        return list(self._faults)

    def fault_count(self, job_id: Optional[int] = None) -> int:
        if job_id is None:
            return len(self._faults)
        return sum(1 for f in self._faults if f.job_id == job_id)
