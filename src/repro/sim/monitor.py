"""The worker monitor (Fig. 3).

The paper's worker monitor "collects the resource information of each
machine and tracks the progress of each job": per-machine GPU topology
and utilization, job progress reports from executors, and fault
notifications.  In the simulator it is a tracer subscriber: attach it
with ``tracer.subscribe(monitor)`` on the tracer passed to
:class:`~repro.sim.simulator.ClusterSimulator`.  It samples machines
and job progress at the simulator's per-step ``"sim.timepoint"``
inspect point and takes fault notifications from the ``job.fault``
event.  Experiments use it for per-machine utilization breakdowns and
progress/fault audit trails that the cluster-wide metrics don't carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.jobs.resources import NUM_RESOURCES
from repro.numeric import ordered_sum

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

    A :class:`~repro.observe.Tracer` subscriber (``tracer.subscribe``).

    Args:
        progress_interval: Minimum simulated seconds between stored
            progress reports per job (keeps the audit trail compact).
    """

    def __init__(self, progress_interval: float = 60.0) -> None:
        if progress_interval <= 0:
            raise ValueError("progress_interval must be > 0")
        self.progress_interval = progress_interval
        self._machine_samples: Dict[int, List[MachineSample]] = {}
        self._progress: Dict[int, List[ProgressReport]] = {}
        self._faults: List[FaultReport] = []
        self._last_progress_time: Dict[int, float] = {}

    # -- tracer subscriber ----------------------------------------------------

    def on_event(self, name: str, sim_time: float, args: Mapping[str, Any]) -> None:
        """Store a fault notification for each ``job.fault`` event."""
        if name == "job.fault":
            self.report_fault(sim_time, args["job"])

    def on_inspect(self, point: str, now: float, state: Mapping[str, Any]) -> None:
        """Report per-machine utilization and job progress (Fig. 3) at
        each ``sim.timepoint``."""
        if point != "sim.timepoint":
            return
        span, cluster = state["span"], state["cluster"]
        contention = state["contention"]
        uncoordinated_penalty = state["uncoordinated_penalty"]
        machine_util: Dict[int, List[float]] = {
            m.machine_id: [0.0] * NUM_RESOURCES for m in cluster.machines
        }
        machine_alloc: Dict[int, int] = {
            m.machine_id: m.allocated_gpu_count for m in cluster.machines
        }
        for rgroup in state["running"].values():
            period = rgroup.period(contention, uncoordinated_penalty)
            productive_share = (
                max(0.0, (span - rgroup.penalty_remaining) / span)
                if span > 0 else 0.0
            )
            slots_per_machine: Dict[int, int] = {}
            for slot in rgroup.allocation.slots:
                slots_per_machine[slot.machine_id] = (
                    slots_per_machine.get(slot.machine_id, 0) + 1
                )
            for machine_id, slots in slots_per_machine.items():
                weight = (
                    slots
                    / cluster.machine(machine_id).num_gpus
                    * productive_share
                )
                for resource in range(NUM_RESOURCES):
                    machine_util[machine_id][resource] += (
                        rgroup.busy_time(resource) / period * weight
                    )
            for job in rgroup.active:
                self.report_progress(
                    now, job.job_id, job.remaining_iterations,
                    job.attained_service,
                )
        for machine_id, utilization in machine_util.items():
            self.record_machine(
                now,
                span,
                machine_id,
                machine_alloc[machine_id],
                tuple(min(1.0, u) for u in utilization),
            )

    # -- ingestion -----------------------------------------------------------

    def record_machine(
        self,
        time: float,
        span: float,
        machine_id: int,
        allocated_gpus: int,
        utilization: Tuple[float, ...],
    ) -> None:
        """Store one machine-level utilization sample."""
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
        self._progress.setdefault(job_id, []).append(
            ProgressReport(time, job_id, iterations_remaining, attained_service)
        )

    def report_fault(self, time: float, job_id: int) -> None:
        """Store a fault notification."""
        self._faults.append(FaultReport(time, job_id))

    # -- queries (what the scheduler asks the monitor) -----------------------

    def machine_ids(self) -> List[int]:
        """Ids of every machine sampled so far, ascending."""
        return sorted(self._machine_samples)

    def machine_samples(self, machine_id: int) -> List[MachineSample]:
        """One machine's samples, in time order."""
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
        """One job's stored progress reports, in time order."""
        return list(self._progress.get(job_id, []))

    def faults(self) -> List[FaultReport]:
        """Every fault notification, in arrival order."""
        return list(self._faults)

    def fault_count(self, job_id: Optional[int] = None) -> int:
        """Faults of one job, or of every job when ``job_id`` is None."""
        if job_id is None:
            return len(self._faults)
        return sum(1 for f in self._faults if f.job_id == job_id)
