"""The scheduler daemon: online submission over the batch machinery.

A :class:`SchedulerService` holds one
:class:`~repro.sim.simulator.ClusterSimulator` open (via its
``begin``/``step``/``finalize`` API) and exposes the client surface of
an always-on scheduler:

* **submit** — admission-controlled: oversized jobs, a full pending
  queue, or a draining service yield a structured
  :class:`SubmitRejected` instead of silent queue growth;
* **status** — service-wide counts or one job's lifecycle state;
* **cancel** — drops a queued job, or stops a running job's group and
  requeues its partners;
* **drain** — stop admitting, let admitted work finish, then flush a
  final :class:`~repro.sim.metrics.SimulationResult`.

State mutations are plain synchronous methods, so the service is
driven either by :meth:`run_sync` (deterministic virtual time — tests,
CI, `repro serve --drain`) or by the asyncio :meth:`run` loop paced by
a :class:`~repro.service.clock.VirtualClock` or
:class:`~repro.service.clock.WallClock` (the socket daemon).  All
methods must be called from one thread/event loop; cross-process
clients go through :class:`~repro.service.server.ServiceServer`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.jobs.job import JobSpec, JobStatus
from repro.observe.events import EventCategory
from repro.observe.tracer import Tracer
from repro.service.clock import VirtualClock
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import ClusterSimulator

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import asyncio

__all__ = ["SchedulerService", "SubmitRejected"]


class SubmitRejected(Exception):
    """Admission control refused a submission.

    Attributes:
        code: Machine-readable rejection reason.  Single-daemon codes
            are ``"queue_full"``, ``"draining"``, ``"too_large"``, and
            ``"stopped"``; the fleet front-end adds the tenant-scoped
            codes ``"unknown_tenant"``, ``"quota_exceeded"``,
            ``"credits_exhausted"``, and ``"no_shard"`` (the full list
            is :data:`repro.service.protocol.REJECTION_CODES`).
        tenant: Tenant whose submission was refused, when known.
        details: Structured context for the refusal (e.g. the quota
            bound that was hit); empty for plain daemon rejects.
    """

    def __init__(
        self,
        code: str,
        message: str,
        tenant: Optional[str] = None,
        details: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(message)
        self.code = code
        self.tenant = tenant
        self.details = details or {}


class SchedulerService:
    """An always-on scheduling service over one simulator.

    Args:
        simulator: The configured simulator to hold open.  For the
            paper-faithful event-driven mode, build it with
            ``reschedule_on_arrival=True``, ``arrival_reason="arrival"``
            and ``backfill_on_completion=True``, and give Muri
            ``event_regroup=True`` so arrival/completion events regroup
            (incrementally, via the per-bucket decision cache) instead
            of serving a stale backfill reservoir.
        max_pending: Admission bound on jobs in the PENDING state
            (queued, arrived-but-waiting, or preempted).  Submissions
            beyond it are rejected with code ``"queue_full"``.
        clock: Pacing driver for :meth:`run`; defaults to a
            :class:`~repro.service.clock.VirtualClock`.
        trace_name: Workload label on the final result.
        tracer: Optional tracer for service events/counters; defaults
            to the simulator's tracer, so one
            :class:`~repro.verify.InvariantChecker` can arm the whole
            live loop.
    """

    def __init__(
        self,
        simulator: ClusterSimulator,
        max_pending: int = 1024,
        clock: Optional[object] = None,
        trace_name: str = "service",
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.simulator = simulator
        self.max_pending = max_pending
        self.clock = clock if clock is not None else VirtualClock()
        self.tracer = tracer if tracer is not None else simulator.tracer
        self.state = simulator.begin([], trace_name, allow_empty=True)
        self.draining = False
        self.result: Optional[SimulationResult] = None
        self._wake: Optional[asyncio.Event] = None

    # -- client API --------------------------------------------------------

    def submit(self, spec: JobSpec) -> int:
        """Admit one job; returns its id.

        Raises:
            SubmitRejected: With a structured code when admission
                control refuses the job (see class docstring).
        """
        if self.result is not None or self.state.finalized:
            self._reject("stopped", spec, "service already drained")
        if self.draining:
            self._reject("draining", spec, "service is draining")
        total_gpus = self.simulator.cluster.total_gpus
        if spec.num_gpus > total_gpus:
            self._reject(
                "too_large", spec,
                f"{spec.name} needs {spec.num_gpus} GPUs but the "
                f"cluster has {total_gpus}",
            )
        if self.pending_count >= self.max_pending:
            self._reject(
                "queue_full", spec,
                f"pending queue is at its bound ({self.max_pending})",
            )
        job = self.simulator.inject(self.state, spec)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                EventCategory.SERVICE,
                "service.submit",
                self.state.now,
                job=job.job_id,
                gpus=spec.num_gpus,
                submit_time=spec.submit_time,
            )
            tracer.count("service.submitted")
        self._notify()
        return job.job_id

    def cancel(self, job_id: int) -> bool:
        """Cancel one job; True when it existed and was not terminal."""
        cancelled = self.simulator.cancel(self.state, job_id)
        tracer = self.tracer
        if cancelled and tracer is not None and tracer.enabled:
            tracer.emit(
                EventCategory.SERVICE,
                "service.cancel",
                self.state.now,
                job=job_id,
            )
            tracer.count("service.cancelled")
        if cancelled:
            self._notify()
        return cancelled

    def status(self, job_id: Optional[int] = None) -> Dict[str, Any]:
        """Service-wide counters, or one job's state when ``job_id`` given.

        Raises:
            KeyError: For an unknown ``job_id``.
        """
        state = self.state
        if job_id is not None:
            job = state.jobs.get(job_id)
            if job is None:
                raise KeyError(f"unknown job id {job_id}")
            return {
                "job_id": job_id,
                "status": job.status.value,
                "submit_time": job.spec.submit_time,
                "remaining_iterations": job.remaining_iterations,
                "finish_time": job.finish_time,
            }
        by_status = {status: 0 for status in JobStatus}
        for job in state.jobs.values():
            by_status[job.status] += 1
        return {
            "now": state.now,
            "draining": self.draining,
            "done": self.is_done,
            "jobs": len(state.jobs),
            "pending": by_status[JobStatus.PENDING],
            "running": by_status[JobStatus.RUNNING],
            "finished": by_status[JobStatus.FINISHED],
            "cancelled": by_status[JobStatus.FAILED],
            "free_gpus": self.simulator.cluster.free_gpus,
            "max_pending": self.max_pending,
        }

    def drain(self) -> None:
        """Stop admitting; admitted work runs to completion.

        Idempotent.  Once every admitted job is terminal the driver
        loop flushes the final result (see :meth:`finish`).
        """
        if self.draining:
            return
        self.draining = True
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                EventCategory.SERVICE,
                "service.drain",
                self.state.now,
                jobs=len(self.state.jobs),
                unfinished=self.state.unfinished,
            )
        self._notify()

    # -- lifecycle ---------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Jobs currently occupying pending-queue slots.

        Every non-terminal job is either RUNNING (a member of a live
        group) or PENDING (queued, not-yet-arrived, or preempted), so
        the count is derived from the simulator's maintained active
        counter minus the running members — O(groups), not O(jobs),
        which keeps admission control flat on long streams.
        """
        running = sum(
            len(rgroup.active) for rgroup in self.state.running.values()
        )
        return self.state.unfinished - running

    @property
    def is_done(self) -> bool:
        """Draining and every admitted job is terminal."""
        return self.draining and self.state.unfinished == 0

    def step(self) -> None:
        """Advance the underlying simulation by one iteration."""
        self.simulator.step(self.state)

    def run_sync(self, drain: bool = True) -> SimulationResult:
        """Drive the service to completion synchronously.

        Deterministic (virtual-time) driver for tests and
        ``repro serve --drain``: no asyncio, no clock.

        Args:
            drain: Call :meth:`drain` first (the default); pass False
                when a drain was already requested.

        Returns:
            The final flushed result.
        """
        if drain:
            self.drain()
        while not self.is_done:
            self.simulator.step(self.state)
        return self.finish()

    async def run(self) -> SimulationResult:
        """The daemon main loop: drive until drained and complete.

        Each iteration steps the simulation (which jumps simulated
        time to the next event horizon) and then pauses on the
        configured clock until real time catches up to that horizon;
        while no admitted work remains and no drain was requested the
        loop idles without burning scheduler ticks.  Submissions,
        cancels, and drain requests wake the loop immediately; a live
        submission therefore lands on the next horizon boundary.
        """
        import asyncio

        self._wake = asyncio.Event()
        try:
            while not self.is_done:
                if self.state.unfinished == 0:
                    # Idle: wait for a submission or a drain request.
                    await self._wake.wait()
                    self._wake.clear()
                    continue
                previous = self.state.now
                self.simulator.step(self.state)
                # Let real time catch up to the horizon the step
                # advanced to before its events are processed (or the
                # drained result is reported) in the next iteration.
                await self.clock.pause(previous, self.state.now, self._wake)
                self._wake.clear()
        finally:
            self._wake = None
        return self.finish()

    def finish(self) -> SimulationResult:
        """Flush and return the final result (idempotent)."""
        if self.result is None:
            self.result = self.simulator.finalize(self.state)
            tracer = self.tracer
            if tracer is not None and tracer.enabled:
                tracer.emit(
                    EventCategory.SERVICE,
                    "service.drained",
                    self.state.now,
                    jobs=len(self.state.jobs),
                    finished=len(self.result.jcts),
                )
        return self.result

    # -- internals ---------------------------------------------------------

    def _reject(self, code: str, spec: JobSpec, message: str) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                EventCategory.SERVICE,
                "service.reject",
                self.state.now,
                code=code,
                job=spec.job_id,
                gpus=spec.num_gpus,
            )
            tracer.count(f"service.rejected.{code}")
        raise SubmitRejected(code, message)

    def _notify(self) -> None:
        if self._wake is not None:
            self._wake.set()
