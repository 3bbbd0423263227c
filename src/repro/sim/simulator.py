"""Discrete-event cluster simulator.

Drives a scheduler against a workload, executing interleaving groups
with the paper's semantics:

* a group's members advance in lockstep, one iteration per interleaved
  period ``T`` (Eq. 3 under the group's chosen ordering), inflated by
  the contention model;
* every newly (re)started group pays a restart penalty before making
  progress — the preemption/restart overhead that motivates the
  paper's six-minute scheduling interval;
* when a member finishes, the group keeps running with the remaining
  members at their original phase offsets (the period usually drops);
* uncoordinated groups (AntMan) pay an extra sharing penalty because
  their stages collide instead of phase-shifting;
* the scheduler is re-invoked on a fixed interval and on completions,
  mirroring "periodically invoked on events like job arrival and job
  completion" (section 3).

The simulator is deterministic given the workload and scheduler.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Allocation, Cluster
from repro.cluster.placement import DescendingPlacer
from repro.core.group import JobGroup
from repro.core.ordering import group_iteration_time
from repro.jobs.job import Job, JobSpec, JobStatus
from repro.jobs.resources import NUM_RESOURCES
from repro.numeric import ordered_sum
from repro.observe.events import EventCategory
from repro.observe.provenance import OutcomeRecord
from repro.observe.tracer import Tracer, maybe_span
from repro.schedulers.base import Scheduler, group_key
from repro.sim.contention import DEFAULT_CONTENTION, ContentionModel
from repro.sim.engine import Event, EventKind, EventQueue
from repro.sim.faults import FaultInjector
from repro.sim.metrics import SimulationResult, TimePoint

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hetero.types import TypeScaling

__all__ = ["ClusterSimulator", "SimulationError", "SimulationState"]

_EPS = 1e-9
#: Iterations below this count as "finished" (guards float drift).
_ITER_EPS = 1e-6


class SimulationError(RuntimeError):
    """The simulation cannot make progress or exceeded its step budget."""


@dataclass
class _RunningGroup:
    """Executor-side state of one placed group."""

    group: JobGroup
    allocation: Allocation
    active: List[Job]
    offsets: Dict[int, int]
    penalty_remaining: float = 0.0
    fault_deadlines: Dict[int, float] = field(default_factory=dict)
    #: Speed factor of the landing GPU generation relative to the
    #: members' profile baseline (``landing_speed_scaling``).  1.0 —
    #: the default, and always when the scaling is off — leaves the
    #: period arithmetic untouched.
    speedup: float = 1.0
    #: GPU slots held per generation name; None on untyped clusters,
    #: where per-generation occupancy is not tracked.
    slots_by_type: Optional[Dict[str, int]] = None
    #: ``(key, period)`` of the last :meth:`period` computation.  The
    #: key is ``(len(active), contention, uncoordinated_penalty,
    #: speedup)``: ``active`` only ever shrinks (members finish or
    #: fault out) and a resize stops the group first, so a member
    #: count names one member set and its profiles.
    _period_memo: Optional[Tuple[tuple, float]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def period(self, contention: ContentionModel, uncoordinated_penalty: float) -> float:
        """Current true iteration period of the active members."""
        key = (len(self.active), contention, uncoordinated_penalty, self.speedup)
        memo = self._period_memo
        # The contention model is matched by identity, the rest by value.
        if memo is not None and memo[0][1] is contention and memo[0] == key:
            return memo[1]
        value = self._compute_period(contention, uncoordinated_penalty)
        self._period_memo = (key, value)
        return value

    def _compute_period(
        self, contention: ContentionModel, uncoordinated_penalty: float
    ) -> float:
        """:meth:`period` without the memo."""
        profiles = tuple(job.profile for job in self.active)
        offsets = tuple(self.offsets[job.job_id] for job in self.active)
        base = group_iteration_time(profiles, offsets, self.group.num_resources)
        factor = contention.factor(len(self.active), self.allocation.spans_machines)
        if not self.group.coordinated and len(self.active) > 1:
            factor *= uncoordinated_penalty
        if self.speedup != 1.0:
            factor /= self.speedup
        return base * factor

    def busy_time(self, resource: int) -> float:
        """Seconds per period the active members keep ``resource`` busy."""
        return ordered_sum(
            job.profile.durations[resource] for job in self.active
        )

    def time_to_next_event(
        self, contention: ContentionModel, uncoordinated_penalty: float
    ) -> float:
        """Seconds until this group's earliest completion or fault."""
        period = self.period(contention, uncoordinated_penalty)
        horizon = min(
            job.remaining_iterations * period for job in self.active
        )
        for job in self.active:
            deadline = self.fault_deadlines.get(job.job_id)
            if deadline is not None:
                horizon = min(horizon, deadline)
        return self.penalty_remaining + horizon


@dataclass
class SimulationState:
    """Live state of an in-progress simulation.

    Produced by :meth:`ClusterSimulator.begin`, advanced by
    :meth:`ClusterSimulator.step`, and closed by
    :meth:`ClusterSimulator.finalize`.  ``run()`` is exactly this
    sequence; long-lived drivers (``repro.service``) hold the state
    open and feed it new jobs with :meth:`ClusterSimulator.inject`.

    Attributes:
        jobs: Every job the simulation knows, by id.
        pending: Arrived jobs not currently running.
        running: Executing groups keyed by member-id frozenset.
        events: The external event queue (arrivals, ticks, faults).
        result: The result being accumulated.
        now: Current simulation time.
        steps: Simulator iterations executed so far.
        step_budget: Safety valve on iterations.
        need_reschedule: A scheduler invocation is owed next step.
        reschedule_reason: The ``reason`` label that invocation will
            carry ("completion" unless a driver overrides it).
        tick_scheduled: A TICK event has been queued at least once.
        started_wall: ``time.monotonic()`` at :meth:`begin`.
        finalized: :meth:`finalize` has run.
    """

    jobs: Dict[int, Job]
    pending: Dict[int, Job]
    running: Dict[FrozenSet[int], _RunningGroup]
    events: EventQueue
    result: SimulationResult
    trace_name: str
    now: float = 0.0
    steps: int = 0
    step_budget: int = 0
    need_reschedule: bool = False
    reschedule_reason: str = "completion"
    tick_scheduled: bool = False
    started_wall: float = 0.0
    finalized: bool = False
    active: int = 0

    @property
    def unfinished(self) -> int:
        """Jobs not yet in a terminal state (finished or cancelled).

        Maintained incrementally (``active``) so the run loops and the
        service's ``is_done`` poll stay O(1) per step — a recount over
        ``jobs`` would make long online streams quadratic.
        """
        return self.active


class ClusterSimulator:
    """Runs one scheduler over one workload on a simulated cluster.

    Args:
        scheduler: The policy under test.
        cluster: The cluster; defaults to the paper's 8 x 8 = 64 GPUs.
        scheduling_interval: Seconds between scheduler invocations (the
            paper uses six minutes).
        restart_penalty: Seconds a newly started or restarted group
            needs before making progress (process restore, CUDA
            context, data pipeline warm-up).
        contention: Group-size contention model.
        uncoordinated_penalty: Extra period factor for uncoordinated
            (AntMan-style) sharing groups.
        fault_injector: Optional fault model; faulted jobs are requeued
            with their progress (minus checkpoint loss) intact.
        backfill_on_completion: When False (the paper-faithful
            default), completions free GPUs but new jobs start only at
            the next scheduling tick, as in the prototype's six-minute
            interval.  When True, every completion immediately
            re-invokes the scheduler (an idealized event-driven mode).
        reschedule_on_arrival: When True, a job arrival immediately
            re-invokes the scheduler instead of waiting for the next
            tick (section 3 mentions arrival events; the prototype's
            fixed interval is the default).
        arrival_reason: The ``reason`` label arrival-triggered
            reschedules pass to :meth:`Scheduler.decide`.  The default
            ("completion") preserves the historical batch behaviour;
            the online service passes "arrival" so event-aware
            schedulers regroup instead of serving a stale backfill
            cache.
        placer: GPU placement policy; defaults to the paper's
            descending / best-fit consolidation.
        landing_speed_scaling: Optional per-model × per-generation
            speed factors (:class:`~repro.hetero.TypeScaling`).  When
            set, a placed group whose profiles are *baseline* —
            soft-preference and unaffine jobs; hard pins were
            pre-scaled by ``pin_jobs`` — runs at the speed of the
            slowest generation its allocation touches: the period
            divides by ``factor(lead model, generation)``.  None (the
            default) keeps the pre-hetero arithmetic bit-identical.
        tracer: Optional :class:`~repro.observe.Tracer`, the run's one
            observation channel.  When enabled, the run emits job
            lifecycle events (arrival, start, preemption, fault,
            finish), per-invocation scheduling decisions, and group
            placement outcomes, files per-job
            :class:`~repro.observe.OutcomeRecord` provenance, and
            exposes live state at ``inspect`` points; observers such as
            :class:`~repro.sim.DecisionLog` and
            :class:`~repro.sim.WorkerMonitor` attach with
            :meth:`~repro.observe.Tracer.subscribe`.  None (the
            default) costs the hot paths nothing.
        max_steps: Safety valve on simulator iterations.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        cluster: Optional[Cluster] = None,
        scheduling_interval: float = 360.0,
        restart_penalty: float = 30.0,
        contention: ContentionModel = DEFAULT_CONTENTION,
        uncoordinated_penalty: float = 1.18,
        fault_injector: Optional[FaultInjector] = None,
        backfill_on_completion: bool = False,
        reschedule_on_arrival: bool = False,
        arrival_reason: str = "completion",
        placer: Optional[DescendingPlacer] = None,
        landing_speed_scaling: Optional["TypeScaling"] = None,
        tracer: Optional[Tracer] = None,
        max_steps: Optional[int] = None,
    ) -> None:
        if scheduling_interval <= 0:
            raise ValueError("scheduling_interval must be > 0")
        if restart_penalty < 0:
            raise ValueError("restart_penalty must be >= 0")
        if uncoordinated_penalty < 1.0:
            raise ValueError("uncoordinated_penalty must be >= 1")
        self.scheduler = scheduler
        self.cluster = cluster if cluster is not None else Cluster(8, 8)
        self.scheduling_interval = scheduling_interval
        self.restart_penalty = restart_penalty
        self.contention = contention
        self.uncoordinated_penalty = uncoordinated_penalty
        self.fault_injector = fault_injector or FaultInjector()
        self.backfill_on_completion = backfill_on_completion
        self.reschedule_on_arrival = reschedule_on_arrival
        self.arrival_reason = arrival_reason
        self.tracer = tracer
        self.max_steps = max_steps
        self.placer = placer if placer is not None else DescendingPlacer()
        self.landing_speed_scaling = landing_speed_scaling
        # Typed clusters additionally get per-generation occupancy
        # accounting (SimulationResult.gpu_seconds_by_type).
        self._track_gpu_types = bool(self.cluster.gpu_type_names())

    # -- public API ------------------------------------------------------------

    def run(self, specs: Sequence[JobSpec], trace_name: str = "workload") -> SimulationResult:
        """Simulate the workload to completion.

        Equivalent to :meth:`begin` + :meth:`step` until every job is
        terminal + :meth:`finalize`.

        Raises:
            SimulationError: If a job can never fit the cluster, two
                specs share a job id, or the step budget is exhausted.
        """
        state = self.begin(specs, trace_name)
        while state.unfinished:
            self.step(state)
        return self.finalize(state)

    def begin(
        self,
        specs: Sequence[JobSpec],
        trace_name: str = "workload",
        allow_empty: bool = False,
    ) -> SimulationState:
        """Open a simulation over ``specs`` without driving it.

        Args:
            specs: Initial workload; more jobs may be added later via
                :meth:`inject`.
            trace_name: Workload label for the result.
            allow_empty: Permit starting with no jobs (the online
                service begins idle and injects arrivals as clients
                submit); :meth:`run` keeps rejecting empty workloads.

        Raises:
            SimulationError: If a job can never fit the cluster, two
                specs share a job id, or ``specs`` is empty and
                ``allow_empty`` is False.
        """
        started_wall = _time.monotonic()
        total_gpus = self.cluster.total_gpus
        for spec in specs:
            if spec.num_gpus > total_gpus:
                raise SimulationError(
                    f"{spec.name} needs {spec.num_gpus} GPUs but the "
                    f"cluster has {total_gpus}"
                )
        if not specs and not allow_empty:
            raise SimulationError("workload is empty")

        jobs: Dict[int, Job] = {spec.job_id: Job(spec) for spec in specs}
        if len(jobs) != len(specs):
            seen = set()
            for spec in specs:
                if spec.job_id in seen:
                    raise SimulationError(
                        f"job id {spec.job_id} already submitted"
                    )
                seen.add(spec.job_id)
        result = SimulationResult(
            scheduler_name=self.scheduler.name,
            trace_name=trace_name,
            submit_times={spec.job_id: spec.submit_time for spec in specs},
        )

        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                EventCategory.SIM,
                "sim.run.start",
                0.0,
                trace=trace_name,
                scheduler=self.scheduler.name,
                jobs=len(specs),
                gpus=total_gpus,
            )

        events = EventQueue(tracer=tracer)
        for spec in specs:
            events.push(Event(spec.submit_time, EventKind.ARRIVAL, spec.job_id))
        state = SimulationState(
            jobs=jobs,
            pending={},
            running={},
            events=events,
            result=result,
            trace_name=trace_name,
            step_budget=self.max_steps or (500 * len(specs) + 100_000),
            started_wall=started_wall,
            active=len(jobs),
        )
        if specs:
            first_arrival = min(spec.submit_time for spec in specs)
            events.push(Event(first_arrival, EventKind.TICK))
            state.tick_scheduled = True
        return state

    def inject(self, state: SimulationState, spec: JobSpec) -> Job:
        """Add one job to an open simulation.

        The arrival fires at ``max(state.now, spec.submit_time)``
        (virtual time cannot run backwards).  The first injected job of
        an initially empty simulation also anchors the scheduling-tick
        cadence at its arrival time, mirroring :meth:`begin`.

        Raises:
            SimulationError: If the job cannot fit the cluster, its id
                is already known, or the state is finalized.
        """
        if state.finalized:
            raise SimulationError("cannot inject into a finalized simulation")
        if spec.num_gpus > self.cluster.total_gpus:
            raise SimulationError(
                f"{spec.name} needs {spec.num_gpus} GPUs but the "
                f"cluster has {self.cluster.total_gpus}"
            )
        if spec.job_id in state.jobs:
            raise SimulationError(f"job id {spec.job_id} already submitted")
        job = Job(spec)
        state.jobs[spec.job_id] = job
        state.active += 1
        state.result.submit_times[spec.job_id] = spec.submit_time
        arrival = max(state.now, spec.submit_time)
        state.events.push(Event(arrival, EventKind.ARRIVAL, spec.job_id))
        if not state.tick_scheduled:
            state.events.push(Event(arrival, EventKind.TICK))
            state.tick_scheduled = True
        state.step_budget += 500
        return job

    def cancel(self, state: SimulationState, job_id: int) -> bool:
        """Remove a job from an open simulation.

        A pending (queued or not-yet-arrived) job is dropped directly;
        a running job's group is stopped so its partners requeue and a
        reschedule is owed.  Cancelled jobs end in
        :attr:`JobStatus.FAILED` and never contribute a JCT.

        Returns:
            True when the job existed and was cancelled; False for
            unknown ids and jobs already in a terminal state.
        """
        job = state.jobs.get(job_id)
        if job is None or job.status in (JobStatus.FINISHED, JobStatus.FAILED):
            return False
        for key, rgroup in list(state.running.items()):
            if any(member.job_id == job_id for member in rgroup.active):
                del state.running[key]
                self._trace_preempt(state.now, rgroup)
                self._stop_group(rgroup, state.pending)
                state.need_reschedule = True
                state.reschedule_reason = "completion"
                break
        state.pending.pop(job_id, None)
        job.status = JobStatus.FAILED
        state.active -= 1
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                EventCategory.JOB,
                "job.cancel",
                state.now,
                job=job_id,
            )
        return True

    def resize(self, state: SimulationState, job_id: int, num_gpus: int) -> bool:
        """Resize one job of an open simulation.

        The external counterpart of scheduler-driven renegotiation:
        drivers (and tests) use it to change a job's GPU count
        mid-flight.  A running job's group is stopped first — members
        requeue, progress is conserved — and a reschedule is owed with
        reason ``"resize"`` so event-aware schedulers regroup instead
        of serving a stale backfill cache.

        Returns:
            True when the count actually changed; False when the job
            already holds ``num_gpus``.

        Raises:
            SimulationError: For finalized states, unknown or terminal
                jobs, counts outside ``[1, total_gpus]``, or counts the
                job's scalability profile does not support.
        """
        if state.finalized:
            raise SimulationError("cannot resize in a finalized simulation")
        job = state.jobs.get(job_id)
        if job is None:
            raise SimulationError(f"unknown job id {job_id}")
        if job.status in (JobStatus.FINISHED, JobStatus.FAILED):
            raise SimulationError(f"job {job_id} is already terminal")
        if not 1 <= num_gpus <= self.cluster.total_gpus:
            raise SimulationError(
                f"job {job_id} cannot resize to {num_gpus} GPUs on a "
                f"{self.cluster.total_gpus}-GPU cluster"
            )
        scalability = job.spec.scalability
        if num_gpus != job.num_gpus:
            if scalability is None:
                raise SimulationError(
                    f"job {job_id} is rigid (no scalability profile)"
                )
            if not scalability.supports(num_gpus):
                raise SimulationError(
                    f"job {job_id} does not support {num_gpus} GPUs; "
                    f"supported counts: {scalability.gpu_counts}"
                )
        changed = self._apply_resize(
            state.now, job, num_gpus, state.pending, state.running
        )
        if changed:
            state.need_reschedule = True
            state.reschedule_reason = "resize"
        return changed

    def next_event_time(self, state: SimulationState) -> Optional[float]:
        """Earliest future simulation time anything happens, or None.

        The same horizon :meth:`step` would advance to: the next queued
        external event or the next running-group completion/fault.
        Wall-clock drivers sleep until this time.
        """
        horizon = state.events.peek_time()
        for rgroup in state.running.values():
            candidate = state.now + rgroup.time_to_next_event(
                self.contention, self.uncoordinated_penalty
            )
            if horizon is None or candidate < horizon:
                horizon = candidate
        return horizon

    def step(self, state: SimulationState) -> None:
        """Advance an open simulation by one simulator iteration.

        Fires due events, invokes the scheduler when owed, and advances
        every running group to the next horizon.

        Raises:
            SimulationError: When nothing can ever happen again (no
                events, nothing running) or the step budget is
                exhausted.
        """
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        jobs, pending, running = state.jobs, state.pending, state.running
        events, result, now = state.events, state.result, state.now

        state.steps += 1
        if state.steps > state.step_budget:
            raise SimulationError(
                f"step budget exhausted at t={now:.0f}s with "
                f"{state.unfinished} jobs unfinished"
            )

        # 1. Fire due external events.
        tick_due = False
        for event in events.pop_until(now + _EPS):
            if event.kind == EventKind.ARRIVAL:
                job = jobs[event.payload]
                if job.status is JobStatus.FAILED:
                    continue  # cancelled before it arrived
                pending[event.payload] = job
                if tracing:
                    tracer.emit(
                        EventCategory.JOB,
                        "job.arrival",
                        event.time,
                        job=event.payload,
                        gpus=job.num_gpus,
                    )
                if self.reschedule_on_arrival:
                    state.need_reschedule = True
                    state.reschedule_reason = self.arrival_reason
            elif event.kind == EventKind.TICK:
                tick_due = True

        # 2. Invoke the scheduler.
        if tick_due or state.need_reschedule:
            reason = "tick" if tick_due else state.reschedule_reason
            self._reschedule(now, jobs, pending, running, result, reason)
            state.need_reschedule = False
            state.reschedule_reason = "completion"
            if tick_due:
                events.push(
                    Event(now + self.scheduling_interval, EventKind.TICK)
                )

        # 3. Find the advance horizon.
        horizon = self.next_event_time(state)
        if horizon is None:
            raise SimulationError(
                f"no events and nothing running at t={now:.0f}s with "
                f"{len(pending)} pending jobs"
            )
        horizon = max(horizon, now)

        # 4. Advance every running group and record the span.
        span = horizon - now
        if span > 0:
            self._record_timepoint(now, span, pending, running, result)
            completed_any = self._advance(
                span, jobs, pending, running, result, state
            )
            if completed_any and self.backfill_on_completion:
                state.need_reschedule = True
                state.reschedule_reason = "completion"
        state.now = horizon

    def finalize(self, state: SimulationState) -> SimulationResult:
        """Close an open simulation and return its result.

        Idempotent: a second call returns the same result object.
        Cancelled jobs appear in ``submit_times`` but contribute no
        JCT or finish time.
        """
        result = state.result
        if state.finalized:
            return result
        state.finalized = True
        jobs = state.jobs
        result.total_preemptions = sum(
            job.preemptions for job in jobs.values()
        )
        result.jcts = {
            job_id: job.completion_time()
            for job_id, job in jobs.items()
            if job.is_finished
        }
        result.finish_times = {
            job_id: job.finish_time
            for job_id, job in jobs.items()
            if job.is_finished
        }
        result.wall_clock = _time.monotonic() - state.started_wall
        if self._track_gpu_types:
            result.gpus_by_type = {
                name: sum(
                    machine.num_gpus
                    for machine in self.cluster.machines_of_type(name)
                )
                for name in self.cluster.gpu_type_names()
            }
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                EventCategory.SIM,
                "sim.run.end",
                state.now,
                trace=state.trace_name,
                finished=sum(1 for job in jobs.values() if job.is_finished),
                makespan=state.now,
                wall_clock=result.wall_clock,
                steps=state.steps,
            )
        return result

    # -- scheduling ---------------------------------------------------------------

    def _reschedule(
        self,
        now: float,
        jobs: Dict[int, Job],
        pending: Dict[int, Job],
        running: Dict[FrozenSet[int], _RunningGroup],
        result: SimulationResult,
        reason: str = "tick",
    ) -> None:
        with maybe_span(self.tracer, "sim.reschedule", now, reason=reason):
            self._reschedule_inner(
                now, jobs, pending, running, result, reason
            )

    def _reschedule_inner(
        self,
        now: float,
        jobs: Dict[int, Job],
        pending: Dict[int, Job],
        running: Dict[FrozenSet[int], _RunningGroup],
        result: SimulationResult,
        reason: str,
    ) -> None:
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        active_jobs = [job for job in jobs.values() if not job.is_finished and (
            job.job_id in pending or self._is_running(job, running)
        )]

        # Elastic schedulers renegotiate GPU counts at each scheduling
        # tick, before grouping; the simulator owns applying the
        # resizes (and conserving progress) so every policy sees the
        # same executor semantics.
        if reason == "tick":
            renegotiate = getattr(self.scheduler, "renegotiate", None)
            if renegotiate is not None:
                targets = renegotiate(
                    now, active_jobs, self.cluster.total_gpus
                )
                for job_id in sorted(targets):
                    job = jobs.get(job_id)
                    if job is None or job.is_finished:
                        continue
                    self._apply_resize(
                        now, job, targets[job_id], pending, running
                    )

        running_groups = {key: rg.group for key, rg in running.items()}
        proposal = self.scheduler.decide(
            now, active_jobs, running_groups, self.cluster.total_gpus, reason
        )

        proposed_keys = []
        seen_jobs = set()
        valid: List[JobGroup] = []
        for group in proposal:
            key = group_key(group)
            if any(job.job_id in seen_jobs or job.is_finished for job in group.jobs):
                continue
            seen_jobs.update(job.job_id for job in group.jobs)
            proposed_keys.append(key)
            valid.append(group)
        keyset = set(proposed_keys)
        if tracing:
            tracer.inspect(
                "sim.plan",
                now,
                groups=valid,
                total_gpus=self.cluster.total_gpus,
            )

        stopped = 0

        # A "kept" group whose demand changed (a member resized while
        # the group sat in a warm plan cache) cannot keep its old
        # allocation: stop it so it re-places at the new size.  The
        # comparison must be against the allocation's slot count —
        # ``JobGroup.num_gpus`` reads the live jobs, so both sides of a
        # naive group-vs-group check would show the post-resize value.
        for group in valid:
            key = group_key(group)
            rgroup = running.get(key)
            if rgroup is not None and group.num_gpus != len(rgroup.allocation.slots):
                del running[key]
                self._trace_preempt(now, rgroup)
                self._stop_group(rgroup, pending)
                stopped += 1

        # Stop groups not in the plan.
        for key in [k for k in running if k not in keyset]:
            rgroup = running.pop(key)
            self._trace_preempt(now, rgroup)
            self._stop_group(rgroup, pending)
            stopped += 1

        # Start new groups, priority order, best-effort placement.
        new_groups = [g for g in valid if group_key(g) not in running]
        started = 0
        unplaced_groups: List[JobGroup] = []
        with maybe_span(
            self.tracer, "sim.place", now, groups=len(new_groups)
        ):
            for group in new_groups:
                # Affinity-homogeneous groups (the grouper's
                # _affinity_compatible guarantee) let the first member
                # speak for the group; unaffine groups take the exact
                # pre-hetero call so custom placers keep working.
                lead_spec = group.jobs[0].spec
                if lead_spec.gpu_affinity is not None:
                    plan = self.placer.plan_for_model(
                        self.cluster,
                        group.num_gpus,
                        gpu_type=lead_spec.gpu_affinity,
                        prefer=lead_spec.affinity_mode == "prefer",
                        model=lead_spec.model,
                    )
                else:
                    plan = self.placer.plan_for_model(
                        self.cluster, group.num_gpus, model=lead_spec.model
                    )
                if plan is None:
                    # Fragmentation; members stay pending.
                    if tracing:
                        unplaced_groups.append(group)
                    continue
                started += 1
                speedup = self._landing_speedup(lead_spec, plan)
                key = group_key(group)
                allocation = self.cluster.allocate(self._owner_id(key), plan)
                slots_by_type: Optional[Dict[str, int]] = None
                if self._track_gpu_types:
                    slots_by_type = {}
                    for slot in allocation.slots:
                        name = self.cluster.gpu_type_of_machine(
                            slot.machine_id
                        )
                        if name is not None:
                            slots_by_type[name] = (
                                slots_by_type.get(name, 0) + 1
                            )
                members = [job for job in group.jobs]
                deadlines: Dict[int, float] = {}
                for job in members:
                    job.mark_started(now)
                    pending.pop(job.job_id, None)
                    delay = self.fault_injector.sample_fault_delay()
                    if delay is not None:
                        deadlines[job.job_id] = delay
                running[key] = _RunningGroup(
                    group=group,
                    allocation=allocation,
                    active=members,
                    offsets={
                        job.job_id: offset
                        for job, offset in zip(group.jobs, group.offsets)
                    },
                    penalty_remaining=self.restart_penalty,
                    fault_deadlines=deadlines,
                    speedup=speedup,
                    slots_by_type=slots_by_type,
                )
                result.total_restart_time += self.restart_penalty
                if tracing:
                    member_ids = [job.job_id for job in members]
                    tracer.emit(
                        EventCategory.GROUP,
                        "group.start",
                        now,
                        members=member_ids,
                        gpus=group.num_gpus,
                        spans_machines=allocation.spans_machines,
                    )
                    if any(
                        job.spec.gpu_affinity is not None for job in members
                    ):
                        tracer.emit(
                            EventCategory.SCHED,
                            "sched.hetero.place",
                            now,
                            members=member_ids,
                            affinities=[
                                (job.spec.gpu_affinity, job.spec.affinity_mode)
                                for job in members
                            ],
                            machine_types=[
                                self.cluster.gpu_type_of_machine(machine_id)
                                for machine_id in allocation.machine_ids
                            ],
                            speedup=speedup,
                        )
                    detail = (
                        f"group {member_ids}" if len(member_ids) > 1 else "solo"
                    )
                    for job_id in member_ids:
                        self._trace_outcome(job_id, now, "started", detail)

        if tracing:
            for group in unplaced_groups:
                member_ids = [job.job_id for job in group.jobs]
                tracer.emit(
                    EventCategory.GROUP,
                    "group.unplaced",
                    now,
                    members=member_ids,
                    gpus=group.num_gpus,
                )
                for job_id in member_ids:
                    self._trace_outcome(
                        job_id, now, "unplaced",
                        f"needs {group.num_gpus} contiguous GPUs",
                    )
            tracer.emit(
                EventCategory.SCHED,
                "sched.decision",
                now,
                reason=reason,
                proposed=len(valid),
                kept=len(valid) - len(new_groups),
                started=started,
                preempted=stopped,
                unplaced=len(new_groups) - started,
                queue_length=len(pending),
                free_gpus=self.cluster.free_gpus,
            )
            tracer.inspect("sim.cluster", now, cluster=self.cluster)

    def _trace_outcome(
        self, job_id: int, sim_time: float, outcome: str, detail: str = ""
    ) -> None:
        """File one provenance outcome record (call only when tracing)."""
        self.tracer.provenance.record_outcome(
            job_id, OutcomeRecord(sim_time, outcome, detail)
        )

    def _trace_preempt(self, now: float, rgroup: _RunningGroup) -> None:
        """Emit the preemption event + outcomes for one stopped group."""
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        members = [job.job_id for job in rgroup.active]
        tracer.emit(
            EventCategory.GROUP,
            "group.preempt",
            now,
            members=members,
        )
        for job_id in members:
            self._trace_outcome(job_id, now, "preempted")

    def _apply_resize(
        self,
        now: float,
        job: Job,
        num_gpus: int,
        pending: Dict[int, Job],
        running: Dict[FrozenSet[int], _RunningGroup],
    ) -> bool:
        """Resize one job in place, conserving its progress.

        Stops the job's running group first (every member requeues
        with its iterations and attained service intact), applies the
        new count, then notifies the scheduler so demand-keyed caches
        drop before the next grouping pass.  Returns True when the
        count actually changed.
        """
        if num_gpus == job.num_gpus:
            return False
        for key, rgroup in list(running.items()):
            if any(member.job_id == job.job_id for member in rgroup.active):
                del running[key]
                self._trace_preempt(now, rgroup)
                self._stop_group(rgroup, pending)
                break
        remaining_before = job.remaining_iterations
        attained_before = job.attained_service
        old_gpus = job.resize(num_gpus)
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                EventCategory.SCHED,
                "sched.resize.apply",
                now,
                job=job.job_id,
                old_gpus=old_gpus,
                new_gpus=num_gpus,
                remaining_before=remaining_before,
                remaining_after=job.remaining_iterations,
                attained_before=attained_before,
                attained_after=job.attained_service,
            )
            self._trace_outcome(
                job.job_id, now, "resized",
                f"{old_gpus} -> {num_gpus} GPUs",
            )
        self.scheduler.notify_resize(job.job_id, old_gpus, num_gpus)
        return True

    def _stop_group(
        self,
        rgroup: _RunningGroup,
        pending: Dict[int, Job],
    ) -> None:
        self.cluster.release(rgroup.allocation.owner)
        for job in rgroup.active:
            job.mark_stopped()
            pending[job.job_id] = job

    def _owner_id(self, key: FrozenSet[int]) -> int:
        self._owner_counter = getattr(self, "_owner_counter", 0) + 1
        return self._owner_counter

    @staticmethod
    def _is_running(job: Job, running: Dict[FrozenSet[int], _RunningGroup]) -> bool:
        return job.status == JobStatus.RUNNING

    # -- execution -----------------------------------------------------------------

    def _landing_speedup(self, lead_spec: JobSpec, plan: Dict[int, int]) -> float:
        """Realized speed of a group on the machines it landed on.

        Active only under ``landing_speed_scaling``.  Hard pins run
        neutrally — their profiles were pre-scaled for the pinned
        generation — while baseline-profile groups (soft preferences
        and unaffine jobs) run at the slowest landed generation's
        factor for the lead model.  Untyped machines and generations
        missing from the table count as the V100 baseline (1.0).
        """
        scaling = self.landing_speed_scaling
        if scaling is None:
            return 1.0
        if (
            lead_spec.gpu_affinity is not None
            and lead_spec.affinity_mode == "pin"
        ):
            return 1.0
        speed = None
        for machine_id in plan:
            name = self.cluster.gpu_type_of_machine(machine_id)
            if name is None:
                factor = 1.0
            else:
                try:
                    factor = scaling.factor(lead_spec.model, name)
                except KeyError:
                    factor = 1.0
            if speed is None or factor < speed:
                speed = factor
        return 1.0 if speed is None else speed

    def _advance(
        self,
        span: float,
        jobs: Dict[int, Job],
        pending: Dict[int, Job],
        running: Dict[FrozenSet[int], _RunningGroup],
        result: SimulationResult,
        state: SimulationState,
    ) -> bool:
        """Advance all groups by ``span`` seconds; returns True when a
        job completed or faulted (capacity freed)."""
        changed = False
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        for key in list(running):
            rgroup = running[key]
            if rgroup.slots_by_type:
                by_type = result.gpu_seconds_by_type
                for name, count in rgroup.slots_by_type.items():
                    by_type[name] = by_type.get(name, 0.0) + span * count
            paid = min(rgroup.penalty_remaining, span)
            rgroup.penalty_remaining -= paid
            productive = span - paid
            if productive <= 0:
                continue
            period = rgroup.period(self.contention, self.uncoordinated_penalty)
            delta_iters = productive / period

            completed: List[Job] = []
            faulted: List[Job] = []
            for job in rgroup.active:
                job.advance(min(delta_iters, job.remaining_iterations), productive)
                deadline = rgroup.fault_deadlines.get(job.job_id)
                if deadline is not None:
                    deadline -= productive
                    rgroup.fault_deadlines[job.job_id] = deadline
                if job.remaining_iterations <= _ITER_EPS:
                    completed.append(job)
                elif deadline is not None and deadline <= _EPS:
                    faulted.append(job)

            for job in completed:
                # The horizon was chosen as the earliest group event, so
                # a completing member finishes exactly at span end.
                finish_time = self._advance_clock + span
                job.mark_finished(finish_time)
                state.active -= 1
                rgroup.active.remove(job)
                rgroup.fault_deadlines.pop(job.job_id, None)
                changed = True
                if tracing:
                    tracer.emit(
                        EventCategory.JOB,
                        "job.finish",
                        finish_time,
                        job=job.job_id,
                        jct=job.completion_time(),
                    )
                    self._trace_outcome(
                        job.job_id, finish_time, "finished",
                        f"JCT {job.completion_time():.1f}s",
                    )
            for job in faulted:
                if job in rgroup.active:
                    fault_time = self._advance_clock + span
                    loss = self.fault_injector.progress_loss
                    remaining_before = job.remaining_iterations
                    if loss > 0:
                        executed = job.spec.num_iterations - job.remaining_iterations
                        job.remaining_iterations = min(
                            float(job.spec.num_iterations),
                            job.remaining_iterations + executed * loss,
                        )
                    if tracing:
                        tracer.emit(
                            EventCategory.JOB,
                            "job.fault",
                            fault_time,
                            job=job.job_id,
                            remaining_before=remaining_before,
                            remaining_after=job.remaining_iterations,
                            total_iterations=job.spec.num_iterations,
                            progress_loss=loss,
                        )
                        self._trace_outcome(
                            job.job_id, fault_time, "faulted",
                            "requeued with checkpointed progress",
                        )
                    job.mark_stopped()
                    rgroup.active.remove(job)
                    rgroup.fault_deadlines.pop(job.job_id, None)
                    pending[job.job_id] = job
                    changed = True
            if not rgroup.active:
                self.cluster.release(rgroup.allocation.owner)
                del running[key]
            elif completed or faulted:
                # Membership changed: re-key the group to its surviving
                # members so the scheduler can keep it running instead
                # of seeing an unknown (stale) group and preempting it.
                self._rekey_group(key, rgroup, running)
        return changed

    @staticmethod
    def _rekey_group(
        old_key: FrozenSet[int],
        rgroup: _RunningGroup,
        running: Dict[FrozenSet[int], _RunningGroup],
    ) -> None:
        survivors = tuple(rgroup.active)
        survivor_ids = {job.job_id for job in survivors}
        profile_of = {
            job.job_id: profile
            for job, profile in zip(
                rgroup.group.jobs, rgroup.group.believed_profiles
            )
        }
        rgroup.group = JobGroup(
            jobs=survivors,
            believed_profiles=tuple(
                profile_of[job.job_id] for job in survivors
            ),
            offsets=tuple(rgroup.offsets[job.job_id] for job in survivors),
            num_resources=rgroup.group.num_resources,
            coordinated=rgroup.group.coordinated,
        )
        del running[old_key]
        running[frozenset(survivor_ids)] = rgroup

    #: Set before each advance so finish times are exact.
    _advance_clock: float = 0.0

    def _record_timepoint(
        self,
        now: float,
        span: float,
        pending: Dict[int, Job],
        running: Dict[FrozenSet[int], _RunningGroup],
        result: SimulationResult,
    ) -> None:
        self._advance_clock = now
        total_gpus = self.cluster.total_gpus
        utilization = [0.0] * NUM_RESOURCES
        running_jobs = 0
        for rgroup in running.values():
            running_jobs += len(rgroup.active)
            period = rgroup.period(self.contention, self.uncoordinated_penalty)
            productive_share = max(
                0.0, (span - rgroup.penalty_remaining) / span
            ) if span > 0 else 0.0
            weight = rgroup.group.num_gpus / total_gpus * productive_share
            for resource in range(NUM_RESOURCES):
                utilization[resource] += (
                    rgroup.busy_time(resource) / period * weight
                )

        blocking = 0.0
        if pending:
            ratios = []
            for job in pending.values():
                remaining = job.remaining_service_time
                if remaining > 0:
                    ratios.append(job.pending_time(now) / remaining)
            blocking = ordered_sum(ratios) / len(ratios) if ratios else 0.0

        result.timeseries.append(
            TimePoint(
                time=now,
                span=span,
                queue_length=len(pending),
                running_jobs=running_jobs,
                blocking_index=blocking,
                utilization=tuple(min(1.0, u) for u in utilization),
            )
        )

        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            tracer.inspect(
                "sim.timepoint",
                now,
                span=span,
                running=running,
                cluster=self.cluster,
                contention=self.contention,
                uncoordinated_penalty=self.uncoordinated_penalty,
            )
