"""Runtime invariant checking for the simulator/scheduler stack.

The paper's model makes hard promises — GPUs are never oversubscribed,
a job interleaves with at most one group at a time, gamma stays in
``(0, 1]`` and agrees with Eq. 3's period under the chosen stage
ordering, the queue is served in SRSF/2D-LAS priority order, faults
never mint or destroy progress.  The optimized hot paths (sparse
matching graphs, cached ordering kernels, decision caches) must
keep every one of those promises.  This module makes them executable:

* :data:`INVARIANT_CATALOG` names each predicate;
* :class:`InvariantChecker` is a :class:`~repro.observe.Tracer`
  subclass that arms any subset of them.  Because every component in
  the stack already accepts a ``tracer=``, arming checks is just::

      checker = InvariantChecker()
      scheduler = make_scheduler("muri-s", tracer=checker)
      ClusterSimulator(scheduler, tracer=checker).run(specs)

* a failed predicate raises (or, with ``strict=False``, records) a
  structured :class:`InvariantViolation` carrying the per-job decision
  provenance the tracer collected up to that point, so the offending
  scheduling decision can be explained, not just flagged.

Checking is **off by default** everywhere: no simulator or scheduler
constructs a checker on its own, and a run without one pays nothing.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.observe.events import EventCategory
from repro.observe.tracer import NULL_SPAN, Tracer
from repro.verify.reference import reference_efficiency, reference_period

__all__ = [
    "InvariantViolation",
    "InvariantChecker",
    "INVARIANT_CATALOG",
    "check_group_wellformed",
]

#: Every supported invariant, with the promise it enforces.
INVARIANT_CATALOG: Dict[str, str] = {
    "clock_monotone": (
        "Simulation time never runs backwards: the sim_time of every "
        "traced instant event is non-decreasing within a run."
    ),
    "gpu_capacity": (
        "GPU capacity is never exceeded: the GPUs of all concurrently "
        "started groups never sum past the cluster total, and the "
        "cluster's own per-machine free/allocated accounting stays "
        "consistent."
    ),
    "plan_capacity": (
        "Scheduler contract: a proposed plan's total GPU demand is at "
        "most the cluster capacity."
    ),
    "exclusive_membership": (
        "Every job interleaves in at most one group per interval — the "
        "no-cross-group constraint that prevents the Fig. 7 cascading "
        "synchronization slowdown."
    ),
    "bucket_homogeneous": (
        "All members of a group request the same GPU count (grouping "
        "happens within GPU-count buckets only)."
    ),
    "offsets_distinct": (
        "A group's phase offsets are distinct modulo k, so no two "
        "members ever occupy the same resource in the same slot."
    ),
    "gamma_bounds": (
        "Interleaving efficiency gamma lies in (0, 1] and matches the "
        "Eq. 4 value recomputed from Eq. 3's period under the group's "
        "chosen stage ordering (scalar reference implementation)."
    ),
    "queue_order": (
        "SRSF/2D-LAS queue-order compliance: newly started groups "
        "appear in non-decreasing best-member priority under the "
        "scheduler's own policy."
    ),
    "progress_conserved": (
        "Fault accounting conserves progress: a fault restores at most "
        "progress_loss of the executed iterations and never pushes "
        "remaining work above the job's total or below what was left."
    ),
    "resize_progress_conserved": (
        "Elastic resizes never mint or destroy progress: applying a "
        "new GPU count leaves the job's remaining iterations and "
        "attained service exactly as they were."
    ),
    "placement_respects_affinity": (
        "Heterogeneous placement honors GPU-generation affinity: a "
        "group never mixes jobs with different affinities, and a "
        "pinned group's allocation lands only on machines of the "
        "pinned generation."
    ),
}


class InvariantViolation(RuntimeError):
    """A runtime invariant of the paper's model was broken.

    Attributes:
        invariant: Name from :data:`INVARIANT_CATALOG`.
        message: Human-readable description of the failure.
        sim_time: Simulation time at which the check fired.
        details: Structured facts about the failure (JSON-friendly).
        provenance: Per-job decision provenance snapshots
            (``job_id -> list of summary dicts``) for the jobs involved
            in the offending decision, taken from the checker's
            :class:`~repro.observe.ProvenanceStore` at raise time.
    """

    def __init__(
        self,
        invariant: str,
        message: str,
        sim_time: float = 0.0,
        details: Optional[Dict[str, Any]] = None,
        provenance: Optional[Dict[int, List[Dict[str, Any]]]] = None,
    ) -> None:
        super().__init__(f"[{invariant}] t={sim_time:.1f}s: {message}")
        self.invariant = invariant
        self.message = message
        self.sim_time = sim_time
        self.details = details or {}
        self.provenance = provenance or {}

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable record of the violation (for repro files)."""
        return {
            "invariant": self.invariant,
            "message": self.message,
            "sim_time": self.sim_time,
            "details": self.details,
            "provenance": {
                str(job_id): records
                for job_id, records in self.provenance.items()
            },
        }


def check_group_wellformed(
    group,
    tolerance: float = 1e-6,
    sim_time: float = 0.0,
    invariants: Optional[Set[str]] = None,
    _raise=None,
) -> None:
    """Structural invariants of one :class:`~repro.core.group.JobGroup`.

    Checks bucket homogeneity, offset distinctness, group size against
    the resource count, and that the group's believed efficiency
    matches Eq. 3/Eq. 4 recomputed by the scalar reference
    implementation.  Used by both the online checker and the
    differential oracles.

    Args:
        group: The group to validate.
        tolerance: Absolute tolerance for float comparisons.
        sim_time: Simulation time stamped on violations.
        invariants: Subset of invariant names to enforce (None = all).
        _raise: Internal override for how violations are reported; the
            default raises the :class:`InvariantViolation`.

    Raises:
        InvariantViolation: On the first broken invariant.
    """
    fail = _raise or _raise_violation
    armed = invariants if invariants is not None else set(INVARIANT_CATALOG)
    members = [job.job_id for job in group.jobs]
    k = group.num_resources

    if "bucket_homogeneous" in armed:
        gpu_counts = {job.num_gpus for job in group.jobs}
        if len(gpu_counts) != 1:
            fail(
                "bucket_homogeneous",
                f"group {members} mixes GPU counts {sorted(gpu_counts)}",
                sim_time,
                {"members": members, "gpu_counts": sorted(gpu_counts)},
                members,
            )

    if "offsets_distinct" in armed:
        offsets = tuple(group.offsets)
        if len(offsets) != len(members):
            fail(
                "offsets_distinct",
                f"group {members} has {len(offsets)} offsets for "
                f"{len(members)} jobs",
                sim_time,
                {"members": members, "offsets": list(offsets)},
                members,
            )
        if len({o % k for o in offsets}) != len(offsets):
            fail(
                "offsets_distinct",
                f"group {members} has colliding offsets {offsets} mod {k}",
                sim_time,
                {"members": members, "offsets": list(offsets), "k": k},
                members,
            )
        if len(members) > k:
            fail(
                "offsets_distinct",
                f"group {members} interleaves {len(members)} jobs over "
                f"only {k} resources",
                sim_time,
                {"members": members, "k": k},
                members,
            )

    if "gamma_bounds" in armed:
        rows = [tuple(p.durations) for p in group.believed_profiles]
        try:
            period = reference_period(rows, tuple(group.offsets), k)
            gamma = reference_efficiency(rows, period, k)
        except ValueError as error:
            # Malformed offsets surface here when offsets_distinct is
            # not armed; report them as a gamma failure rather than
            # crashing the checker.
            fail(
                "gamma_bounds",
                f"group {members}: Eq. 3/4 reference rejected the group "
                f"({error})",
                sim_time,
                {"members": members, "error": str(error)},
                members,
            )
            return
        if not (0.0 < gamma <= 1.0 + tolerance):
            fail(
                "gamma_bounds",
                f"group {members} has gamma {gamma:.6f} outside (0, 1]",
                sim_time,
                {"members": members, "gamma": gamma, "period": period},
                members,
            )
        believed = group.believed_efficiency
        if abs(believed - gamma) > tolerance:
            fail(
                "gamma_bounds",
                f"group {members}: believed gamma {believed:.6f} disagrees "
                f"with the Eq. 3/4 reference value {gamma:.6f}",
                sim_time,
                {
                    "members": members,
                    "believed": believed,
                    "reference": gamma,
                    "period": period,
                },
                members,
            )


def _raise_violation(
    invariant: str,
    message: str,
    sim_time: float,
    details: Dict[str, Any],
    jobs: Iterable[int] = (),
) -> None:
    """Default reporter for module-level checks (no provenance store)."""
    raise InvariantViolation(invariant, message, sim_time, details)


class _GroupState:
    """Executor-side mirror of one running group (event-derived)."""

    __slots__ = ("members", "gpus")

    def __init__(self, members: Set[int], gpus: int) -> None:
        self.members = members
        self.gpus = gpus


class InvariantChecker(Tracer):
    """A tracer that verifies the paper's invariants as the run unfolds.

    Attach it exactly like a :class:`~repro.observe.Tracer` — pass it
    as the ``tracer=`` of :func:`~repro.schedulers.make_scheduler` and
    :class:`~repro.sim.ClusterSimulator`.  Event-driven invariants
    (clock monotonicity, capacity accounting, membership exclusivity,
    fault progress conservation) run inside :meth:`emit`; structural
    invariants over live plans (gamma/Eq. 3 consistency, offsets,
    queue order, plan capacity) run inside the :meth:`inspect` hook the
    simulator and Muri scheduler call at their decision points.  It
    inherits :meth:`~repro.observe.Tracer.subscribe`, and feeds its
    subscribers even when it stores nothing, so one armed run can also
    carry a :class:`~repro.sim.DecisionLog` and a
    :class:`~repro.sim.WorkerMonitor`.

    Args:
        invariants: Names from :data:`INVARIANT_CATALOG` to arm
            (None = all).  Unknown names raise ``ValueError``.
        tolerance: Absolute tolerance for float comparisons.
        strict: When True (default) the first violation raises,
            aborting the simulation; when False violations accumulate
            on :attr:`violations` and the run continues.
        store_events: When False (default) trace events are checked
            and then dropped instead of stored, keeping the armed
            overhead low; set True to keep the full event log (e.g.
            to export a trace of a failing run).
        max_events: Event-storage cap when ``store_events`` is True.
        provenance_records: Passed through as the tracer's
            ``max_groupings_per_job``.

    Attributes:
        violations: Violations recorded so far (non-strict mode; in
            strict mode it holds the raised violation too).
    """

    def __init__(
        self,
        invariants: Optional[Iterable[str]] = None,
        tolerance: float = 1e-6,
        strict: bool = True,
        store_events: bool = False,
        max_events: int = 1_000_000,
        provenance_records: int = 32,
    ) -> None:
        super().__init__(
            enabled=True,
            max_events=max_events,
            max_groupings_per_job=provenance_records,
        )
        armed = (
            set(INVARIANT_CATALOG) if invariants is None else set(invariants)
        )
        unknown = armed - set(INVARIANT_CATALOG)
        if unknown:
            raise ValueError(
                f"unknown invariants {sorted(unknown)}; available: "
                f"{sorted(INVARIANT_CATALOG)}"
            )
        self.invariants = armed
        self.tolerance = tolerance
        self.strict = strict
        self.violations: List[InvariantViolation] = []
        self._store_events = store_events
        # Grouping/outcome records are kept (violations embed them);
        # per-candidate edges are only worth their cost when the full
        # event log is wanted anyway.
        self.candidate_provenance = store_events
        self._reset_run_state()

    # -- tracer surface --------------------------------------------------------

    def emit(
        self,
        category: EventCategory,
        name: str,
        sim_time: float = 0.0,
        **args: Any,
    ) -> None:
        """Check the event against the armed invariants, record it
        only when ``store_events`` was requested, and feed it to the
        event subscribers either way."""
        self._check_event(name, sim_time, args)
        if self._store_events:
            super().emit(category, name, sim_time, **args)
        elif self._event_subscribers:
            for notify in self._event_subscribers:
                notify(name, sim_time, args)

    def _record(self, event) -> None:
        """Store span/instant events only in ``store_events`` mode."""
        if self._store_events:
            super()._record(event)

    def span(self, name: str, sim_time: float = 0.0, **args: Any):
        """Timing spans carry no invariant information; skip them
        entirely unless the full event log was requested."""
        if self._store_events:
            return super().span(name, sim_time, **args)
        return NULL_SPAN

    def count(self, name: str, amount: int = 1) -> None:
        """Counters fire on per-edge hot paths; keep them only in
        ``store_events`` mode."""
        if self._store_events:
            super().count(name, amount)

    def inspect(self, point: str, sim_time: float = 0.0, **state: Any) -> None:
        """Run structural checks at a named simulator/scheduler point.

        Known points (all optional — unknown points are ignored so the
        hook stays forward-compatible):

        * ``"sim.plan"`` — the simulator's validated proposal:
          ``groups`` (list of JobGroup), ``total_gpus``.
        * ``"sched.order"`` — a scheduler's raw plan before handing it
          to the simulator: ``plan``, ``running`` (keys of running
          groups), ``policy`` (the priority callable), ``now``.
        * ``"sim.cluster"`` — the live cluster after placement:
          ``cluster``.

        Every point, known or not, then goes to the inspect subscribers.
        """
        if point == "sim.plan":
            self._check_plan(
                sim_time, state["groups"], state.get("total_gpus")
            )
        elif point == "sched.order":
            self._check_queue_order(
                sim_time,
                state["plan"],
                state.get("running") or (),
                state.get("policy"),
            )
            self._check_plan_membership(sim_time, state["plan"])
        elif point == "sim.cluster":
            self._check_cluster(sim_time, state["cluster"])
        if self._inspect_subscribers:
            for notify in self._inspect_subscribers:
                notify(point, sim_time, state)

    # -- event-driven invariants ---------------------------------------------

    def _reset_run_state(self) -> None:
        """Forget per-run state (called on ``sim.run.start``)."""
        self._last_sim_time = float("-inf")
        self._total_gpus: Optional[int] = None
        self._allocated = 0
        self._job_group: Dict[int, _GroupState] = {}
        # Structural group checks are pure in the group's contents, and
        # the scheduler re-proposes the same (kept) groups every tick —
        # memoizing passed checks makes the steady state a set lookup.
        self._groups_ok: Set[Tuple] = set()

    def _check_event(self, name: str, sim_time: float, args: Dict[str, Any]) -> None:
        """Dispatch one instant event to the armed event invariants."""
        if name == "sim.run.start":
            self._reset_run_state()
            self._total_gpus = args.get("gpus")
        if "clock_monotone" in self.invariants:
            if sim_time < self._last_sim_time - self.tolerance:
                self._fail(
                    "clock_monotone",
                    f"event {name!r} at t={sim_time:.3f}s after "
                    f"t={self._last_sim_time:.3f}s",
                    sim_time,
                    {"event": name, "previous": self._last_sim_time},
                )
            if sim_time > self._last_sim_time:
                self._last_sim_time = sim_time
        if name == "group.start":
            self._on_group_start(sim_time, args)
        elif name == "group.preempt":
            self._on_group_stop(sim_time, args)
        elif name == "job.finish":
            self._on_member_left(sim_time, args.get("job"))
        elif name == "job.fault":
            self._on_fault(sim_time, args)
        elif name == "sched.resize.apply":
            self._on_resize(sim_time, args)
        elif name == "sched.hetero.place":
            self._on_hetero_place(sim_time, args)

    def _on_group_start(self, sim_time: float, args: Dict[str, Any]) -> None:
        members = list(args.get("members") or ())
        gpus = int(args.get("gpus") or 0)
        if "exclusive_membership" in self.invariants:
            for job_id in members:
                if job_id in self._job_group:
                    self._fail(
                        "exclusive_membership",
                        f"job {job_id} started in group {members} while "
                        f"already interleaving in group "
                        f"{sorted(self._job_group[job_id].members)}",
                        sim_time,
                        {
                            "job": job_id,
                            "new_group": members,
                            "old_group": sorted(self._job_group[job_id].members),
                        },
                        members,
                    )
        state = _GroupState(set(members), gpus)
        for job_id in members:
            self._job_group[job_id] = state
        self._allocated += gpus
        if "gpu_capacity" in self.invariants and self._total_gpus is not None:
            if self._allocated > self._total_gpus:
                self._fail(
                    "gpu_capacity",
                    f"starting group {members} ({gpus} GPUs) pushes "
                    f"allocated GPUs to {self._allocated} of "
                    f"{self._total_gpus}",
                    sim_time,
                    {
                        "members": members,
                        "allocated": self._allocated,
                        "total": self._total_gpus,
                    },
                    members,
                )

    def _on_group_stop(self, sim_time: float, args: Dict[str, Any]) -> None:
        members = list(args.get("members") or ())
        freed = None
        for job_id in members:
            state = self._job_group.pop(job_id, None)
            if state is not None:
                freed = state
        if freed is not None:
            self._allocated -= freed.gpus

    def _on_member_left(self, sim_time: float, job_id) -> None:
        """A member finished or faulted; free the group when empty."""
        state = self._job_group.pop(job_id, None)
        if state is None:
            return
        state.members.discard(job_id)
        if not state.members:
            self._allocated -= state.gpus

    def _on_fault(self, sim_time: float, args: Dict[str, Any]) -> None:
        if "progress_conserved" in self.invariants and "remaining_before" in args:
            before = args["remaining_before"]
            after = args["remaining_after"]
            total = args["total_iterations"]
            loss = args.get("progress_loss", 0.0)
            executed = total - before
            cap = min(float(total), before + executed * loss)
            job_id = args.get("job")
            tol = self.tolerance * max(1.0, total)
            if after < before - tol or after > cap + tol:
                self._fail(
                    "progress_conserved",
                    f"fault on job {job_id} moved remaining iterations "
                    f"from {before:.3f} to {after:.3f} "
                    f"(allowed [{before:.3f}, {cap:.3f}], "
                    f"progress_loss={loss})",
                    sim_time,
                    {
                        "job": job_id,
                        "remaining_before": before,
                        "remaining_after": after,
                        "total_iterations": total,
                        "progress_loss": loss,
                    },
                    [job_id] if job_id is not None else [],
                )
        self._on_member_left(sim_time, args.get("job"))

    def _on_hetero_place(self, sim_time: float, args: Dict[str, Any]) -> None:
        """A placed group must honor its members' GPU-type affinity."""
        if "placement_respects_affinity" not in self.invariants:
            return
        members = list(args.get("members") or ())
        affinities = [tuple(a) for a in (args.get("affinities") or ())]
        machine_types = list(args.get("machine_types") or ())
        # Soft preferences may land anywhere and may mix freely; hard
        # pins are the promise.  Two distinct pins in one group are
        # irreconcilable (members share one allocation), and a single
        # pin must cover every machine of that allocation.
        pins = sorted({
            gpu_type
            for gpu_type, mode in affinities
            if gpu_type is not None and mode == "pin"
        })
        if len(pins) > 1:
            self._fail(
                "placement_respects_affinity",
                f"group {members} mixes pinned GPU generations {pins}",
                sim_time,
                {"members": members, "affinities": affinities},
                members,
            )
            return
        if not pins:
            return
        gpu_type = pins[0]
        stray = sorted({str(t) for t in machine_types if t != gpu_type})
        if stray:
            self._fail(
                "placement_respects_affinity",
                f"group {members} is pinned to {gpu_type!r} but was "
                f"placed on machine types {stray}",
                sim_time,
                {
                    "members": members,
                    "pinned": gpu_type,
                    "machine_types": machine_types,
                },
                members,
            )

    def _on_resize(self, sim_time: float, args: Dict[str, Any]) -> None:
        """An applied resize must conserve progress exactly."""
        if "resize_progress_conserved" not in self.invariants:
            return
        job_id = args.get("job")
        for metric in ("remaining", "attained"):
            before = args.get(f"{metric}_before")
            after = args.get(f"{metric}_after")
            if before is None or after is None:
                continue
            tol = self.tolerance * max(1.0, abs(before))
            if abs(after - before) > tol:
                self._fail(
                    "resize_progress_conserved",
                    f"resize of job {job_id} "
                    f"({args.get('old_gpus')} -> {args.get('new_gpus')} "
                    f"GPUs) moved {metric} progress from {before:.6f} "
                    f"to {after:.6f}",
                    sim_time,
                    {
                        "job": job_id,
                        "metric": metric,
                        "before": before,
                        "after": after,
                        "old_gpus": args.get("old_gpus"),
                        "new_gpus": args.get("new_gpus"),
                    },
                    [job_id] if job_id is not None else [],
                )

    # -- structural invariants ----------------------------------------------

    def _check_plan(
        self,
        sim_time: float,
        groups: Sequence,
        total_gpus: Optional[int],
    ) -> None:
        """Validate the simulator's deduplicated proposal."""
        for group in groups:
            key = (
                tuple(job.job_id for job in group.jobs),
                tuple(group.offsets),
                tuple(p.durations for p in group.believed_profiles),
            )
            if key in self._groups_ok:
                continue
            check_group_wellformed(
                group,
                tolerance=self.tolerance,
                sim_time=sim_time,
                invariants=self.invariants,
                _raise=self._fail,
            )
            self._groups_ok.add(key)
            if len(self._groups_ok) > 100_000:
                self._groups_ok.clear()
        if (
            "plan_capacity" in self.invariants
            and total_gpus is not None
            and groups
        ):
            demand = sum(group.num_gpus for group in groups)
            if demand > total_gpus:
                self._fail(
                    "plan_capacity",
                    f"plan demands {demand} GPUs on a {total_gpus}-GPU "
                    f"cluster",
                    sim_time,
                    {"demand": demand, "total": total_gpus},
                    [j.job_id for g in groups for j in g.jobs],
                )

    def _check_plan_membership(self, sim_time: float, plan: Sequence) -> None:
        """No job may appear in two groups of one proposal."""
        if "exclusive_membership" not in self.invariants:
            return
        seen: Dict[int, List[int]] = {}
        for group in plan:
            members = [job.job_id for job in group.jobs]
            for job_id in members:
                if job_id in seen:
                    self._fail(
                        "exclusive_membership",
                        f"job {job_id} proposed in two groups of one "
                        f"plan: {seen[job_id]} and {members}",
                        sim_time,
                        {
                            "job": job_id,
                            "first_group": seen[job_id],
                            "second_group": members,
                        },
                        members,
                    )
                seen[job_id] = members

    def _check_queue_order(
        self,
        sim_time: float,
        plan: Sequence,
        running: Iterable[FrozenSet[int]],
        policy,
    ) -> None:
        """Newly started groups must respect the queue priority order."""
        if "queue_order" not in self.invariants or policy is None:
            return
        running_keys = set(running)
        previous: Optional[Tuple] = None
        previous_members: List[int] = []
        for group in plan:
            members = [job.job_id for job in group.jobs]
            if frozenset(members) in running_keys:
                continue  # kept groups may sit anywhere in the plan
            best = min(
                (policy(job, sim_time), job.spec.submit_time, job.job_id)
                for job in group.jobs
            )
            if previous is not None and best < previous:
                self._fail(
                    "queue_order",
                    f"group {members} (priority {best[0]:.3f}) starts "
                    f"after lower-priority group {previous_members} "
                    f"(priority {previous[0]:.3f})",
                    sim_time,
                    {
                        "group": members,
                        "priority": best[0],
                        "before_group": previous_members,
                        "before_priority": previous[0],
                    },
                    members + previous_members,
                )
            previous = best
            previous_members = members

    def _check_cluster(self, sim_time: float, cluster) -> None:
        """The cluster's own allocation accounting must stay consistent."""
        if "gpu_capacity" not in self.invariants:
            return
        allocated = cluster.allocated_gpus
        total = cluster.total_gpus
        if allocated > total or cluster.free_gpus < 0:
            self._fail(
                "gpu_capacity",
                f"cluster reports {allocated} allocated of {total} GPUs "
                f"({cluster.free_gpus} free)",
                sim_time,
                {"allocated": allocated, "total": total,
                 "free": cluster.free_gpus},
            )
        for machine in cluster.machines:
            free = machine.free_gpu_count
            used = machine.allocated_gpu_count
            if free < 0 or used < 0 or free + used != machine.num_gpus:
                self._fail(
                    "gpu_capacity",
                    f"machine {machine.machine_id} accounting broken: "
                    f"{free} free + {used} allocated != "
                    f"{machine.num_gpus} GPUs",
                    sim_time,
                    {
                        "machine": machine.machine_id,
                        "free": free,
                        "allocated": used,
                        "num_gpus": machine.num_gpus,
                    },
                )

    # -- reporting ------------------------------------------------------------

    def _provenance_snapshot(
        self, jobs: Iterable[int]
    ) -> Dict[int, List[Dict[str, Any]]]:
        """Summarize the stored provenance of the involved jobs."""
        snapshot: Dict[int, List[Dict[str, Any]]] = {}
        for job_id in jobs:
            record = self.provenance.get(job_id)
            if record is None:
                continue
            entries: List[Dict[str, Any]] = []
            for grouping in record.groupings[-4:]:
                entries.append({
                    "kind": "grouping",
                    "sim_time": grouping.sim_time,
                    "members": list(grouping.members),
                    "efficiency": grouping.efficiency,
                    "round": grouping.round_formed,
                    "seeded": grouping.seeded,
                })
            for outcome in record.outcomes[-4:]:
                entries.append({
                    "kind": "outcome",
                    "sim_time": outcome.sim_time,
                    "outcome": outcome.outcome,
                    "detail": outcome.detail,
                })
            snapshot[job_id] = entries
        return snapshot

    def _fail(
        self,
        invariant: str,
        message: str,
        sim_time: float,
        details: Dict[str, Any],
        jobs: Iterable[int] = (),
    ) -> None:
        """Record (and in strict mode raise) one violation."""
        violation = InvariantViolation(
            invariant,
            message,
            sim_time,
            details,
            provenance=self._provenance_snapshot(jobs),
        )
        self.violations.append(violation)
        if self.strict:
            raise violation
