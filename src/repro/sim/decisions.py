"""Scheduling-decision audit log.

When a scheduler misbehaves — churns preemptions, starves a job,
leaves GPUs idle — the cluster-level metrics say *that* it happened but
not *why*.  :class:`DecisionLog` records every scheduler invocation:
when and why it ran, what it proposed, what was started, kept,
preempted, and what failed placement.  It is a tracer subscriber:
each :class:`Decision` is built from the ``sched.decision`` event the
simulator emits once per invocation, so attach it with
``tracer.subscribe(log)`` on the tracer (or armed
:class:`~repro.verify.InvariantChecker`) passed to
:class:`~repro.sim.simulator.ClusterSimulator`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Mapping

__all__ = ["Decision", "DecisionLog"]


@dataclass(frozen=True)
class Decision:
    """One scheduler invocation, summarized.

    Attributes:
        time: Simulation time of the invocation.
        reason: "tick", "completion", or the simulator's
            ``arrival_reason`` for an arrival-triggered invocation
            ("completion" by default; the online service passes
            "arrival").
        proposed_groups: Groups the scheduler returned.
        kept: Groups already running that continue untouched.
        started: Groups newly placed this round.
        preempted: Groups stopped this round.
        unplaced: Proposed new groups that failed placement.
        queue_length: Pending jobs after the decision.
        free_gpus: Unallocated GPUs after the decision.
    """

    time: float
    reason: str
    proposed_groups: int
    kept: int
    started: int
    preempted: int
    unplaced: int
    queue_length: int
    free_gpus: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-compatible representation of the decision."""
        return asdict(self)


class DecisionLog:
    """Collects :class:`Decision` records during a simulation; a
    :class:`~repro.observe.Tracer` subscriber (``tracer.subscribe``)."""

    def __init__(self) -> None:
        self._decisions: List[Decision] = []

    # -- ingestion ---------------------------------------------------------

    def on_event(self, name: str, sim_time: float, args: Mapping[str, Any]) -> None:
        """Record each ``sched.decision`` event as a :class:`Decision`."""
        if name == "sched.decision":
            self.record(Decision(sim_time, args["reason"], args["proposed"],
                                 args["kept"], args["started"], args["preempted"],
                                 args["unplaced"], args["queue_length"],
                                 args["free_gpus"]))

    def record(self, decision: Decision) -> None:
        """Append one decision to the log."""
        self._decisions.append(decision)

    # -- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._decisions)

    def __iter__(self):
        return iter(self._decisions)

    def decisions(self) -> List[Decision]:
        """Every recorded decision, in order."""
        return list(self._decisions)

    def to_dicts(self) -> List[Dict[str, object]]:
        """Every decision as a JSON-compatible dict, in order."""
        return [decision.to_dict() for decision in self._decisions]

    @property
    def total_preemptions(self) -> int:
        """Groups stopped across all decisions (not per-job counts)."""
        return sum(d.preempted for d in self._decisions)

    @property
    def total_started(self) -> int:
        """Groups started across all decisions."""
        return sum(d.started for d in self._decisions)

    def churn_rate(self) -> float:
        """Fraction of decisions that preempted at least one group.

        High churn with an unchanged workload usually means the
        scheduler's plan is unstable round to round (see the seeding
        discussion in ``repro.core.grouping``).
        """
        if not self._decisions:
            return 0.0
        churny = sum(1 for d in self._decisions if d.preempted > 0)
        return churny / len(self._decisions)

    def idle_decisions(self) -> List[Decision]:
        """Decisions that left GPUs free while jobs queued — the
        signature of head-of-line blocking or fragmentation."""
        return [
            d for d in self._decisions
            if d.free_gpus > 0 and d.queue_length > 0
        ]

    def summary(self) -> Dict[str, float]:
        """Headline numbers for reports."""
        return {
            "decisions": float(len(self._decisions)),
            "started": float(self.total_started),
            "preempted_groups": float(self.total_preemptions),
            "churn_rate": self.churn_rate(),
            "idle_decisions": float(len(self.idle_decisions())),
        }
