"""Interleaving efficiency (Eq. 1-4 of the paper).

The interleaving efficiency gamma of a job group is the fraction of
time the shared resources are busy, averaged over resource types::

    gamma = 1 - (1/k) * sum_j (T - sum_i t_i^j) / T        (Eq. 4)

where ``T`` is the group's interleaved iteration period under the best
stage ordering (Eq. 3) and ``t_i^j`` is job ``i``'s stage duration on
resource ``j``.  A perfectly overlapping pair (the paper's jobs A and
B in Fig. 4) has gamma = 1; a pair that leaves the GPU idle half the
time (jobs A and C) has gamma = 0.75.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.jobs.resources import NUM_RESOURCES
from repro.jobs.stage import StageProfile
from repro.core.ordering import (
    Offsets,
    best_ordering,
    group_iteration_time,
    identity_ordering,
    worst_ordering,
)
from repro.numeric import ordered_sum

__all__ = [
    "interleaving_efficiency",
    "efficiency_for_period",
    "pair_efficiency",
    "group_speedup",
    "OrderingPolicy",
]

#: Accepted values for the ordering policy knob.
OrderingPolicy = str
_ORDERING_POLICIES = ("best", "worst", "identity")


def _resolve_ordering(
    profiles: Sequence[StageProfile],
    ordering: OrderingPolicy,
    offsets: Optional[Offsets],
    num_resources: int,
) -> Tuple[Offsets, float]:
    if offsets is not None:
        return offsets, group_iteration_time(profiles, offsets, num_resources)
    if ordering == "best":
        return best_ordering(profiles, num_resources)
    if ordering == "worst":
        return worst_ordering(profiles, num_resources)
    if ordering == "identity":
        return identity_ordering(profiles, num_resources)
    raise ValueError(
        f"unknown ordering policy {ordering!r}; expected one of "
        f"{_ORDERING_POLICIES} or explicit offsets"
    )


def efficiency_for_period(
    profiles: Sequence[StageProfile],
    period: float,
    num_resources: int = NUM_RESOURCES,
) -> float:
    """Evaluate Eq. 4 for a known iteration period ``T``."""
    if period <= 0:
        raise ValueError("period must be > 0")
    idle_fraction_sum = 0.0
    for resource in range(num_resources):
        busy = ordered_sum(p.durations[resource] for p in profiles)
        idle_fraction_sum += (period - busy) / period
    return 1.0 - idle_fraction_sum / num_resources


def interleaving_efficiency(
    profiles: Sequence[StageProfile],
    ordering: OrderingPolicy = "best",
    offsets: Optional[Offsets] = None,
    num_resources: int = NUM_RESOURCES,
) -> float:
    """Interleaving efficiency gamma of a group of jobs (Eq. 4).

    Args:
        profiles: Per-iteration stage profiles, one per job in the
            group (1 to ``num_resources`` jobs).
        ordering: "best" (Muri's choice), "worst" (Fig. 11 ablation) or
            "identity" (Eq. 3 verbatim).  Ignored when ``offsets`` is
            given.
        offsets: Explicit phase offsets, one per job, distinct mod k.
        num_resources: Number of resource types k.

    Returns:
        gamma in ``(0, 1]``.
    """
    _, period = _resolve_ordering(profiles, ordering, offsets, num_resources)
    return efficiency_for_period(profiles, period, num_resources)


def pair_efficiency(
    a: StageProfile,
    b: StageProfile,
    ordering: OrderingPolicy = "best",
    num_resources: int = NUM_RESOURCES,
) -> float:
    """Interleaving efficiency of grouping exactly two jobs.

    This is the edge weight of the matching graph in section 4.1.
    """
    return interleaving_efficiency((a, b), ordering, None, num_resources)


def group_speedup(
    profiles: Sequence[StageProfile],
    ordering: OrderingPolicy = "best",
    offsets: Optional[Offsets] = None,
    num_resources: int = NUM_RESOURCES,
) -> float:
    """Total normalized throughput of an interleaved group.

    Each job completes one iteration per interleaved period ``T``, so
    its normalized throughput is ``solo_iteration_time / T``; the group
    speedup is the sum over jobs (Table 2's "Total Norm. Tput" row).
    Running jobs separately back-to-back yields exactly 1.0; perfect
    interleaving of p jobs yields p.
    """
    _, period = _resolve_ordering(profiles, ordering, offsets, num_resources)
    return ordered_sum(p.iteration_time / period for p in profiles)
