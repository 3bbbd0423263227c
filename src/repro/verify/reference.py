"""The paper's model as naive executable code (the differential spec).

Every function here is a deliberately simple, scalar re-implementation
of an equation from the paper, written straight from the text with no
caching and no code shared with the optimized paths in ``repro.core``
other than :func:`repro.numeric.ordered_sum`, the left-to-right float
sum:

* :func:`reference_slot_durations` / :func:`reference_period` — Eq. 3
  generalized to an arbitrary offset assignment (the barrier model of
  Fig. 6): slot ``s`` runs job ``i``'s stage on resource
  ``(o_i + s) mod k`` and lasts as long as its slowest stage.
* :func:`reference_efficiency` — Eq. 4: one minus the mean per-resource
  idle fraction over the period.
* :func:`reference_best_period` — the exhaustive ordering search of
  section 4.2 (first offset pinned to zero, offsets distinct).

The invariant checker and the differential oracles compare the
optimized implementations (``repro.core.ordering``'s cached kernels,
the grouper's weight caches) against these functions; any divergence
is a bug in the optimization, not in the spec.
"""

from __future__ import annotations

from itertools import permutations
from typing import List, Sequence, Tuple

from repro.numeric import ordered_sum

__all__ = [
    "reference_slot_durations",
    "reference_period",
    "reference_efficiency",
    "reference_best_period",
]

#: A per-job duration row: seconds on each of the k resources.
DurationRow = Sequence[float]


def reference_slot_durations(
    rows: Sequence[DurationRow],
    offsets: Sequence[int],
    num_resources: int,
) -> List[float]:
    """Per-slot durations of Eq. 3, scalar loops only.

    Args:
        rows: One duration row per job (``rows[i][r]`` = job ``i``'s
            seconds on resource ``r``).
        offsets: One phase offset per job, distinct modulo
            ``num_resources``.
        num_resources: Number of resource types ``k``.

    Returns:
        ``k`` slot durations; slot ``s`` lasts
        ``max_i rows[i][(offsets[i] + s) mod k]``.

    Raises:
        ValueError: On malformed input (no jobs, mismatched lengths,
            colliding offsets) — the same preconditions the paper's
            model assumes.
    """
    if not rows:
        raise ValueError("a group needs at least one job")
    if len(offsets) != len(rows):
        raise ValueError("need one offset per job")
    if len({o % num_resources for o in offsets}) != len(offsets):
        raise ValueError(f"offsets must be distinct modulo k, got {offsets}")
    slots = []
    for s in range(num_resources):
        slowest = 0.0
        for row, offset in zip(rows, offsets):
            duration = row[(offset + s) % num_resources]
            if duration > slowest:
                slowest = duration
        slots.append(slowest)
    return slots


def reference_period(
    rows: Sequence[DurationRow],
    offsets: Sequence[int],
    num_resources: int,
) -> float:
    """Eq. 3: the interleaved iteration period ``T`` under ``offsets``."""
    return ordered_sum(reference_slot_durations(rows, offsets, num_resources))


def reference_efficiency(
    rows: Sequence[DurationRow],
    period: float,
    num_resources: int,
) -> float:
    """Eq. 4: interleaving efficiency gamma for a known period ``T``.

    ``gamma = 1 - (1/k) * sum_r (T - busy_r) / T`` where ``busy_r`` is
    the summed stage time of all member jobs on resource ``r``.
    """
    if period <= 0:
        raise ValueError("period must be > 0")
    idle = 0.0
    for resource in range(num_resources):
        busy = 0.0
        for row in rows:
            busy += row[resource]
        idle += (period - busy) / period
    return 1.0 - idle / num_resources


def reference_best_period(
    rows: Sequence[DurationRow],
    num_resources: int,
) -> Tuple[Tuple[int, ...], float]:
    """Exhaustive ordering search (section 4.2), scalar enumeration.

    Pins the first job's offset to zero (a rotation of all offsets
    leaves every slot unchanged) and tries every assignment of distinct
    offsets to the remaining jobs, exactly like
    :func:`repro.core.ordering.enumerate_offset_assignments` — but
    evaluating each candidate with :func:`reference_period` instead of
    the cached ordering kernel.

    Returns:
        ``(best_offsets, best_period)``; ties keep the first
        enumeration order, matching the optimized implementation.
    """
    if not rows:
        raise ValueError("a group needs at least one job")
    if len(rows) > num_resources:
        raise ValueError(
            f"cannot interleave {len(rows)} jobs over {num_resources} "
            "resources without same-slot contention"
        )
    best_offsets: Tuple[int, ...] = ()
    best = float("inf")
    for rest in permutations(range(1, num_resources), len(rows) - 1):
        offsets = (0,) + rest
        period = reference_period(rows, offsets, num_resources)
        if period < best:
            best = period
            best_offsets = offsets
    return best_offsets, best
