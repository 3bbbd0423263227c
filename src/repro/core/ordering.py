"""Stage orderings for interleaved job groups (Eq. 3 / Fig. 6).

When a group of jobs shares one set of resources, every job cycles
through the resources in data-path order, but each job is given a
*phase offset*: job ``i`` with offset ``o_i`` executes resource
``(o_i + s) mod k`` during time slot ``s``.  A synchronization barrier
separates consecutive slots, so a slot lasts as long as the slowest
stage scheduled in it and no two jobs ever use the same resource at
the same time (offsets within a group are distinct).

The group's iteration period is Eq. 3 of the paper, generalized to an
arbitrary offset assignment::

    T = sum_{s=0}^{k-1}  max_i  t_i^{(o_i + s) mod k}

Different offset assignments ("orderings", Fig. 6) yield different
periods; Muri enumerates them all and picks the best.  The worst
ordering is kept around for the Fig. 11 ablation.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.jobs.resources import NUM_RESOURCES
from repro.jobs.stage import StageProfile

__all__ = [
    "group_iteration_time",
    "enumerate_offset_assignments",
    "best_ordering",
    "worst_ordering",
    "identity_ordering",
    "slot_durations",
    "extreme_period_for_rows",
    "best_period_for_rows",
    "batched_best_periods",
]

Offsets = Tuple[int, ...]

#: Most groups :func:`batched_best_periods` scores in one numpy pass.
#: Rows never interact, so chunking leaves every period bit-identical
#: while capping the pass's scratch arrays (~1 MB for 512 quads).
_BATCH_CHUNK = 512


def slot_durations(
    profiles: Sequence[StageProfile],
    offsets: Offsets,
    num_resources: int = NUM_RESOURCES,
) -> List[float]:
    """Duration of each barrier-delimited time slot under ``offsets``.

    Slot ``s`` runs job ``i``'s stage on resource ``(o_i + s) % k``;
    the slot lasts as long as its slowest stage.
    """
    _validate(profiles, offsets, num_resources)
    slots = []
    for s in range(num_resources):
        slots.append(
            max(
                profile.durations[(offset + s) % num_resources]
                for profile, offset in zip(profiles, offsets)
            )
        )
    return slots


def group_iteration_time(
    profiles: Sequence[StageProfile],
    offsets: Offsets,
    num_resources: int = NUM_RESOURCES,
) -> float:
    """Interleaved iteration period T of a group (generalized Eq. 3)."""
    return sum(slot_durations(profiles, offsets, num_resources))


def enumerate_offset_assignments(
    num_jobs: int,
    num_resources: int = NUM_RESOURCES,
) -> Iterator[Offsets]:
    """Yield all distinct offset assignments for a group.

    The first job's offset is pinned to zero (rotating every offset by
    a constant does not change any slot), and offsets are distinct so
    no two jobs ever contend for one resource inside a slot.
    """
    if num_jobs < 1:
        raise ValueError("num_jobs must be >= 1")
    if num_jobs > num_resources:
        raise ValueError(
            f"cannot interleave {num_jobs} jobs over {num_resources} "
            "resources without same-slot contention"
        )
    remaining = range(1, num_resources)
    for rest in permutations(remaining, num_jobs - 1):
        yield (0,) + rest


@lru_cache(maxsize=None)
def _assignment_table(
    num_jobs: int, num_resources: int
) -> Tuple[Tuple[Offsets, ...], np.ndarray]:
    """All offset assignments, as tuples and as an index array."""
    assignments = tuple(
        enumerate_offset_assignments(num_jobs, num_resources)
    )
    array = np.array(assignments, dtype=np.intp)
    array.setflags(write=False)
    return assignments, array


@lru_cache(maxsize=65536)
def _rolled_rows(durations: Tuple[float, ...], num_resources: int) -> np.ndarray:
    """Table ``R[o][s] = durations[(o + s) % k]`` for one profile."""
    k = num_resources
    table = np.array(
        [[durations[(o + s) % k] for s in range(k)] for o in range(k)],
        dtype=float,
    )
    table.setflags(write=False)
    return table


def extreme_period_for_rows(
    rows: Sequence[Tuple[float, ...]],
    num_resources: int = NUM_RESOURCES,
    pick_worst: bool = False,
) -> Tuple[Offsets, float]:
    """Best (or worst) iteration period for raw duration tuples.

    The vectorized core of :func:`best_ordering`: all ``(k-1)!`` offset
    assignments are evaluated in one batch from cached per-profile
    slot-max tables.  Slot maxima and the left-to-right slot sum are
    computed exactly as the scalar enumeration would, so the returned
    period is bit-identical to the generator-based implementation this
    replaces.
    """
    k = num_resources
    assignments, index = _assignment_table(len(rows), k)
    tables = np.stack([_rolled_rows(tuple(row), k) for row in rows])
    # slots[p, i, s]: job i's stage duration in slot s under assignment p.
    slots = tables[np.arange(len(rows)), index]
    slot_max = slots.max(axis=1)
    periods = slot_max[:, 0]
    for s in range(1, k):
        periods = periods + slot_max[:, s]
    best = int(periods.argmax() if pick_worst else periods.argmin())
    return assignments[best], float(periods[best])


def best_period_for_rows(
    rows: Sequence[Tuple[float, ...]],
    num_resources: int = NUM_RESOURCES,
) -> Tuple[Offsets, float]:
    """Offsets minimizing the period, straight from duration tuples."""
    return extreme_period_for_rows(rows, num_resources, pick_worst=False)


def batched_best_periods(
    groups: Sequence[Sequence[Tuple[float, ...]]],
    num_resources: int = NUM_RESOURCES,
) -> List[float]:
    """Minimal iteration periods for many row-groups in one numpy batch.

    The grouping stage evaluates thousands of candidate pair weights
    per matching round; calling :func:`best_period_for_rows` once per
    candidate leaves most of the time in per-call numpy dispatch.  This
    kernel stacks the groups' cached slot-max tables into a
    ``(groups, jobs, k, k)`` array and evaluates all offset
    assignments for all of them in one vectorized pass — at most
    ``_BATCH_CHUNK`` groups per pass, so scratch memory stays bounded
    however many candidates a round scores.

    Args:
        groups: Candidate groups of raw duration tuples; every group
            must contain the same number of rows (callers batch by
            group size).
        num_resources: Number of resource types k.

    Returns:
        One minimal period per group, bit-identical to
        ``best_period_for_rows(rows)[1]`` for each group: the slot
        maxima, left-to-right slot sums, and first-minimum assignment
        choice all reproduce the scalar kernel exactly.
    """
    if not groups:
        return []
    m = len(groups[0])
    index = _assignment_table(m, num_resources)[1]
    periods: List[float] = []
    for start in range(0, len(groups), _BATCH_CHUNK):
        periods.extend(_chunk_best_periods(
            groups[start:start + _BATCH_CHUNK], m, index, num_resources
        ))
    return periods


def _chunk_best_periods(
    groups: Sequence[Sequence[Tuple[float, ...]]],
    m: int,
    index: np.ndarray,
    k: int,
) -> List[float]:
    """One numpy pass of :func:`batched_best_periods` over ``groups``."""
    tables = [None] * (len(groups) * m)
    pos = 0
    for rows in groups:
        if len(rows) != m:
            raise ValueError("all groups in a batch must share one size")
        for row in rows:
            tables[pos] = _rolled_rows(tuple(row), k)
            pos += 1
    stacked = np.stack(tables).reshape(len(groups), m, k, k)
    # slots[g, p, i, s]: group g, assignment p, job i's duration in
    # slot s — the batched analogue of extreme_period_for_rows.
    slots = stacked[:, np.arange(m)[None, :], index, :]
    slot_max = slots.max(axis=2)
    periods = slot_max[:, :, 0]
    for s in range(1, k):
        periods = periods + slot_max[:, :, s]
    best = periods.argmin(axis=1)
    return [float(periods[g, p]) for g, p in enumerate(best)]


def _extreme_ordering(
    profiles: Sequence[StageProfile],
    num_resources: int,
    pick_worst: bool,
) -> Tuple[Offsets, float]:
    for profile in profiles:
        if profile.num_resources < num_resources:
            raise ValueError(
                f"profile has {profile.num_resources} resources, "
                f"need at least {num_resources}"
            )
    rows = tuple(profile.durations for profile in profiles)
    return extreme_period_for_rows(rows, num_resources, pick_worst)


def best_ordering(
    profiles: Sequence[StageProfile],
    num_resources: int = NUM_RESOURCES,
) -> Tuple[Offsets, float]:
    """Offsets minimizing the group iteration period, and that period.

    The enumeration is tiny in practice — at most ``(k-1)!`` candidates
    for a full group of ``k`` jobs with ``k`` resource types (six for
    the paper's four resources), as the paper notes in section 4.2.
    """
    return _extreme_ordering(profiles, num_resources, pick_worst=False)


def worst_ordering(
    profiles: Sequence[StageProfile],
    num_resources: int = NUM_RESOURCES,
) -> Tuple[Offsets, float]:
    """Offsets maximizing the period (the Fig. 11 ablation arm)."""
    return _extreme_ordering(profiles, num_resources, pick_worst=True)


def identity_ordering(
    profiles: Sequence[StageProfile],
    num_resources: int = NUM_RESOURCES,
) -> Tuple[Offsets, float]:
    """The naive assignment o_i = i (Eq. 3 exactly as printed)."""
    offsets = tuple(range(len(profiles)))
    return offsets, group_iteration_time(profiles, offsets, num_resources)


def _validate(
    profiles: Sequence[StageProfile],
    offsets: Iterable[int],
    num_resources: int,
) -> None:
    offsets = tuple(offsets)
    if len(offsets) != len(profiles):
        raise ValueError("need one offset per job")
    if not profiles:
        raise ValueError("a group must contain at least one job")
    if len(set(o % num_resources for o in offsets)) != len(offsets):
        raise ValueError(f"offsets must be distinct modulo k, got {offsets}")
    for profile in profiles:
        if profile.num_resources < num_resources:
            raise ValueError(
                f"profile has {profile.num_resources} resources, "
                f"need at least {num_resources}"
            )
