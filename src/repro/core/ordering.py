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
from operator import getitem, itemgetter
from typing import Iterable, Iterator, List, Sequence, Tuple

from repro.jobs.resources import NUM_RESOURCES
from repro.jobs.stage import StageProfile
from repro.numeric import ordered_sum

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
#: One profile's k rotations: ``table[o][s]`` is its stage in slot ``s``
#: under offset ``o``.
_Table = Tuple[Tuple[float, ...], ...]


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
    return ordered_sum(slot_durations(profiles, offsets, num_resources))


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
) -> Tuple[Offsets, ...]:
    """All offset assignments for ``num_jobs`` jobs, in enumeration order."""
    return tuple(enumerate_offset_assignments(num_jobs, num_resources))


@lru_cache(maxsize=65536)
def _rolled_rows(durations: Tuple[float, ...], num_resources: int) -> _Table:
    """Rotations ``R[o][s] = durations[(o + s) % k]`` of one profile."""
    row = tuple(float(durations[r]) for r in range(num_resources))
    return tuple(row[o:] + row[:o] for o in range(num_resources))


def _period(tables: Sequence[_Table], offsets: Offsets) -> float:
    """Slot maxima under ``offsets``, added strictly left to right."""
    if len(tables) == 1:
        slots = iter(tables[0][offsets[0]])
    else:
        slots = map(max, *map(getitem, tables, offsets))
    period = next(slots)
    for slot in slots:
        period = period + slot
    return period


def _best(
    tables: Sequence[_Table], assignments: Tuple[Offsets, ...]
) -> Tuple[Offsets, float]:
    """The first assignment with the smallest period, and that period.

    Slot maxima are >= 0, so a partial sum already >= the best period
    cannot beat it; skipping the rest of its slots is exact.  A lone
    job has one assignment, so the loop below always sees >= 2 rows.
    """
    best_offsets = assignments[0]
    best = _period(tables, best_offsets)
    for offsets in assignments[1:]:
        slots = map(max, *map(getitem, tables, offsets))
        period = next(slots)
        for slot in slots:
            if period >= best:
                break
            period = period + slot
        else:
            if period < best:
                best_offsets, best = offsets, period
    return best_offsets, best


def extreme_period_for_rows(
    rows: Sequence[Tuple[float, ...]],
    num_resources: int = NUM_RESOURCES,
    pick_worst: bool = False,
) -> Tuple[Offsets, float]:
    """Best (or worst) iteration period for raw duration tuples.

    The core of :func:`best_ordering`: each offset assignment (at most
    ``(k-1)!``) is scored from cached per-profile rotations.  Ties keep
    the first assignment in enumeration order.  Only the first ``k``
    entries of a row are read.
    """
    k = num_resources
    assignments = _assignment_table(len(rows), k)
    tables = [_rolled_rows(tuple(row), k) for row in rows]
    if pick_worst:
        return max(
            ((offsets, _period(tables, offsets)) for offsets in assignments),
            key=itemgetter(1),
        )
    return _best(tables, assignments)


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
    """Minimal iteration periods for many row-groups of one size.

    The grouping stage scores thousands of candidate pair weights per
    matching round through this one call, so the assignment table is
    looked up once per batch.

    Args:
        groups: Candidate groups of raw duration tuples; every group
            must contain the same number of rows (callers batch by
            group size).
        num_resources: Number of resource types k.

    Returns:
        One minimal period per group, bit-identical to
        ``best_period_for_rows(rows)[1]`` for each group.
    """
    if not groups:
        return []
    m = len(groups[0])
    assignments = _assignment_table(m, num_resources)
    periods: List[float] = []
    for rows in groups:
        if len(rows) != m:
            raise ValueError("all groups in a batch must share one size")
        tables = [_rolled_rows(tuple(row), num_resources) for row in rows]
        periods.append(_best(tables, assignments)[1])
    return periods


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
