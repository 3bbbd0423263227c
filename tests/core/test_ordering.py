"""Tests for stage ordering and the group iteration period (Eq. 3)."""

import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordering import (
    _BATCH_CHUNK,
    batched_best_periods,
    best_ordering,
    best_period_for_rows,
    enumerate_offset_assignments,
    extreme_period_for_rows,
    group_iteration_time,
    identity_ordering,
    slot_durations,
    worst_ordering,
)
from repro.jobs.stage import StageProfile

# Fig. 6 profiles: A spends 2 units on CPU (resource 1), 1 elsewhere;
# B spends 2 units on GPU (resource 2), 1 elsewhere.
FIG6_A = StageProfile((1.0, 2.0, 1.0, 1.0))
FIG6_B = StageProfile((1.0, 1.0, 2.0, 1.0))


class TestSlotDurations:
    def test_single_job_slots_are_its_stages(self):
        profile = StageProfile((0.1, 0.2, 0.3, 0.4))
        assert slot_durations([profile], (0,)) == [0.1, 0.2, 0.3, 0.4]

    def test_offset_rotates_stages(self):
        profile = StageProfile((0.1, 0.2, 0.3, 0.4))
        assert slot_durations([profile], (1,)) == [0.2, 0.3, 0.4, 0.1]

    def test_two_jobs_max_per_slot(self):
        a = StageProfile((2.0, 1.0))
        b = StageProfile((1.0, 2.0))
        # Offsets (0, 1): slot0 = max(a[0], b[1]) = 2; slot1 = max(a[1], b[0]) = 1.
        assert slot_durations([a, b], (0, 1), num_resources=2) == [2.0, 1.0]

    def test_rejects_duplicate_offsets(self):
        with pytest.raises(ValueError):
            slot_durations([FIG6_A, FIG6_B], (0, 0))

    def test_rejects_wrong_offset_count(self):
        with pytest.raises(ValueError):
            slot_durations([FIG6_A], (0, 1))

    def test_rejects_short_profile(self):
        with pytest.raises(ValueError):
            slot_durations([StageProfile((1.0, 1.0))], (0,), num_resources=4)


class TestGroupIterationTime:
    def test_single_job_is_stage_sum(self):
        profile = StageProfile((0.25, 0.25, 0.4, 0.1))
        assert group_iteration_time([profile], (0,)) == pytest.approx(1.0)

    def test_fig6_best_ordering_period(self):
        """Fig. 6(a): perfect overlap gives T = 5 time units."""
        offsets, period = best_ordering((FIG6_A, FIG6_B))
        assert period == pytest.approx(5.0)

    def test_fig6_worst_ordering_period(self):
        """Fig. 6(b): the bad ordering costs an extra unit, T = 6."""
        _offsets, period = worst_ordering((FIG6_A, FIG6_B))
        assert period == pytest.approx(6.0)

    def test_identity_matches_eq3_literally(self):
        offsets, period = identity_ordering((FIG6_A, FIG6_B))
        assert offsets == (0, 1)
        expected = sum(
            max(FIG6_A.durations[(0 + s) % 4], FIG6_B.durations[(1 + s) % 4])
            for s in range(4)
        )
        assert period == pytest.approx(expected)

    def test_figure1_ideal_four_way_overlap(self):
        """Fig. 1(b): four single-stage jobs overlap perfectly (T = d)."""
        jobs = [
            StageProfile(tuple(1.0 if i == r else 0.0 for i in range(4)))
            for r in range(4)
        ]
        _offsets, period = best_ordering(jobs)
        assert period == pytest.approx(1.0)

    def test_four_identical_single_stage_jobs_serialize(self):
        """Four storage-only jobs cannot overlap: T = 4d."""
        jobs = [StageProfile((1.0, 0.0, 0.0, 0.0))] * 4
        _offsets, period = best_ordering(jobs)
        assert period == pytest.approx(4.0)


class TestEnumeration:
    def test_single_job(self):
        assert list(enumerate_offset_assignments(1)) == [(0,)]

    def test_pair_count(self):
        # First offset pinned at 0; 3 choices remain.
        assert len(list(enumerate_offset_assignments(2))) == 3

    def test_quad_count(self):
        assert len(list(enumerate_offset_assignments(4))) == math.factorial(3)

    def test_offsets_distinct(self):
        for offsets in enumerate_offset_assignments(4):
            assert len(set(offsets)) == 4

    def test_first_offset_pinned(self):
        for offsets in enumerate_offset_assignments(3):
            assert offsets[0] == 0

    def test_too_many_jobs(self):
        with pytest.raises(ValueError):
            list(enumerate_offset_assignments(5, num_resources=4))

    def test_zero_jobs(self):
        with pytest.raises(ValueError):
            list(enumerate_offset_assignments(0))


@st.composite
def profile_groups(draw):
    size = draw(st.integers(min_value=1, max_value=4))
    profiles = []
    for _ in range(size):
        durations = draw(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0),
                min_size=4,
                max_size=4,
            ).filter(lambda d: sum(d) > 0)
        )
        profiles.append(StageProfile(tuple(durations)))
    return profiles


@settings(max_examples=150, deadline=None)
@given(profile_groups())
def test_best_le_identity_le_worst(profiles):
    _o1, best = best_ordering(profiles)
    _o2, ident = identity_ordering(profiles)
    _o3, worst = worst_ordering(profiles)
    assert best <= ident + 1e-9
    assert ident <= worst + 1e-9


@settings(max_examples=150, deadline=None)
@given(profile_groups())
def test_period_bounds(profiles):
    """max solo iteration <= T_best <= sum of solo iterations."""
    _offsets, period = best_ordering(profiles)
    solos = [p.iteration_time for p in profiles]
    assert period >= max(solos) - 1e-9
    assert period <= sum(solos) + 1e-9


@settings(max_examples=100, deadline=None)
@given(profile_groups())
def test_period_at_least_busy_time_per_resource(profiles):
    """T >= total demand on every resource (barriers forbid overlap)."""
    offsets, period = best_ordering(profiles)
    for resource in range(4):
        busy = sum(p.durations[resource] for p in profiles)
        assert period >= busy - 1e-9


def _scalar_extreme(profiles, pick_worst=False):
    """Reference implementation: the generator-based enumeration the
    vectorized kernel replaced."""
    extreme = None
    for offsets in enumerate_offset_assignments(len(profiles), 4):
        period = group_iteration_time(profiles, offsets, 4)
        better = (
            extreme is None
            or (period > extreme[1] if pick_worst else period < extreme[1])
        )
        if better:
            extreme = (offsets, period)
    return extreme


@settings(max_examples=150, deadline=None)
@given(profile_groups())
def test_vectorized_kernel_matches_scalar_enumeration(profiles):
    """The batch kernel is bit-identical to the scalar scan: same
    offsets (first-improvement tie-breaking) and exactly equal period,
    for both best and worst."""
    rows = tuple(p.durations for p in profiles)
    for pick_worst in (False, True):
        offsets, period = extreme_period_for_rows(rows, 4, pick_worst)
        ref_offsets, ref_period = _scalar_extreme(profiles, pick_worst)
        assert offsets == ref_offsets
        assert period == ref_period


def test_best_period_for_rows_matches_best_ordering():
    profiles = (
        StageProfile((1.0, 2.0, 1.0, 1.0)),
        StageProfile((1.0, 1.0, 2.0, 1.0)),
        StageProfile((2.0, 1.0, 1.0, 1.0)),
    )
    rows = tuple(p.durations for p in profiles)
    assert best_period_for_rows(rows) == best_ordering(profiles)


def test_rows_kernel_rejects_oversized_groups():
    rows = ((1.0, 1.0, 1.0, 1.0),) * 5
    with pytest.raises(ValueError):
        best_period_for_rows(rows)


# -- the batched kernel -----------------------------------------------------

duration_rows = st.lists(
    st.tuples(*[st.one_of(
        st.floats(0.001, 5.0), st.sampled_from((0.5, 1.0))
    )] * 4),
    min_size=1, max_size=12,
)


@pytest.mark.parametrize("m", (2, 3, 4))
@pytest.mark.parametrize("length", (
    1, _BATCH_CHUNK - 1, _BATCH_CHUNK, _BATCH_CHUNK + 1, 2 * _BATCH_CHUNK + 3,
))
@settings(max_examples=5, deadline=None)
@given(pool=duration_rows, seed=st.integers(0, 2**32 - 1))
def test_batched_kernel_matches_per_group_kernel(m, length, pool, seed):
    """Every chunk boundary gives bit-identical periods in order."""
    rng = random.Random(seed)
    groups = [
        tuple(rng.choice(pool) for _ in range(m)) for _ in range(length)
    ]
    assert batched_best_periods(groups) == [
        best_period_for_rows(rows)[1] for rows in groups
    ]


def test_batched_kernel_rejects_mixed_sizes_past_the_first_chunk():
    rows = (1.0, 2.0, 1.0, 1.0)
    groups = [(rows, rows)] * (_BATCH_CHUNK + 1) + [(rows, rows, rows)]
    with pytest.raises(ValueError):
        batched_best_periods(groups)


def test_batched_kernel_scratch_memory_is_bounded():
    """20,000 quads peak under 4 MB of Python-traced allocations; one
    unchunked pass over them peaks at ~30 MB."""
    rng = random.Random(0)
    pool = [tuple(rng.uniform(0.01, 1.0) for _ in range(4)) for _ in range(64)]
    groups = [tuple(rng.sample(pool, 4)) for _ in range(20_000)]
    batched_best_periods(groups[:_BATCH_CHUNK])  # warm the row-table cache
    tracemalloc.start()
    try:
        batched_best_periods(groups)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
