"""Curve points built on first read: bit-identity, value semantics, cost.

A :class:`ScalabilityProfile` made by ``from_speedups`` or ``scaled``
keeps its derived points as recipes until they are read.  These tests
pin that the points it builds are bit-for-bit the eagerly scaled
profiles, that a lazy curve behaves as a value, and that the
heterogeneous elastic set-up builds a fraction of the profiles the
eager curves did.
"""

import pickle
import random

import pytest

from repro.elastic.workload import attach_scalability
from repro.hetero.types import DEFAULT_TYPE_SCALING
from repro.hetero.workload import pin_jobs
from repro.jobs.scalability import ScalabilityProfile
from repro.jobs.stage import StageProfile
from repro.replay.workload import synthetic_trace
from repro.trace.workload import build_jobs

UNIT = StageProfile((0.25, 0.25, 0.25, 0.25))
TYPES = ("k80", "a100")


def eager_amdahl(specs, seed, fraction=0.5, max_gpus=8,
                 serial_fraction_range=(0.05, 0.35)):
    """``attach_scalability``'s curves with every point built at once,
    as ``{job_id: {gpus: profile}}`` for the elected jobs."""
    low, high = serial_fraction_range
    rng = random.Random(seed)
    curves = {}
    for spec in specs:
        elected = rng.random() < fraction
        serial = rng.uniform(low, high)
        if not elected:
            continue

        def throughput(gpus):
            return gpus / (1.0 + serial * (gpus - 1))

        counts = {1 << k for k in range(max_gpus.bit_length())}
        counts.add(spec.num_gpus)
        base = throughput(spec.num_gpus)
        curves[spec.job_id] = {
            gpus: (
                spec.profile if gpus == spec.num_gpus
                else spec.profile.scaled(1.0 / (throughput(gpus) / base))
            )
            for gpus in sorted(counts)
        }
    return curves


def hexes(profile):
    return [duration.hex() for duration in profile.durations]


def assert_bit_identical(lazy, eager):
    assert lazy.gpu_counts == tuple(sorted(eager))
    for gpus, profile in eager.items():
        assert hexes(lazy.profile_for(gpus)) == hexes(profile)


@pytest.fixture(scope="module")
def rigid():
    return build_jobs(synthetic_trace(300, seed=3), seed=3)


class TestBitIdentity:
    def test_attached_points_equal_the_eager_chain(self, rigid):
        elastic = attach_scalability(rigid, fraction=0.5, seed=3)
        eager = eager_amdahl(rigid, seed=3)
        assert len(eager) > 100
        for spec in elastic:
            if spec.job_id in eager:
                assert_bit_identical(spec.scalability, eager[spec.job_id])
            else:
                assert spec.scalability is None

    def test_pinned_points_equal_the_eager_chain(self, rigid):
        elastic = attach_scalability(rigid, fraction=0.5, seed=3)
        pinned = pin_jobs(elastic, TYPES, seed=3, prefer_fraction=0.6)
        eager = eager_amdahl(rigid, seed=3)
        hard = 0
        for spec in pinned:
            if spec.job_id not in eager:
                continue
            curve = eager[spec.job_id]
            if spec.affinity_mode == "pin":
                hard += 1
                factor = DEFAULT_TYPE_SCALING.factor(
                    spec.model, spec.gpu_affinity
                )
                curve = {
                    gpus: profile.scaled(1.0 / factor)
                    for gpus, profile in curve.items()
                }
            assert_bit_identical(spec.scalability, curve)
            assert hexes(spec.profile) == hexes(curve[spec.num_gpus])
        assert hard > 30

    def test_factors_apply_in_order_not_pre_multiplied(self):
        # d * (1/s) * (1/f) and d * ((1/s) * (1/f)) round differently
        # for these values; the lazy point must take the first.
        duration, speedup, factor = 0.1, 3.0, 7.0
        assert duration * (1 / speedup) * (1 / factor) != duration * (
            (1 / speedup) * (1 / factor)
        )
        base = StageProfile((duration, duration))
        lazy = ScalabilityProfile.from_speedups(
            1, base, {2: speedup}
        ).scaled(1 / factor)
        eager = base.scaled(1 / speedup).scaled(1 / factor)
        assert hexes(lazy.profile_for(2)) == hexes(eager)


def lazy_and_eager():
    lazy = ScalabilityProfile.from_speedups(
        2, UNIT, {1: 0.6, 2: 1.0, 4: 1.7, 8: 2.9}
    ).scaled(1 / 1.3)
    eager = ScalabilityProfile.from_mapping({
        gpus: UNIT.scaled(1.0 / speedup).scaled(1 / 1.3)
        if gpus != 2 else UNIT.scaled(1 / 1.3)
        for gpus, speedup in {1: 0.6, 2: 1.0, 4: 1.7, 8: 2.9}.items()
    })
    return lazy, eager


class TestValueSemantics:
    def test_equal_to_the_eager_curve_before_any_read(self):
        lazy, eager = lazy_and_eager()
        assert lazy == eager
        assert hash(lazy) == hash(eager)
        assert lazy.points == eager.points
        assert repr(lazy) == repr(eager)

    def test_unequal_curves_stay_unequal(self):
        lazy, _ = lazy_and_eager()
        assert lazy != lazy.scaled(2.0)
        assert lazy != "not a curve"

    def test_pickle_round_trip(self):
        lazy, eager = lazy_and_eager()
        copy = pickle.loads(pickle.dumps(lazy))
        assert copy == eager
        assert hash(copy) == hash(eager)
        assert copy.points == eager.points

    def test_scaled_equals_scaling_every_point(self):
        _, eager = lazy_and_eager()
        scaled = eager.scaled(0.5)
        assert scaled.points == tuple(
            (gpus, profile.scaled(0.5)) for gpus, profile in eager.points
        )

    def test_counts_are_read_without_building_points(self, monkeypatch):
        lazy, _ = lazy_and_eager()
        builds = count_builds(monkeypatch)
        assert lazy.gpu_counts == (1, 2, 4, 8)
        assert (lazy.min_gpus, lazy.max_gpus, lazy.is_flat) == (1, 8, False)
        assert lazy.supports(4) and not lazy.supports(3)
        assert lazy.counts_up_to(4) == (1, 2, 4)
        assert builds() == 0
        first = lazy.profile_for(4)
        assert lazy.profile_for(4) is first
        assert builds() == 1


class TestEagerChecks:
    @pytest.mark.parametrize(
        "factor", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_scaled_rejects_bad_factors(self, factor):
        lazy, _ = lazy_and_eager()
        with pytest.raises(ValueError):
            lazy.scaled(factor)

    @pytest.mark.parametrize(
        "speedup", [0.0, -2.0, float("nan"), float("inf"), 1e-320]
    )
    def test_from_speedups_rejects_bad_speedups(self, speedup):
        with pytest.raises(ValueError):
            ScalabilityProfile.from_speedups(1, UNIT, {2: speedup})

    def test_count_checks_stay_eager(self):
        with pytest.raises(ValueError):
            ScalabilityProfile.from_speedups(1, UNIT, {0: 1.0})

    @pytest.mark.parametrize(
        "duration, factor", [(1e300, 1e10), (5e-324, 0.1)],
        ids=["overflow", "underflow"],
    )
    def test_overflow_or_underflow_raises_on_first_read(
        self, duration, factor
    ):
        base = StageProfile((duration,) * 4)
        curve = ScalabilityProfile.from_speedups(
            1, base, {2: 1.0}
        ).scaled(factor)
        assert curve.gpu_counts == (1, 2)
        for _ in range(2):
            with pytest.raises(ValueError, match="stage"):
                curve.profile_for(2)
        with pytest.raises(ValueError):
            curve.points


def count_builds(monkeypatch):
    """Count :class:`StageProfile` constructions from now on."""
    built = [0]
    validate = StageProfile.__post_init__

    def counted(profile):
        built[0] += 1
        validate(profile)

    monkeypatch.setattr(StageProfile, "__post_init__", counted)
    return lambda: built[0]


def test_hetero_elastic_set_up_builds_few_profiles(monkeypatch):
    # The benchmark's hetero-elastic set-up at 2,000 jobs: eager curves
    # built 5,309 profiles here; the drive reads about 1,100 points.
    builds = count_builds(monkeypatch)
    trace = synthetic_trace(2_000, seed=0)
    specs = build_jobs(trace, seed=0)
    specs = attach_scalability(specs, fraction=0.5, seed=0)
    specs = pin_jobs(specs, TYPES, seed=0, prefer_fraction=0.6)
    assert len(specs) == 2_000
    assert builds() <= 600
