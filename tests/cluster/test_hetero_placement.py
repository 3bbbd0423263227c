"""Typed machines, typed clusters, and affinity-aware placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.cluster.machine import GpuType
from repro.cluster.placement import DescendingPlacer, ThroughputAwarePlacer
from repro.hetero.types import DEFAULT_TYPE_SCALING, TypeScaling
from repro.hetero.workload import make_hetero_cluster, pin_jobs
from repro.schedulers.registry import make_scheduler
from repro.sim.simulator import ClusterSimulator
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs

V100 = GpuType("v100", speed_factor=1.0, memory_gb=32.0)
A100 = GpuType("a100", speed_factor=2.0, memory_gb=40.0)
K80 = GpuType("k80", speed_factor=0.35, memory_gb=12.0)


def typed_cluster():
    """Two v100 machines (ids 0-1), two a100 machines (ids 2-3)."""
    return Cluster(4, 4, machine_types=[V100, V100, A100, A100])


class TestTypedCluster:
    def test_machine_types_length_validated(self):
        with pytest.raises(ValueError):
            Cluster(3, 4, machine_types=[V100])

    def test_untyped_cluster_has_no_type_names(self):
        cluster = Cluster(2, 4)
        assert cluster.gpu_type_names() == ()
        assert not cluster.is_heterogeneous
        assert cluster.gpu_type_of_machine(0) is None

    def test_typed_cluster_reports_names(self):
        cluster = typed_cluster()
        assert cluster.gpu_type_names() == ("a100", "v100")
        assert cluster.is_heterogeneous
        assert cluster.gpu_type_of_machine(0) == "v100"
        assert cluster.gpu_type_of_machine(3) == "a100"

    def test_machines_of_type_filters(self):
        cluster = typed_cluster()
        assert [m.machine_id for m in cluster.machines_of_type("a100")] == [2, 3]
        assert cluster.machines_of_type("k80") == []

    def test_machines_of_type_none_returns_all(self):
        cluster = typed_cluster()
        assert len(cluster.machines_of_type(None)) == 4


class TestMachineTypeMatching:
    def test_matches_none_always(self):
        cluster = typed_cluster()
        assert cluster.machine(0).matches_type(None)

    def test_matches_own_type_only(self):
        machine = typed_cluster().machine(2)
        assert machine.matches_type("a100")
        assert not machine.matches_type("v100")

    def test_untyped_machine_matches_nothing_specific(self):
        machine = Cluster(1, 4).machine(0)
        assert machine.matches_type(None)
        assert not machine.matches_type("v100")


class TestAffinityPlacement:
    def test_pin_restricts_to_the_typed_pool(self):
        cluster = typed_cluster()
        plan = DescendingPlacer().plan_for(cluster, 4, gpu_type="a100")
        assert plan is not None
        assert set(plan) <= {2, 3}

    def test_pin_infeasible_when_pool_exhausted(self):
        cluster = typed_cluster()
        # a100 pool is 8 GPUs; a 9-GPU pin cannot fit even though the
        # cluster as a whole has 16 free.
        assert DescendingPlacer().plan_for(
            cluster, 9, gpu_type="a100"
        ) is None

    def test_prefer_falls_back_to_whole_cluster(self):
        cluster = typed_cluster()
        plan = DescendingPlacer().plan_for(
            cluster, 9, gpu_type="a100", prefer=True
        )
        assert plan is not None
        assert sum(plan.values()) == 9

    def test_prefer_stays_on_type_when_feasible(self):
        cluster = typed_cluster()
        plan = DescendingPlacer().plan_for(
            cluster, 4, gpu_type="a100", prefer=True
        )
        assert set(plan) <= {2, 3}

    def test_untyped_plan_unchanged(self):
        cluster = typed_cluster()
        plan = DescendingPlacer().plan_for(cluster, 16)
        assert sum(plan.values()) == 16


@st.composite
def occupied_typed_clusters(draw):
    """A partially occupied typed cluster plus one demand and a target
    generation — the inputs of a single plan_for call."""
    machines = draw(st.integers(min_value=2, max_value=6))
    gpus = draw(st.integers(min_value=1, max_value=8))
    types = draw(
        st.lists(
            st.sampled_from([V100, A100, K80]),
            min_size=machines, max_size=machines,
        )
    )
    cluster = Cluster(machines, gpus, machine_types=types)
    used = draw(
        st.lists(
            st.integers(min_value=0, max_value=gpus),
            min_size=machines, max_size=machines,
        )
    )
    for machine_id, count in enumerate(used):
        if count > 0:
            cluster.allocate(1000 + machine_id, {machine_id: count})
    demand = draw(st.integers(min_value=1, max_value=machines * gpus))
    target = draw(st.sampled_from(["v100", "a100", "k80"]))
    return cluster, demand, target


@settings(max_examples=150, deadline=None)
@given(occupied_typed_clusters())
def test_feasibility_is_monotone_pin_prefer_untyped(params):
    """Relaxing the affinity never loses feasibility: a demand a hard
    pin can place, a soft preference can place; a demand a preference
    can place, the untyped path can place.  And whenever the pinned
    pool suffices, the preference actually lands there."""
    cluster, demand, target = params
    placer = DescendingPlacer()
    typed_ids = {
        m.machine_id for m in cluster.machines_of_type(target)
    }

    pin = placer.plan_for(cluster, demand, gpu_type=target)
    prefer = placer.plan_for(cluster, demand, gpu_type=target, prefer=True)
    untyped = placer.plan_for(cluster, demand)

    if pin is not None:
        assert prefer is not None
        assert set(prefer) <= typed_ids
    if prefer is not None:
        assert untyped is not None
    # Every produced plan delivers exactly the demand, and a pinned
    # plan never leaves its pool.
    for plan in (pin, prefer, untyped):
        if plan is not None:
            assert sum(plan.values()) == demand
    if pin is not None:
        assert set(pin) <= typed_ids


def three_gen_cluster():
    """Two machines per generation: k80 ids 0-1, v100 2-3, a100 4-5."""
    return Cluster(6, 4, machine_types=[K80, K80, V100, V100, A100, A100])


class TestThroughputAwarePlacer:
    def test_unaffine_demand_steered_to_fastest_pool(self):
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(base={"v100": 1.0, "a100": 2.0})
        )
        plan = placer.plan_for_model(typed_cluster(), 2, model="gpt2")
        assert set(plan) <= {2, 3}  # the a100 machines

    def test_preference_for_slower_pool_is_overridden(self):
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(base={"v100": 1.0, "a100": 2.0})
        )
        plan = placer.plan_for_model(
            typed_cluster(), 2, gpu_type="v100", prefer=True, model="gpt2"
        )
        assert set(plan) <= {2, 3}

    def test_hard_pin_is_never_steered(self):
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(base={"v100": 1.0, "a100": 2.0})
        )
        plan = placer.plan_for_model(
            typed_cluster(), 2, gpu_type="v100", prefer=False, model="gpt2"
        )
        assert set(plan) <= {0, 1}

    def test_factor_tie_broken_by_preferred_generation(self):
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(
                base={"k80": 1.0, "v100": 2.0, "a100": 2.0}
            )
        )
        preferred = placer.plan_for_model(
            three_gen_cluster(), 2, gpu_type="v100", prefer=True,
            model="gpt2",
        )
        assert set(preferred) <= {2, 3}
        # Without a preference the name orders equal factors: a100
        # before v100, deterministically.
        unaffine = placer.plan_for_model(
            three_gen_cluster(), 2, model="gpt2"
        )
        assert set(unaffine) <= {4, 5}

    def test_spans_cluster_when_no_pool_suffices(self):
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(base={"v100": 1.0, "a100": 2.0})
        )
        plan = placer.plan_for_model(typed_cluster(), 12, model="gpt2")
        assert sum(plan.values()) == 12
        assert len(plan) > 2  # necessarily crosses generation pools

    def test_steering_falls_back_when_pools_are_busy(self):
        cluster = typed_cluster()
        cluster.allocate(99, {2: 4, 3: 4})  # exhaust the a100 pool
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(base={"v100": 1.0, "a100": 2.0})
        )
        plan = placer.plan_for_model(cluster, 2, model="gpt2")
        assert set(plan) <= {0, 1}  # second-fastest pool hosts it


class TestThroughputAwareDegeneracy:
    """Every no-signal case must match the parent plan exactly."""

    def _assert_matches_parent(self, placer, cluster, **kwargs):
        parent = DescendingPlacer().plan_for_model(cluster, 3, **kwargs)
        aware = placer.plan_for_model(cluster, 3, **kwargs)
        assert aware == parent

    def test_no_model_matches_parent(self):
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(base={"v100": 1.0, "a100": 2.0})
        )
        self._assert_matches_parent(placer, typed_cluster(), model=None)

    def test_uniform_factors_match_parent(self):
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(base={"v100": 1.5, "a100": 1.5})
        )
        self._assert_matches_parent(
            placer, typed_cluster(), gpu_type="a100", prefer=True,
            model="gpt2",
        )

    def test_untyped_cluster_matches_parent(self):
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(base={"v100": 1.0, "a100": 2.0})
        )
        self._assert_matches_parent(placer, Cluster(4, 4), model="gpt2")

    def test_single_generation_matches_parent(self):
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(base={"v100": 1.0, "a100": 2.0})
        )
        cluster = Cluster(4, 4, machine_types=[A100] * 4)
        self._assert_matches_parent(placer, cluster, model="gpt2")

    def test_unknown_generation_matches_parent(self):
        # a100 missing from the table: no complete factor set, so the
        # aware path must abstain rather than half-score the pools.
        placer = ThroughputAwarePlacer(
            scaling=TypeScaling(base={"v100": 1.0})
        )
        self._assert_matches_parent(
            placer, typed_cluster(), gpu_type="v100", prefer=True,
            model="gpt2",
        )


class TestAwareMakespan:
    """The placement claim on a seeded k80+a100 mix, pinned exactly."""

    def test_aware_shortens_makespan(self):
        specs = build_jobs(generate_trace("1", num_jobs=256, seed=0), seed=0)
        pinned = pin_jobs(specs, ["k80", "a100"], seed=0, prefer_fraction=0.6)
        makespans = []
        for placer in (None, ThroughputAwarePlacer()):
            simulator = ClusterSimulator(
                make_scheduler("muri-s"),
                cluster=make_hetero_cluster(
                    8, 8, type_names=("k80", "a100"), seed=0
                ),
                landing_speed_scaling=DEFAULT_TYPE_SCALING,
                placer=placer,
            )
            makespans.append(simulator.run(pinned, "hetero").makespan)
        baseline, aware = makespans
        # Simulated time only, so the ratio is exact for the seed.
        assert aware / baseline == float.fromhex("0x1.d61c14ed958f1p-1")
        assert aware / baseline < 1.0
