"""Property tests of the heterogeneous arm.

Two properties lock the speed-scaling model down:

* **Metamorphic k-scaling** — multiplying every generation's speed
  factor by ``k`` (``TypeScaling.uniformly_scaled``) must scale the
  makespan of a contention-free at-time-zero workload by ``~1/k``.
  The workload is sized under cluster capacity so every job starts at
  the first scheduling pass; then every time component of the run is
  a stage duration, and stage durations scale exactly.
* **Single-type identity** — a one-generation heterogeneous
  configuration must be bit-identical to the untyped homogeneous
  path, for any seed, via the
  :func:`~repro.verify.compare_homogeneous_identity` oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import Cluster
from repro.hetero.types import DEFAULT_TYPE_SCALING, get_gpu_type
from repro.hetero.workload import build_hetero_jobs
from repro.schedulers.registry import make_scheduler
from repro.sim.simulator import ClusterSimulator
from repro.trace.philly import generate_trace
from repro.verify import compare_homogeneous_identity

#: Explicit half/half two-generation layout: per-type capacity (64
#: GPUs each) exceeds any 8-job workload's pinned demand, so every job
#: starts at t=0 and makespan is a pure function of stage durations.
_LAYOUT = [get_gpu_type("v100")] * 8 + [get_gpu_type("a100")] * 8


def _makespan(scaling, num_jobs, seed):
    trace = generate_trace(
        "1", num_jobs=num_jobs, seed=seed, at_time_zero=True
    )
    specs = build_hetero_jobs(
        trace, ("v100", "a100"), seed=seed, scaling=scaling
    )
    cluster = Cluster(16, 8, machine_types=list(_LAYOUT))
    # restart_penalty is a fixed startup cost, not a stage duration,
    # so it would add a non-scaling constant; zero it to keep the
    # makespan a pure function of (scaled) stage durations.
    result = ClusterSimulator(
        make_scheduler("fifo"), cluster=cluster, restart_penalty=0.0
    ).run(specs, trace.name)
    assert len(result.jcts) == len(specs)
    return result.makespan


@settings(max_examples=20, deadline=None)
@given(
    k=st.floats(min_value=0.3, max_value=3.0,
                allow_nan=False, allow_infinity=False),
    num_jobs=st.integers(min_value=3, max_value=8),
    seed=st.integers(min_value=0, max_value=40),
)
def test_uniform_speed_scaling_scales_makespan(k, num_jobs, seed):
    base = _makespan(DEFAULT_TYPE_SCALING, num_jobs, seed)
    scaled = _makespan(
        DEFAULT_TYPE_SCALING.uniformly_scaled(k), num_jobs, seed
    )
    assert scaled == pytest.approx(base / k, rel=1e-6)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=30),
    num_jobs=st.integers(min_value=4, max_value=12),
    type_name=st.sampled_from(("k80", "v100", "a100")),
    scheduler=st.sampled_from(("muri-s", "muri-l", "fifo")),
)
def test_single_type_hetero_is_bit_identical(
    seed, num_jobs, type_name, scheduler
):
    trace = generate_trace("1", num_jobs=num_jobs, seed=seed)
    from repro.trace.workload import build_jobs

    specs = build_jobs(trace, seed=seed)
    homogeneous, hetero = compare_homogeneous_identity(
        specs,
        type_name=type_name,
        scheduler=scheduler,
        cluster_shape=(4, 8),
        seed=seed,
    )
    assert homogeneous.jcts == hetero.jcts


def test_homogeneous_oracle_detects_a_shrunken_type_pool(monkeypatch):
    """Non-vacuity: a type-filtered placement pool that loses a machine
    (only the pinned side plans on typed pools) must trip the oracle."""
    from repro.trace.workload import build_jobs
    from repro.verify.invariants import InvariantViolation

    def shrunken(self, type_name):
        return [m for m in self.machines if m.matches_type(type_name)][:-1]

    monkeypatch.setattr(Cluster, "machines_of_type", shrunken)
    trace = generate_trace("1", num_jobs=40, seed=0)
    specs = [spec for spec in build_jobs(trace, seed=0) if spec.num_gpus <= 8]
    with pytest.raises(InvariantViolation, match="homogeneous") as excinfo:
        compare_homogeneous_identity(specs, cluster_shape=(2, 8))
    assert "jcts" in excinfo.value.details["mismatches"]


class TestUniformScalingIdentity:
    """The throughput-aware placer's degeneracy oracle.

    Uniform speed factors carry no placement signal, so the aware
    placer must reproduce the default path bit-identically — for the
    neutral factor 1.0 and for any other uniform factor.
    """

    @staticmethod
    def _specs(num_jobs=96, seed=0):
        from repro.trace.workload import build_jobs

        trace = generate_trace("1", num_jobs=num_jobs, seed=seed)
        return build_jobs(trace, seed=seed)

    @pytest.mark.parametrize("factor", [1.0, 0.5, 2.0])
    def test_identity_holds_for_uniform_factors(self, factor):
        from repro.verify import compare_uniform_scaling_identity

        baseline, aware = compare_uniform_scaling_identity(
            self._specs(), factor=factor, cluster_shape=(8, 8), seed=0
        )
        assert baseline.jcts == aware.jcts
        assert baseline.makespan == aware.makespan

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=20),
        scheduler=st.sampled_from(("muri-s", "fifo")),
    )
    def test_identity_holds_across_seeds(self, seed, scheduler):
        from repro.verify import compare_uniform_scaling_identity

        # Cap per-job demand at one machine so a hard pin can always
        # be hosted by its generation's pool, whatever mix the seed
        # draws — an oversized pin would starve, not diverge.
        specs = [
            spec for spec in self._specs(num_jobs=32, seed=seed)
            if spec.num_gpus <= 8
        ]
        baseline, aware = compare_uniform_scaling_identity(
            specs,
            scheduler=scheduler,
            cluster_shape=(4, 8),
            seed=seed,
        )
        assert baseline.jcts == aware.jcts

    def test_oracle_detects_a_divergent_placer(self, monkeypatch):
        """Non-vacuity: a placer that mis-ranks pools under uniform
        factors must trip the oracle."""
        from repro.cluster.placement import ThroughputAwarePlacer
        from repro.verify import compare_uniform_scaling_identity
        from repro.verify.invariants import InvariantViolation

        def skewed(self, cluster, model):
            # Fabricate a throughput signal that is not there, forcing
            # genuine steering (and with it, different plans).
            names = cluster.gpu_type_names()
            if model is None or len(names) < 2:
                return None
            return {
                name: float(index + 1)
                for index, name in enumerate(names)
            }

        monkeypatch.setattr(
            ThroughputAwarePlacer, "_pool_factors", skewed
        )
        with pytest.raises(InvariantViolation, match="uniform_scaling"):
            compare_uniform_scaling_identity(
                self._specs(), cluster_shape=(8, 8), seed=0
            )
