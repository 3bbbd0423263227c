"""Differential oracles: optimized grouping/matching vs the slow twins."""

import random

import pytest

from repro.cluster.cluster import Cluster
from repro.hetero.types import get_gpu_type
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.matching.exact import brute_force_matching
from repro.schedulers.registry import make_scheduler
from repro.sim.metrics import SimulationResult
from repro.sim.simulator import ClusterSimulator
from repro.verify.differential import (
    compare_cold_cached,
    compare_dense_sparse,
    compare_groups_exact,
    compare_pairs_exact,
    group_sets,
    jobs_from_rows,
    result_mismatches,
)
from repro.verify.invariants import InvariantViolation


def random_rows(rng, n):
    rows = []
    for _ in range(n):
        row = [
            round(rng.uniform(0.1, 8.0), 3) if rng.random() > 0.2 else 0.0
            for _ in range(4)
        ]
        if not any(row):
            row[rng.randrange(4)] = 1.0
        rows.append(tuple(row))
    return rows


class TestPairsExact:
    def test_blossom_agrees_with_brute_force(self):
        rng = random.Random(1)
        for _ in range(20):
            n = rng.randint(2, 8)
            edges = [
                (u, v, round(rng.uniform(0.0, 1.0), 6))
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.7
            ]
            if not edges:
                continue
            weight = compare_pairs_exact(edges)
            assert weight == pytest.approx(brute_force_matching(edges)[1])

    def test_detects_a_bad_matcher(self, monkeypatch):
        # Force the "blossom" side to return an empty matching on a
        # graph whose optimum is positive: the oracle must object.
        import repro.verify.differential as differential

        monkeypatch.setattr(
            differential, "matching_pairs", lambda edges: []
        )
        with pytest.raises(InvariantViolation) as exc:
            compare_pairs_exact([(0, 1, 1.0)])
        assert exc.value.invariant == "differential.matching"


class TestDenseSparse:
    def test_small_inputs_identical(self):
        rng = random.Random(2)
        jobs = jobs_from_rows(random_rows(rng, 24))
        dense, sparse = compare_dense_sparse(jobs)
        assert group_sets(dense) == group_sets(sparse)

    @pytest.mark.parametrize("num_jobs", [127, 128, 129])
    def test_sparsify_threshold_boundary(self, num_jobs):
        # 127 stays on the dense path (must be bit-identical); 128 and
        # 129 cross onto the sparse candidate graph, where coverage
        # must match and efficiency may regress only boundedly.
        rng = random.Random(5)
        jobs = jobs_from_rows(random_rows(rng, num_jobs))
        dense, sparse = compare_dense_sparse(jobs, sparsify_threshold=128)
        if num_jobs < 128:
            assert group_sets(dense) == group_sets(sparse)

    def test_capacity_respected_on_both_sides(self):
        rng = random.Random(3)
        jobs = jobs_from_rows(random_rows(rng, 20))
        dense, sparse = compare_dense_sparse(jobs, capacity=8)
        assert dense.total_gpu_demand <= 8
        assert sparse.total_gpu_demand <= 8


class TestColdCached:
    def test_cache_never_changes_decisions(self):
        rng = random.Random(4)
        jobs = jobs_from_rows(random_rows(rng, 30))
        cold, cached = compare_cold_cached(jobs)
        assert group_sets(cold) == group_sets(cached)

    def test_quantized_durations_key_path(self):
        # cache_quantum > 0 exercises the quantized durations_key
        # lookups; served decisions must still be identical.
        rng = random.Random(6)
        jobs = jobs_from_rows(random_rows(rng, 30))
        cold, cached = compare_cold_cached(jobs, cache_quantum=0.05)
        assert group_sets(cold) == group_sets(cached)


class TestGroupsExact:
    def test_heuristic_within_bound_of_optimum(self):
        rng = random.Random(8)
        jobs = jobs_from_rows(random_rows(rng, 8))
        heuristic, exact = compare_groups_exact(jobs, min_fraction=0.5)
        assert heuristic <= exact + 1e-6

    def test_detects_an_unsound_heuristic(self, monkeypatch):
        # An "optimum" of zero with a positive heuristic total means
        # the oracle itself is broken; the soundness check must fire.
        import repro.verify.differential as differential

        monkeypatch.setattr(
            differential,
            "exact_hypergraph_matching",
            lambda n, size, weight: ((), 0.0),
        )
        rng = random.Random(9)
        jobs = jobs_from_rows(random_rows(rng, 8))
        with pytest.raises(InvariantViolation) as exc:
            compare_groups_exact(jobs)
        assert exc.value.invariant == "differential.optimality"


def typed_result():
    """A real run on a typed cluster, so every ``to_dict`` key is set."""
    rng = random.Random(3)
    specs = [
        JobSpec(
            profile=StageProfile(tuple(random_rows(rng, 1)[0])),
            num_gpus=rng.choice((1, 2, 4)),
            num_iterations=rng.randint(20, 60),
            submit_time=float(i),
        )
        for i in range(40)
    ]
    cluster = Cluster(2, 4, machine_types=[get_gpu_type("v100")] * 2)
    return ClusterSimulator(
        make_scheduler("muri-s"), cluster=cluster
    ).run(specs, "typed")


def perturbed(value):
    """The same JSON value with exactly one leaf changed."""
    if isinstance(value, str):
        return value + "!"
    if isinstance(value, dict):
        key = next(iter(value))
        return {**value, key: perturbed(value[key])}
    if isinstance(value, list):
        return [perturbed(value[0]), *value[1:]]
    return value + 1


class TestResultMismatches:
    def test_identical_results_have_no_mismatches(self):
        result = typed_result()
        copy = SimulationResult.from_dict(result.to_dict())
        assert result_mismatches(result, copy) == {}

    def test_every_serialized_field_is_compared(self):
        result = typed_result()
        payload = result.to_dict()
        fields = set(payload) - {"format_version", "wall_clock"}
        assert {"gpu_seconds_by_type", "gpus_by_type"} <= fields
        for field in fields:
            changed = SimulationResult.from_dict(
                {**payload, field: perturbed(payload[field])}
            )
            assert set(result_mismatches(result, changed)) == {field}
            assert result_mismatches(result, changed, ignore=(field,)) == {}

    def test_wall_clock_is_never_compared(self):
        result = typed_result()
        payload = result.to_dict()
        changed = SimulationResult.from_dict(
            {**payload, "wall_clock": payload["wall_clock"] + 1.0}
        )
        assert result_mismatches(result, changed) == {}

    def test_details_are_bounded(self):
        result = typed_result()
        payload = result.to_dict()
        changed = SimulationResult.from_dict({
            **payload,
            "jcts": {k: v + 1.0 for k, v in payload["jcts"].items()},
            "timeseries": payload["timeseries"][:-1],
            "total_preemptions": payload["total_preemptions"] + 1,
        })
        mismatches = result_mismatches(result, changed)
        first_ids = sorted(result.jcts)[:16]
        assert mismatches["jcts"]["diverging"] == [str(i) for i in first_ids]
        points = len(result.timeseries)
        assert mismatches["timeseries"] == {
            "left_points": points,
            "right_points": points - 1,
            "first_diverging": points - 1,
        }
        assert mismatches["total_preemptions"] == {
            "left": result.total_preemptions,
            "right": result.total_preemptions + 1,
        }
