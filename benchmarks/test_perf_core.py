"""Performance microbenchmarks for the core algorithms.

Unlike the experiment benches (one pedantic round each), these run
multiple rounds and exist to catch performance regressions in the hot
paths: blossom matching, multi-round grouping, ordering enumeration,
a full scheduler decision, and the fleet front-end's admission and
drain.

Budget context: the paper says the centralized scheduler groups 1,000
jobs in "a few seconds"; our Python blossom matches 256 jobs in tens of
milliseconds and a full Muri decision over a 256-GPU-demand batch runs
in well under a second.
"""

import random
import time

from repro.core.grouping import MultiRoundGrouper
from repro.core.muri import MuriScheduler
from repro.core.ordering import best_ordering
from repro.fleet import FleetFrontEnd, partition_cluster
from repro.jobs.job import Job, JobSpec
from repro.jobs.resources import NUM_RESOURCES
from repro.jobs.stage import StageProfile
from repro.matching.blossom import matching_pairs
from repro.matching.sparsify import SparsifyConfig, sparse_candidate_edges
from repro.models.zoo import DEFAULT_MODELS, get_model
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs


def _random_edges(n, seed=0):
    rng = random.Random(seed)
    weights = [round(rng.uniform(0.3, 1.0), 3) for _ in range(64)]
    return [
        (u, v, weights[(u * 7 + v) % 64])
        for u in range(n) for v in range(u + 1, n)
    ]


def _random_jobs(n, seed=0):
    rng = random.Random(seed)
    return [
        Job(JobSpec(
            profile=get_model(rng.choice(DEFAULT_MODELS)).stage_profile(1),
            num_iterations=rng.randint(100, 5000),
        ))
        for _ in range(n)
    ]


def _uniform_jobs(count, seed):
    """Seeded mixed-GPU jobs, stage durations drawn uniformly per resource."""
    rng = random.Random(seed)
    jobs = []
    for _ in range(count):
        rows = tuple(
            round(rng.uniform(0.05, 5.0), 3) for _ in range(NUM_RESOURCES)
        )
        jobs.append(Job(JobSpec(
            profile=StageProfile(rows),
            num_gpus=rng.choice((1, 1, 2, 4, 8)),
            num_iterations=100,
        )))
    return jobs


def test_perf_blossom_128(benchmark):
    edges = _random_edges(128)
    pairs = benchmark(matching_pairs, edges)
    assert len(pairs) == 64


def test_perf_blossom_256(benchmark):
    edges = _random_edges(256)
    pairs = benchmark(matching_pairs, edges)
    assert len(pairs) == 128


def test_perf_grouping_128_jobs(benchmark):
    jobs = _random_jobs(128)
    grouper = MultiRoundGrouper()

    def group():
        return grouper.group(jobs, capacity=32)

    result = benchmark(group)
    assert result.total_gpu_demand <= 128


def test_perf_ordering_enumeration(benchmark):
    profiles = tuple(
        get_model(name).stage_profile(1)
        for name in ("ShuffleNet", "A2C", "GPT-2", "VGG16")
    )
    offsets, period = benchmark(best_ordering, profiles)
    assert period > 0


def test_perf_grouping_512(benchmark):
    """512 single-GPU jobs, capacity 128: the sparse candidate graph
    keeps this in the hundreds of milliseconds (dense: >10 s)."""
    jobs = _random_jobs(512, seed=1)
    grouper = MultiRoundGrouper()

    def group():
        return grouper.group(jobs, capacity=128)

    result = benchmark.pedantic(group, rounds=3, iterations=1)
    assert result.total_gpu_demand == 128


def test_perf_grouping_1024(benchmark):
    """The paper's scale: 1,024 jobs grouped in a few seconds."""
    jobs = _random_jobs(1024, seed=2)
    grouper = MultiRoundGrouper()

    def group():
        return grouper.group(jobs, capacity=256)

    result = benchmark.pedantic(group, rounds=3, iterations=1)
    assert result.total_gpu_demand == 256


def test_perf_grouping_cold_4096(benchmark):
    """A cold grouping of 4,096 trace-1 jobs with no capacity cap.

    Each round gets a fresh grouper, so no cache survives between
    rounds; trace-1 profiles repeat across jobs, the duplicate-heavy
    regime the weight cache is built for.
    """
    specs = build_jobs(generate_trace("1", num_jobs=4096, seed=0), seed=0)
    jobs = [Job(spec) for spec in specs]

    def fresh_grouper():
        return (MuriScheduler().grouper,), {}

    def group(grouper):
        return grouper.group(jobs, capacity=None)

    result = benchmark.pedantic(
        group, setup=fresh_grouper, rounds=3, iterations=1
    )
    assert len(result.groups) == 1026


def test_perf_fleet_submit_drain(benchmark):
    """Admit a 400-job, 3-tenant stream into a 4-shard FIFO fleet and
    drain it: the routing, tenancy and merge plumbing, not grouping."""
    tenants = ("alice", "bob", "carol")
    topology = partition_cluster(8, 8, 4)
    specs = [job.spec for job in _uniform_jobs(400, 0)]

    def submit_and_drain():
        frontend = FleetFrontEnd.build(topology, scheduler="fifo")
        for index, spec in enumerate(specs):
            frontend.submit(spec, tenant=tenants[index % len(tenants)])
        return frontend.run_sync()

    result = benchmark.pedantic(submit_and_drain, rounds=3, iterations=1)
    assert len(result.jcts) == 400


def test_perf_blossom_sparse_1024(benchmark):
    """Blossom on a bounded-degree 1,024-node candidate graph.

    The O(V^3) solver is the reason the grouper sparsifies: a dense
    1,024-node instance hands it ~524k edges, the sparse build a few
    thousand, and the matching itself stays fast.
    """
    config = SparsifyConfig(threshold=2, max_degree=8, probe_limit=24)
    signatures = [(i % 4, (i // 4) % 3) for i in range(1024)]
    edges = sparse_candidate_edges(
        signatures, lambda i, j: 1.0 / (1 + abs(i - j)), config
    )
    assert len(edges) <= 1024 * config.max_degree
    pairs = benchmark.pedantic(matching_pairs, args=(edges,), rounds=3, iterations=1)
    assert len(pairs) >= 448  # near-perfect: >= 87% of the 512 possible


def test_perf_grouping_sparse_vs_dense_1024(benchmark, record_text):
    """Acceptance check: sparse vs dense grouping over the same
    1,024-job queue in one run — >= 5x faster, efficiency within 2%."""
    jobs = _random_jobs(1024, seed=0)

    def compare():
        timings = {}
        results = {}
        for label, threshold in (("sparse", 128), ("dense", None)):
            grouper = MultiRoundGrouper(sparsify_threshold=threshold)
            start = time.perf_counter()
            results[label] = grouper.group(jobs, capacity=256)
            timings[label] = time.perf_counter() - start
        return results, timings

    results, timings = benchmark.pedantic(compare, rounds=1, iterations=1)
    speedup = timings["dense"] / timings["sparse"]
    gap = 1.0 - (
        results["sparse"].total_efficiency / results["dense"].total_efficiency
    )
    record_text(
        "perf_grouping_sparse_vs_dense_1024",
        "grouping 1,024 single-GPU jobs, capacity=256\n"
        f"dense : {timings['dense']:8.2f}s  "
        f"efficiency {results['dense'].total_efficiency:.2f}\n"
        f"sparse: {timings['sparse']:8.2f}s  "
        f"efficiency {results['sparse'].total_efficiency:.2f}\n"
        f"speedup {speedup:.1f}x, efficiency gap {gap * 100:.2f}%",
    )
    assert speedup >= 5.0
    assert gap <= 0.02
    assert results["sparse"].total_gpu_demand == 256


def test_perf_muri_decision_256_demand(benchmark):
    """One full Muri scheduling decision: 256 jobs against 64 GPUs."""
    jobs = _random_jobs(256, seed=3)
    scheduler = MuriScheduler()

    def decide():
        # Fresh scheduler state is irrelevant here; the grouper caches
        # by profile multiset, which is the production behaviour.
        return scheduler.decide(0.0, jobs, {}, total_gpus=64)

    plan = benchmark(decide)
    assert sum(group.num_gpus for group in plan) <= 64
