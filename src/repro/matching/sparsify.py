"""Bounded-degree candidate graphs for large matching instances.

Muri's grouping stage turns a job queue into a maximum weight matching
problem.  Building every pairwise edge is O(n^2) weight evaluations and
hands the O(V^3) blossom solver a dense graph — fine for a few hundred
nodes, hopeless for the paper's 1,000-job queues.  Almost all of that
work is wasted: the matching only ever uses edges between jobs whose
resource bottlenecks complement each other, and a handful of good
partners per job is enough to recover the dense optimum to within a
couple of percent (the same candidate-space pruning that makes periodic
re-optimization viable in Pollux-style schedulers).

This module prunes the edge set before any weight is computed:

1. Every node gets a cheap *signature*: its dominant (bottleneck)
   resource plus a coarse log-scale bin of its total duration.
2. Nodes are bucketed by signature.  For each node, partner buckets
   are visited complementary-bottleneck-first, nearest duration bin
   first — the pairs interleaving actually rewards.
3. At most ``probe_limit`` candidate weights are evaluated per node and
   only the ``max_degree`` heaviest surviving edges per node are kept
   (the union of per-node top lists, as in a k-NN graph).

The result is an edge list of size O(n * max_degree) built with
O(n * probe_limit) weight evaluations, fully deterministic in the input
order.  Callers are expected to fall back to the dense build below a
size threshold where exactness matters more than speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.numeric import ordered_sum
from repro.observe.events import EventCategory
from repro.observe.tracer import Tracer

__all__ = [
    "SparsifyConfig",
    "node_signature",
    "sparse_candidate_edges",
]

#: ``weight_fn(i, j)`` returns the edge weight for nodes ``i < j``, or
#: ``None`` when the pair is infeasible (size cap, memory, threshold).
WeightFn = Callable[[int, int], Optional[float]]

#: Vectorized oracle: one optional weight per ``(i, j)`` pair, in order.
BatchWeightFn = Callable[
    [Sequence[Tuple[int, int]]], Sequence[Optional[float]]
]

Signature = Tuple[int, int]


@dataclass(frozen=True)
class SparsifyConfig:
    """Knobs for the sparse candidate graph.

    Attributes:
        threshold: Bucket size at which sparsification kicks in; below
            it callers should build the dense graph, which keeps
            small-queue results bit-identical.
        max_degree: Edges kept per node (the heaviest ones survive).
        probe_limit: Candidate weight evaluations per node; bounds the
            total work at ``O(n * probe_limit)``.  Must be at least
            ``max_degree``.
        duration_bin_base: Log base of the coarse duration binning used
            in signatures; larger bases mean coarser bins.
    """

    threshold: int = 128
    max_degree: int = 8
    probe_limit: int = 24
    duration_bin_base: float = 2.0

    def __post_init__(self) -> None:
        if self.threshold < 2:
            raise ValueError("threshold must be >= 2")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if self.probe_limit < self.max_degree:
            raise ValueError("probe_limit must be >= max_degree")
        if self.duration_bin_base <= 1.0:
            raise ValueError("duration_bin_base must be > 1")


def node_signature(
    durations: Sequence[float],
    duration_bin_base: float = 2.0,
) -> Signature:
    """Quantized bottleneck signature of one node.

    Returns ``(bottleneck_index, duration_bin)`` where the bin is the
    floor of the log of the total duration.  Nodes with the same
    signature are near-interchangeable as matching partners, which is
    what lets the candidate search treat buckets as units.
    """
    bottleneck = max(range(len(durations)), key=lambda i: durations[i])
    total = ordered_sum(durations)
    if total <= 0:
        return bottleneck, 0
    return bottleneck, int(math.floor(math.log(total, duration_bin_base)))


def _bucket_preference(
    own: Signature, other: Signature
) -> Tuple[int, int, int]:
    """Sort key: complementary bottlenecks first, then nearby durations."""
    same_bottleneck = 1 if other[0] == own[0] else 0
    return (same_bottleneck, abs(other[1] - own[1]), other[0])


def _probe_plan(
    signatures: Sequence[Signature],
    config: SparsifyConfig,
) -> Tuple[List[List[Tuple[int, int]]], List[Tuple[int, int]], int, int]:
    """Plan every probe without evaluating a single weight.

    The probe sequence depends only on the signatures — never on the
    weights — so it can be laid out up front and the weights evaluated
    afterwards, one by one or in a single vectorized batch.

    Returns ``(per_node, unique_pairs, total_probes, memo_hits)``:
    the ordered probe list of each node, the distinct pairs in
    first-discovery order (the exact order the interleaved evaluation
    used to call the weight oracle in), and the probe/memo counters
    the tracer reports.
    """
    n = len(signatures)
    total_probes = 0
    memo_hits = 0
    buckets: Dict[Signature, List[int]] = {}
    rank: List[int] = [0] * n
    for index, signature in enumerate(signatures):
        members = buckets.setdefault(signature, [])
        rank[index] = len(members)
        members.append(index)

    bucket_keys = sorted(buckets)
    # Partner buckets per signature, best-complementing first.
    bucket_preference: Dict[Signature, List[List[int]]] = {
        signature: [
            buckets[key]
            for key in sorted(
                bucket_keys, key=lambda k: _bucket_preference(signature, k)
            )
        ]
        for signature in bucket_keys
    }

    seen: Dict[Tuple[int, int], None] = {}
    unique_pairs: List[Tuple[int, int]] = []
    per_node: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        probes = 0
        partners = bucket_preference[signatures[i]]
        # Two anti-starvation measures.  Probes are *interleaved* over
        # partner buckets (depth-by-depth, best bucket first) so one
        # oversubscribed bucket cannot eat the whole budget and leave a
        # node without alternatives.  Within each bucket the walk is
        # *rotated* by this node's rank in its own bucket, so peers
        # probe different partners instead of funnelling onto the same
        # few candidates — both would otherwise starve the matching.
        depth = 0
        while probes < config.probe_limit:
            advanced = False
            for members in partners:
                if probes >= config.probe_limit:
                    break
                size = len(members)
                if depth >= size:
                    continue
                j = members[(rank[i] + depth) % size]
                if j == i:
                    continue
                advanced = True
                pair = (i, j) if i < j else (j, i)
                probes += 1
                total_probes += 1
                if pair in seen:
                    # The mirrored probe from the other endpoint: the
                    # evaluation is memoized, feasibility included.
                    memo_hits += 1
                else:
                    seen[pair] = None
                    unique_pairs.append(pair)
                per_node[i].append(pair)
            if not advanced and depth >= max(len(m) for m in partners):
                break
            depth += 1
    return per_node, unique_pairs, total_probes, memo_hits


def sparse_candidate_edges(
    signatures: Sequence[Signature],
    weight_fn: Optional[WeightFn],
    config: SparsifyConfig = SparsifyConfig(),
    tracer: Optional[Tracer] = None,
    sim_time: float = 0.0,
    batch_weight_fn: Optional[BatchWeightFn] = None,
) -> List[Tuple[int, int, float]]:
    """Build a bounded-degree edge list over ``len(signatures)`` nodes.

    Args:
        signatures: One :func:`node_signature` per node, in node order.
        weight_fn: Edge weight oracle; ``None`` marks an infeasible
            pair.  Called at most ``probe_limit`` times per node, with
            ``i < j``.  May be None when ``batch_weight_fn`` is given.
        config: Degree / probe bounds.
        tracer: Optional :class:`~repro.observe.Tracer`; when enabled,
            probe/memo-hit counters are bumped and one ``CACHE``
            summary event describes the build.
        sim_time: Simulation time stamped on that summary event.
        batch_weight_fn: Optional vectorized oracle taking the distinct
            pairs in first-discovery order and returning one optional
            weight per pair.  When given it replaces ``weight_fn``;
            results must match what per-pair evaluation would produce
            (the grouper's batched kernel is bit-identical by
            construction).

    Returns:
        Edges ``(i, j, weight)`` with ``i < j``, each in the top
        ``max_degree`` of at least one endpoint, sorted by node index.
    """
    n = len(signatures)
    tracing = tracer is not None and tracer.enabled
    per_node, unique_pairs, total_probes, memo_hits = _probe_plan(
        signatures, config
    )

    # Evaluate distinct pairs in first-discovery order — exactly the
    # order the interleaved probe loop would have called the oracle in,
    # so stateful weight functions (caches) see an identical sequence.
    if batch_weight_fn is not None:
        evaluated = batch_weight_fn(unique_pairs)
        if len(evaluated) != len(unique_pairs):
            raise ValueError("batch_weight_fn must return one weight per pair")
    else:
        if weight_fn is None:
            raise ValueError("need weight_fn or batch_weight_fn")
        evaluated = [weight_fn(*pair) for pair in unique_pairs]
    neg_inf = float("-inf")
    weights: Dict[Tuple[int, int], float] = {
        pair: (neg_inf if weight is None else weight)
        for pair, weight in zip(unique_pairs, evaluated)
    }

    top: List[List[Tuple[float, int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        entries = top[i]
        for pair in per_node[i]:
            weight = weights[pair]
            if weight == neg_inf:
                continue
            entries.append((weight, pair[0], pair[1]))
        # Deterministic top-m: heaviest first.  Ties keep discovery
        # order (stable sort), which the rotation already spreads over
        # each bucket — tie-breaking on node index instead would point
        # every node's kept edges at the same low-indexed partners.
        entries.sort(key=lambda e: -e[0])
        del entries[config.max_degree :]

    kept = {
        (u, v) for per_node_top in top for (_w, u, v) in per_node_top
    }
    if tracing:
        tracer.count("sparsify.probes", total_probes)
        tracer.count("sparsify.memo_hits", memo_hits)
        tracer.emit(
            EventCategory.CACHE,
            "sparsify.build",
            sim_time,
            nodes=n,
            probes=total_probes,
            memo_hits=memo_hits,
            edges_kept=len(kept),
        )
    return [(u, v, weights[(u, v)]) for (u, v) in sorted(kept)]
