"""Multi-round job grouping (Algorithm 1 of the paper).

Grouping ``n`` jobs into groups of up to ``k`` (the number of resource
types) to maximize total interleaving efficiency is maximum weight
k-uniform hypergraph matching — NP-hard for k > 2.  Muri's heuristic
runs matching in rounds:

1. Build a graph whose nodes are (possibly merged) jobs and whose edge
   weights are the interleaving efficiency of merging the two nodes.
2. Find a maximum weight matching with the blossom algorithm.
3. Merge every matched pair into one node and repeat.

``log2(k)`` rounds double the group size each time (2 rounds for the
paper's four resources: singles -> pairs -> quads).  A
``max_group_size`` of 3 (Fig. 12's sweep) is supported by forbidding
merges that would exceed the cap.

Multi-GPU jobs are bucketed by GPU count before grouping so a job is
never interleaved with different partners on different GPUs, avoiding
the cascading synchronization slowdown of Fig. 7.

Two practical refinements the scheduler relies on:

* **Capacity awareness.**  Algorithm 1 dequeues the first ``n`` jobs
  "so that these jobs can form k-job groups that fully utilize the
  cluster".  Sharing has a cost (contention), so merging continues only
  while the nodes' total GPU demand exceeds the cluster capacity —
  merges are applied best-efficiency-first, and the algorithm stops
  the moment everything fits.  Under light load this degenerates to
  exclusive allocation, exactly as a GPU-only scheduler would behave.
* **Seeded nodes.**  Currently running groups enter the graph as
  pre-merged nodes, so an unchanged workload reproduces the same plan
  and jobs are not pointlessly regrouped (and restarted) every
  scheduling interval.

To keep the decision latency at the paper's "1,000 jobs in a few
seconds" scale, the hot path is layered (see "Decision latency and
scaling" in ``docs/simulation_model.md``):

* **Sparse candidate graphs.**  Buckets at or above
  ``sparsify_threshold`` nodes build a bounded-degree candidate graph
  (:mod:`repro.matching.sparsify`) instead of all O(n^2) edges; below
  the threshold the dense build runs and results are bit-identical to
  the dense algorithm.
* **Cached weight kernels.**  Edge weights score all offset
  assignments from cached per-profile rotations
  (:func:`repro.core.ordering.best_period_for_rows`).
* **Quantized weight cache.**  With ``cache_quantum > 0`` the weight
  cache keys snap durations to a grid, so profiling noise does not
  destroy the hit rate.
* **Incremental decision cache.**  Each bucket's matching is memoized
  against the bucket's node-key sequence; a queue segment unchanged
  since the previous scheduling round skips matching entirely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.efficiency import efficiency_for_period
from repro.core.group import JobGroup
from repro.core.ordering import (
    batched_best_periods,
    best_ordering,
    best_period_for_rows,
    group_iteration_time,
    identity_ordering,
    worst_ordering,
)
from repro.jobs.job import Job
from repro.jobs.resources import NUM_RESOURCES
from repro.jobs.stage import StageProfile
from repro.matching.blossom import matching_pairs
from repro.matching.exact import exact_hypergraph_matching
from repro.matching.greedy import sequential_pair_matching
from repro.matching.sparsify import (
    SparsifyConfig,
    node_signature,
    sparse_candidate_edges,
)
from repro.numeric import ordered_sum
from repro.observe.events import EventCategory
from repro.observe.provenance import CandidateConsidered, GroupDecision
from repro.observe.tracer import Tracer, maybe_span

__all__ = ["MultiRoundGrouper", "GroupingResult"]

_ORDERING_FNS = {
    "best": best_ordering,
    "worst": worst_ordering,
    "identity": identity_ordering,
}

#: A matched pair within one bucket: (weight, left index, right index)
#: with ``left < right`` in the bucket's priority order.
_MatchedPair = Tuple[float, int, int]


@dataclass
class _Node:
    """A (possibly merged) node of the matching graph.

    ``keys`` carries one (possibly quantized) durations key per member
    profile so cache keys never re-derive them from the profiles.
    ``round_formed`` and ``seeded`` are provenance breadcrumbs: the
    matching round whose merge produced this node (0 = never merged)
    and whether it entered the graph pre-merged as a running group.
    """

    jobs: List[Job]
    profiles: List[StageProfile]
    keys: List[Tuple[float, ...]]
    round_formed: int = 0
    seeded: bool = False

    @property
    def size(self) -> int:
        return len(self.jobs)

    @property
    def num_gpus(self) -> int:
        return self.jobs[0].num_gpus

    def merged_with(self, other: "_Node", round_formed: int = 0) -> "_Node":
        return _Node(
            self.jobs + other.jobs,
            self.profiles + other.profiles,
            self.keys + other.keys,
            round_formed=round_formed,
        )


@dataclass(frozen=True)
class GroupingResult:
    """Outcome of one grouping invocation.

    Attributes:
        groups: The chosen interleaving groups.
        total_efficiency: Sum of the believed efficiencies of all
            multi-job groups (the matching objective).
        rounds: Number of matching rounds executed.
        total_gpu_demand: GPUs needed to run every group concurrently.
    """

    groups: Tuple[JobGroup, ...]
    total_efficiency: float
    rounds: int
    total_gpu_demand: int = 0


class MultiRoundGrouper:
    """Muri's Blossom-based multi-round grouping algorithm.

    Args:
        max_group_size: Largest number of jobs per group (the paper
            uses k = number of resource types; Fig. 12 sweeps 2-4).
        num_resources: Number of resource types k.
        matcher: "blossom" (the paper's algorithm), "greedy" (the
            "w/o Blossom" ablation: pack consecutive jobs in priority
            order), or "exact" (exponential hypergraph matching, only
            viable for small inputs).
        ordering: Stage ordering policy used both for edge weights and
            for the final groups: "best", "worst" (Fig. 11 ablation) or
            "identity".
        min_efficiency: Edges below this believed efficiency are not
            added to the graph, leaving poorly matched jobs ungrouped.
        gpu_memory_gb: Optional per-GPU memory capacity.  Merges whose
            interleaved peak memory (section 2.2's model) would exceed
            it are never formed.  Members without a declared footprint
            contribute nothing to the peak (their share is unknown);
            groups where *no* member declares a footprint are exempt.
            Either skip bumps the ``group.memory_check_skipped``
            tracer counter.
        gpu_memory_by_type: Optional ``generation name -> memory_gb``
            per-type capacities.  An affine node (its jobs carry a
            ``gpu_affinity``) is checked against its landing
            generation's capacity instead of the flat
            ``gpu_memory_gb``, so a group that fits an a100 but not a
            k80 forms when it is bound for the a100 pool.  Unaffine
            nodes keep the flat cap.
        sparsify_threshold: Bucket size at which the blossom matcher
            switches from the dense O(n^2) edge build to a
            bounded-degree candidate graph.  ``None`` disables
            sparsification; buckets below the threshold always take
            the dense path, keeping small-queue results bit-identical.
        max_degree: Edges kept per node in the sparse candidate graph.
        probe_limit: Candidate weight evaluations per node in the
            sparse build (defaults to ``3 * max_degree``).
        cache_quantum: Grid (in seconds) the weight/ordering cache keys
            snap durations to.  ``0`` keys on exact durations; a
            positive quantum trades a little decision quality for cache
            hits that survive profiling noise.
        tracer: Optional :class:`~repro.observe.Tracer`.  When enabled,
            the grouper times its matching rounds, counts weight /
            decision cache hits, and publishes per-group
            :class:`~repro.observe.GroupDecision` provenance on
            :attr:`last_decisions` after every :meth:`group` call.
    """

    #: Candidate edges kept per job in provenance records.
    PROVENANCE_CANDIDATE_CAP = 6

    def __init__(
        self,
        max_group_size: int = NUM_RESOURCES,
        num_resources: int = NUM_RESOURCES,
        matcher: str = "blossom",
        ordering: str = "best",
        min_efficiency: float = 0.0,
        gpu_memory_gb: Optional[float] = None,
        gpu_memory_by_type: Optional[Dict[str, float]] = None,
        sparsify_threshold: Optional[int] = 128,
        max_degree: int = 8,
        probe_limit: Optional[int] = None,
        cache_quantum: float = 0.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_group_size < 1:
            raise ValueError("max_group_size must be >= 1")
        if max_group_size > num_resources:
            raise ValueError(
                "groups larger than the number of resource types would "
                "force same-slot resource contention"
            )
        if matcher not in ("blossom", "greedy", "exact"):
            raise ValueError(f"unknown matcher {matcher!r}")
        if ordering not in _ORDERING_FNS:
            raise ValueError(f"unknown ordering policy {ordering!r}")
        if cache_quantum < 0:
            raise ValueError("cache_quantum must be >= 0")
        self.max_group_size = max_group_size
        self.num_resources = num_resources
        self.matcher = matcher
        self.ordering = ordering
        self.min_efficiency = min_efficiency
        self.gpu_memory_gb = gpu_memory_gb
        self.gpu_memory_by_type = (
            dict(gpu_memory_by_type) if gpu_memory_by_type else None
        )
        self.sparsify_threshold = sparsify_threshold
        self.cache_quantum = cache_quantum
        self._sparsify_config: Optional[SparsifyConfig] = None
        if sparsify_threshold is not None:
            self._sparsify_config = SparsifyConfig(
                threshold=sparsify_threshold,
                max_degree=max_degree,
                probe_limit=(
                    3 * max_degree if probe_limit is None else probe_limit
                ),
            )
        # Edge weights depend only on the multiset of member profiles;
        # with a small model zoo the same combinations recur constantly,
        # so memoization collapses the O(n^2) weight computations.
        self._weight_cache: Dict[Tuple, float] = {}
        self._ordering_cache: Dict[Tuple, Tuple] = {}
        # Per-bucket matchings of the previous group() call, keyed by
        # the bucket's node-key sequence: an unchanged queue segment
        # between scheduling intervals skips matching entirely.
        self._decision_cache: Dict[Tuple, List[_MatchedPair]] = {}
        self._decision_cache_prev: Dict[Tuple, List[_MatchedPair]] = {}
        self.tracer = tracer
        #: Whether the in-flight group() call is tracing — hoisted to a
        #: single flag so the weight/ordering inner loops pay zero
        #: tracer overhead when tracing is off.
        self._tracing = False
        #: Provenance of the most recent :meth:`group` call (a tuple of
        #: :class:`~repro.observe.GroupDecision`), or None when the
        #: tracer was absent/disabled for that call.
        self.last_decisions: Optional[Tuple[GroupDecision, ...]] = None
        # Scratch: per-job candidate edges of the in-flight group()
        # call, populated only while tracing.
        self._prov_candidates: Optional[Dict[int, List[CandidateConsidered]]] = None
        self._trace_now = 0.0

    # -- public API -----------------------------------------------------------

    def group(
        self,
        jobs: Sequence[Job],
        believed_profiles: Optional[Sequence[StageProfile]] = None,
        capacity: Optional[int] = None,
        preformed: Optional[Sequence[Sequence[int]]] = None,
        now: float = 0.0,
    ) -> GroupingResult:
        """Group jobs into interleaving groups.

        Jobs are first bucketed by GPU count; grouping happens within a
        bucket only.  The input order is treated as priority order
        (head of the queue first), which the greedy matcher relies on.

        Args:
            jobs: Jobs to group, highest priority first.
            believed_profiles: The profiles to base decisions on, one
                per job.  Defaults to each job's true profile.
            capacity: Cluster GPU capacity.  When given, merging stops
                as soon as the groups' total GPU demand fits — the
                best-efficiency merges are applied first — so jobs are
                not slowed by sharing the cluster does not need.
                None merges as much as possible.
            preformed: Optional seed groups as sequences of job ids
                (typically the currently running groups).  A seed whose
                members are all present enters the graph pre-merged,
                stabilizing plans across scheduling intervals.
            now: Simulation time stamped on trace events (purely
                observational; decisions never depend on it).

        Returns:
            A :class:`GroupingResult` whose groups preserve bucket
            priority order.  With tracing enabled, the matching
            provenance of the call is additionally published on
            :attr:`last_decisions`.
        """
        if believed_profiles is None:
            believed_profiles = [job.profile for job in jobs]
        if len(believed_profiles) != len(jobs):
            raise ValueError("need one believed profile per job")

        tracing = self.tracer is not None and self.tracer.enabled
        self._tracing = tracing
        self.last_decisions = None
        self._prov_candidates = (
            {} if tracing and self.tracer.candidate_provenance else None
        )
        self._trace_now = now

        with maybe_span(
            self.tracer, "grouping.group", now,
            jobs=len(jobs), matcher=self.matcher,
        ):
            result = self._group_inner(
                jobs, believed_profiles, capacity, preformed, tracing
            )
        self._prov_candidates = None
        return result

    def reset_caches(self) -> None:
        """Forget every memoized decision.

        Clears the weight, ordering, and per-bucket decision caches so
        the next :meth:`group` call behaves exactly like a freshly
        constructed grouper.  Differential oracles use this to obtain a
        cold reference solve from a warm instance.
        """
        self._weight_cache.clear()
        self._ordering_cache.clear()
        self._decision_cache = {}
        self._decision_cache_prev = {}

    def invalidate_gpu_buckets(self, gpu_counts) -> int:
        """Drop memoized matchings for the given GPU-count buckets.

        An elastic resize moves a job between GPU-count buckets, so the
        cached per-bucket matchings of both the source and destination
        bucket describe memberships that no longer exist.  The cache
        keys embed each node's duration key and would miss anyway, but
        explicit invalidation keeps correctness independent of key
        granularity (a coarse ``cache_quantum`` must never revive a
        pre-resize matching).  The weight/ordering caches are pure in
        the profile contents and stay.

        Args:
            gpu_counts: Bucket GPU counts to forget (old and new size
                of the resized job, typically).

        Returns:
            Number of cache entries dropped.
        """
        drop = set(gpu_counts)
        dropped = 0
        for cache in (self._decision_cache, self._decision_cache_prev):
            stale = [key for key in cache if key[0] in drop]
            for key in stale:
                del cache[key]
            dropped += len(stale)
        return dropped

    def _group_inner(
        self,
        jobs: Sequence[Job],
        believed_profiles: Sequence[StageProfile],
        capacity: Optional[int],
        preformed: Optional[Sequence[Sequence[int]]],
        tracing: bool,
    ) -> GroupingResult:
        buckets, bucket_order = self._build_nodes(jobs, believed_profiles, preformed)
        self._decision_cache_prev = self._decision_cache
        self._decision_cache = {}

        if self.matcher == "exact":
            groups: List[JobGroup] = []
            for gpus in bucket_order:
                groups.extend(self._group_exact(buckets[gpus]))
            if tracing:
                self.last_decisions = tuple(
                    self._decision_from_group(group) for group in groups
                )
            return self._result(groups, rounds=1)

        demand = sum(
            node.num_gpus for nodes in buckets.values() for node in nodes
        )
        max_rounds = (
            0
            if self.max_group_size == 1
            else max(1, math.ceil(math.log2(self.max_group_size)))
        )
        executed = 0
        for _ in range(max_rounds):
            if capacity is not None and demand <= capacity:
                break
            candidates = self._candidate_merges(buckets, bucket_order)
            if not candidates:
                break
            executed += 1
            demand = self._apply_merges(
                buckets, candidates, demand, capacity, round_number=executed
            )

        if capacity is not None:
            demand = self._split_slack(buckets, bucket_order, demand, capacity)

        final_nodes = [
            node for gpus in bucket_order for node in buckets[gpus]
        ]
        groups = [self._finalize(node) for node in final_nodes]
        if tracing:
            self.last_decisions = tuple(
                self._decision_for(node, group)
                for node, group in zip(final_nodes, groups)
            )
        return self._result(groups, rounds=executed)

    # -- internals ---------------------------------------------------------------

    def _profile_key(self, profile: StageProfile) -> Tuple[float, ...]:
        return profile.durations_key(self.cache_quantum)

    def _build_nodes(
        self,
        jobs: Sequence[Job],
        believed_profiles: Sequence[StageProfile],
        preformed: Optional[Sequence[Sequence[int]]],
    ) -> Tuple[Dict[int, List[_Node]], List[int]]:
        by_id = {
            job.job_id: (job, profile)
            for job, profile in zip(jobs, believed_profiles)
        }
        seed_of: Dict[int, Tuple[int, ...]] = {}
        for seed in preformed or ():
            members = tuple(seed)
            if len(members) < 2 or len(members) > self.max_group_size:
                continue
            if any(job_id not in by_id for job_id in members):
                continue
            gpu_counts = {by_id[job_id][0].num_gpus for job_id in members}
            if len(gpu_counts) != 1:
                continue
            affinities = {
                (by_id[j][0].spec.gpu_affinity, by_id[j][0].spec.affinity_mode)
                for j in members
            }
            if len(affinities) != 1:
                continue
            if any(job_id in seed_of for job_id in members):
                continue
            for job_id in members:
                seed_of[job_id] = members

        buckets: Dict[int, List[_Node]] = {}
        bucket_order: List[int] = []
        emitted = set()
        for job, profile in zip(jobs, believed_profiles):
            if job.job_id in emitted:
                continue
            members = seed_of.get(job.job_id, (job.job_id,))
            node_jobs = [by_id[job_id][0] for job_id in members]
            node_profiles = [by_id[job_id][1] for job_id in members]
            emitted.update(members)
            gpus = node_jobs[0].num_gpus
            if gpus not in buckets:
                buckets[gpus] = []
                bucket_order.append(gpus)
            buckets[gpus].append(
                _Node(
                    node_jobs,
                    node_profiles,
                    [self._profile_key(p) for p in node_profiles],
                    seeded=len(members) > 1,
                )
            )
        return buckets, bucket_order

    def _node_cache_key(self, node: _Node) -> Tuple:
        """Everything that determines a node's edges in the matching.

        Durations keys fix every weight and size constraint; the memory
        footprints only matter when the feasibility check is active.
        """
        if self._memory_cap(node) is None:
            key: Tuple = tuple(node.keys)
        else:
            key = (
                tuple(node.keys),
                tuple(job.spec.memory for job in node.jobs),
            )
        # Affinity only joins the key when present, so every pre-hetero
        # cache key (and therefore warm-plan hit pattern) is unchanged.
        # The per-type memory cap is a function of the affinity, so the
        # suffix also disambiguates cached decisions across caps.
        spec = node.jobs[0].spec
        if spec.gpu_affinity is not None:
            key = (key, ("affinity", spec.gpu_affinity, spec.affinity_mode))
        return key

    def _candidate_merges(
        self,
        buckets: Dict[int, List[_Node]],
        bucket_order: List[int],
    ) -> List[Tuple[float, int, int, int]]:
        """Matched node pairs across all buckets, one matching each.

        Returns tuples ``(weight, priority_index, gpus, partner_index)``
        where ``priority_index < partner_index`` are positions in
        ``buckets[gpus]`` at call time.  Matchings are memoized per
        bucket against the node-key sequence, so a bucket unchanged
        since the previous ``group()`` call reuses its pairs without
        rebuilding edges or rerunning the matcher.
        """
        candidates: List[Tuple[float, int, int, int]] = []
        for gpus in bucket_order:
            nodes = buckets[gpus]
            if len(nodes) < 2:
                continue
            bucket_key = (
                gpus,
                tuple(self._node_cache_key(node) for node in nodes),
            )
            matched = self._decision_cache_prev.get(bucket_key)
            cache_hit = matched is not None
            if not cache_hit:
                with maybe_span(
                    self.tracer, "grouping.match", self._trace_now,
                    bucket_gpus=gpus, nodes=len(nodes),
                ):
                    matched = self._match_bucket(nodes)
            self._decision_cache[bucket_key] = matched
            if self._tracing:
                tracer = self.tracer
                kind = "hit" if cache_hit else "miss"
                tracer.count(f"grouping.decision_cache.{kind}")
                tracer.emit(
                    EventCategory.CACHE,
                    f"grouping.decision_cache.{kind}",
                    self._trace_now,
                    bucket_gpus=gpus,
                    nodes=len(nodes),
                    pairs=len(matched),
                )
                if cache_hit:
                    self._note_cached_candidates(nodes, matched)
            for weight, left, right in matched:
                candidates.append((weight, left, gpus, right))
        if self.matcher == "blossom":
            # Best interleaving first; ties broken by priority index.
            candidates.sort(key=lambda c: (-c[0], c[1]))
        else:
            # "w/o Blossom": strict priority order, as the paper's
            # ablation packs jobs in descending priority.
            candidates.sort(key=lambda c: c[1])
        return candidates

    def _match_bucket(self, nodes: List[_Node]) -> List[_MatchedPair]:
        """One matching over a bucket; pairs as (weight, i, j), i < j.

        Large buckets match on a bounded-degree candidate graph; nodes
        the sparse matching strands (all their candidates taken) are
        rematched among themselves until no pair forms, so the final
        cardinality tracks the dense algorithm's.  A bucket below the
        sparsify threshold takes exactly one dense pass, whose maximum
        weight matching leaves no feasible pair behind by construction.
        """
        if self.matcher == "greedy":
            # Only consecutive priority pairs can ever match, so only
            # their edges are evaluated — same result as filtering the
            # dense edge set, built in O(n) weight evaluations.
            matched = []
            for i, j in sequential_pair_matching(range(len(nodes))):
                weight = self._pair_weight(nodes[i], nodes[j])
                if weight is not None:
                    matched.append((weight, i, j))
            return matched

        matched = []
        remaining = list(range(len(nodes)))
        while len(remaining) >= 2:
            sparse = (
                self._sparsify_config is not None
                and len(remaining) >= self._sparsify_config.threshold
            )
            new_pairs = self._match_subset(nodes, remaining, sparse)
            matched.extend(new_pairs)
            if not sparse or not new_pairs:
                break
            taken = set()
            for _weight, left, right in new_pairs:
                taken.add(left)
                taken.add(right)
            remaining = [index for index in remaining if index not in taken]
        return matched

    def _match_subset(
        self,
        nodes: List[_Node],
        indices: List[int],
        sparse: bool,
    ) -> List[_MatchedPair]:
        """Match the sub-bucket ``indices``; pairs in global indices."""
        subset = [nodes[index] for index in indices]
        if sparse:
            config = self._sparsify_config
            signatures = [
                node_signature(
                    self._aggregate_durations(node),
                    config.duration_bin_base,
                )
                for node in subset
            ]
            edges = sparse_candidate_edges(
                signatures,
                lambda a, b: self._pair_weight(subset[a], subset[b]),
                config,
                tracer=self.tracer,
                sim_time=self._trace_now,
                batch_weight_fn=lambda pairs: self._pair_weights_batch(
                    subset, pairs
                ),
            )
        else:
            all_pairs = [
                (a, b)
                for a in range(len(subset))
                for b in range(a + 1, len(subset))
            ]
            weights = self._pair_weights_batch(subset, all_pairs)
            edges = [
                (a, b, weight)
                for (a, b), weight in zip(all_pairs, weights)
                if weight is not None
            ]
        if not edges:
            return []
        weight_of = {(u, v): w for u, v, w in edges}
        pairs = list(matching_pairs(edges))
        if self._prov_candidates is not None:
            matched_local = {(min(u, v), max(u, v)) for u, v in pairs}
            self._note_candidates(subset, edges, matched_local)
        return [
            (
                weight_of[(min(u, v), max(u, v))],
                indices[min(u, v)],
                indices[max(u, v)],
            )
            for u, v in pairs
        ]

    def _pair_weight(self, u: _Node, v: _Node) -> Optional[float]:
        """Edge weight of merging two nodes, or None if infeasible."""
        if u.size + v.size > self.max_group_size:
            return None
        if not self._affinity_compatible(u, v):
            return None
        if not self._memory_feasible(u, v):
            return None
        weight = self._merge_weight(u, v)
        if weight < self.min_efficiency:
            return None
        return weight

    def _pair_weights_batch(
        self,
        subset: List[_Node],
        pairs: Sequence[Tuple[int, int]],
    ) -> List[Optional[float]]:
        """Batched :meth:`_pair_weight` over many candidate pairs.

        Feasibility checks and the weight cache are walked pair-by-pair
        in order (so cache hit/miss counters and cache contents match
        the scalar path exactly); the uncached weights are then
        evaluated in one :func:`batched_best_periods` call per
        merged-group size.  Results are bit-identical to calling
        ``_pair_weight`` per pair: the batched kernel reproduces the
        scalar slot-max/period arithmetic exactly.
        """
        results: List[Optional[float]] = [None] * len(pairs)
        min_efficiency = self.min_efficiency
        tracing = self._tracing
        tracer = self.tracer
        cache = self._weight_cache
        # pending: cache key -> [slots, profiles] for uncached weights.
        pending: Dict[Tuple, list] = {}
        for slot, (a, b) in enumerate(pairs):
            u = subset[a]
            v = subset[b]
            if u.size + v.size > self.max_group_size:
                continue
            if not self._affinity_compatible(u, v):
                continue
            if not self._memory_feasible(u, v):
                continue
            key = tuple(sorted(u.keys + v.keys))
            cached = cache.get(key)
            if cached is not None:
                if tracing:
                    tracer.count("grouping.weight_cache.hit")
                if cached >= min_efficiency:
                    results[slot] = cached
                continue
            entry = pending.get(key)
            if entry is None:
                if tracing:
                    tracer.count("grouping.weight_cache.miss")
                pending[key] = [[slot], u.profiles + v.profiles]
            else:
                # Another pair with the same quantized key: the scalar
                # path would have found it in the cache by now.
                if tracing:
                    tracer.count("grouping.weight_cache.hit")
                entry[0].append(slot)
        if not pending:
            return results
        by_size: Dict[int, List[Tuple]] = {}
        for key, (_slots, profiles) in pending.items():
            by_size.setdefault(len(profiles), []).append(key)
        for _size, keys in by_size.items():
            groups = [
                tuple(p.durations for p in pending[key][1]) for key in keys
            ]
            periods = batched_best_periods(groups, self.num_resources)
            for key, period in zip(keys, periods):
                slots, profiles = pending[key]
                weight = efficiency_for_period(
                    profiles, period, self.num_resources
                )
                cache[key] = weight
                if weight >= min_efficiency:
                    for slot in slots:
                        results[slot] = weight
        return results

    def _aggregate_durations(self, node: _Node) -> List[float]:
        k = self.num_resources
        totals = [0.0] * k
        for profile in node.profiles:
            durations = profile.durations
            for r in range(k):
                totals[r] += durations[r]
        return totals

    def _apply_merges(
        self,
        buckets: Dict[int, List[_Node]],
        candidates: List[Tuple[float, int, int, int]],
        demand: int,
        capacity: Optional[int],
        round_number: int = 0,
    ) -> int:
        """Merge candidate pairs until the demand fits the capacity.

        Pairs are disjoint (they come from one matching per bucket), so
        merges are recorded against original indices — merged node at
        the left position, tombstone at the right — and each bucket
        list is rebuilt once, instead of O(n) list surgery per merge.
        """
        pending: Dict[int, Dict[int, Optional[_Node]]] = {}
        for _weight, left, gpus, right in candidates:
            if capacity is not None and demand <= capacity:
                break
            nodes = buckets[gpus]
            per_bucket = pending.setdefault(gpus, {})
            per_bucket[left] = nodes[left].merged_with(
                nodes[right], round_formed=round_number
            )
            per_bucket[right] = None
            demand -= gpus
        for gpus, per_bucket in pending.items():
            rebuilt = []
            for index, node in enumerate(buckets[gpus]):
                replacement = per_bucket.get(index, node)
                if replacement is not None:
                    rebuilt.append(replacement)
            buckets[gpus] = rebuilt
        return demand

    def _split_slack(
        self,
        buckets: Dict[int, List[_Node]],
        bucket_order: List[int],
        demand: int,
        capacity: int,
    ) -> int:
        """Dissolve sharing the cluster no longer needs (drain phase).

        Sharing always slows the members, so whenever spare GPUs exist
        the worst-efficiency group sheds its last member into its own
        allocation.  This keeps Muri work-conserving: with a short
        queue it degenerates to exclusive allocation, and a group never
        outlives the congestion that justified it.
        """
        while demand < capacity:
            worst: Optional[Tuple[float, int, _Node]] = None
            for gpus in bucket_order:
                if demand + gpus > capacity:
                    continue
                for node in buckets[gpus]:
                    if node.size < 2:
                        continue
                    gamma = self._node_efficiency(node)
                    if worst is None or gamma < worst[0]:
                        worst = (gamma, gpus, node)
            if worst is None:
                break
            _gamma, gpus, node = worst
            split_job = node.jobs.pop()
            split_profile = node.profiles.pop()
            split_key = node.keys.pop()
            buckets[gpus].append(
                _Node([split_job], [split_profile], [split_key])
            )
            demand += gpus
        return demand

    def _affinity_compatible(self, a: _Node, b: _Node) -> bool:
        """May two nodes share GPUs on a heterogeneous cluster?

        Nodes are affinity-homogeneous by construction (singletons
        trivially, merges inductively), so the first job speaks for
        each node.  Unaffine nodes always combine — the homogeneous
        fast path — while affine nodes only combine with identical
        ``(gpu_affinity, affinity_mode)``: a group must be placeable
        on a single generation pool.
        """
        sa = a.jobs[0].spec
        sb = b.jobs[0].spec
        if sa.gpu_affinity is None and sb.gpu_affinity is None:
            return True
        return (
            sa.gpu_affinity == sb.gpu_affinity
            and sa.affinity_mode == sb.affinity_mode
        )

    def _memory_cap(self, node: _Node) -> Optional[float]:
        """Effective per-GPU memory capacity for one node.

        An affine node is bound for its generation's pool, so its cap
        is that generation's capacity when a per-type table is set;
        unaffine nodes (and generations missing from the table) fall
        back to the flat ``gpu_memory_gb``.
        """
        by_type = self.gpu_memory_by_type
        if by_type:
            affinity = node.jobs[0].spec.gpu_affinity
            if affinity is not None:
                cap = by_type.get(affinity)
                if cap is not None:
                    return cap
        return self.gpu_memory_gb

    def _memory_feasible(self, a: _Node, b: _Node) -> bool:
        """Would the merged group fit in GPU memory (section 2.2)?

        Affinity compatibility is checked before memory, so ``a``
        speaks for the merged group's landing cap.  Members without a
        declared footprint are excluded from the peak — their share is
        unknown, and rejecting the merge outright would forbid every
        grouping in partially profiled workloads — but the check still
        binds over the *known* footprints instead of being skipped
        wholesale; both the partial and the wholly-unknown skip bump
        the ``group.memory_check_skipped`` counter.
        """
        cap = self._memory_cap(a)
        if cap is None:
            return True
        from repro.jobs.memory import group_peak_memory

        footprints = [
            job.spec.memory for job in a.jobs + b.jobs
        ]
        known = [f for f in footprints if f is not None]
        if len(known) < len(footprints):
            if self._tracing:
                self.tracer.count("group.memory_check_skipped")
            if not known:
                return True
        return group_peak_memory(known) <= cap

    def _node_efficiency(self, node: _Node) -> float:
        return self._weight_for(node.keys, node.profiles)

    # -- provenance (tracing only) ---------------------------------------------

    #: Per-job scratch-list cap while collecting candidate edges; the
    #: final records keep only PROVENANCE_CANDIDATE_CAP of these.
    _CANDIDATE_SCRATCH_CAP = 64

    def _note_candidates(
        self,
        subset: List[_Node],
        edges: List[Tuple[int, int, float]],
        matched_local: set,
    ) -> None:
        """File every evaluated edge as a candidate for both endpoints."""
        buffer = self._prov_candidates
        for a, b, weight in edges:
            matched = (min(a, b), max(a, b)) in matched_local
            left, right = subset[a], subset[b]
            left_ids = tuple(job.job_id for job in left.jobs)
            right_ids = tuple(job.job_id for job in right.jobs)
            forward = CandidateConsidered(right_ids, weight, matched)
            backward = CandidateConsidered(left_ids, weight, matched)
            for job_id in left_ids:
                per_job = buffer.setdefault(job_id, [])
                if matched or len(per_job) < self._CANDIDATE_SCRATCH_CAP:
                    per_job.append(forward)
            for job_id in right_ids:
                per_job = buffer.setdefault(job_id, [])
                if matched or len(per_job) < self._CANDIDATE_SCRATCH_CAP:
                    per_job.append(backward)

    def _note_cached_candidates(
        self,
        nodes: List[_Node],
        matched: List[_MatchedPair],
    ) -> None:
        """On a decision-cache hit only the chosen pairs are known —
        record those so provenance still shows who matched whom."""
        buffer = self._prov_candidates
        if buffer is None:
            return
        for weight, left, right in matched:
            left_ids = tuple(job.job_id for job in nodes[left].jobs)
            right_ids = tuple(job.job_id for job in nodes[right].jobs)
            for job_id in left_ids:
                buffer.setdefault(job_id, []).append(
                    CandidateConsidered(right_ids, weight, True)
                )
            for job_id in right_ids:
                buffer.setdefault(job_id, []).append(
                    CandidateConsidered(left_ids, weight, True)
                )

    def _job_candidates(self, job_id: int) -> Tuple[CandidateConsidered, ...]:
        """The best candidates recorded for one job, matched ones first."""
        buffer = self._prov_candidates
        if not buffer or job_id not in buffer:
            return ()
        ranked = sorted(
            buffer[job_id],
            key=lambda c: (not c.matched, -c.efficiency),
        )
        return tuple(ranked[: self.PROVENANCE_CANDIDATE_CAP])

    def _decision_for(self, node: _Node, group: JobGroup) -> GroupDecision:
        """The provenance record of one final node/group pair."""
        members = tuple(job.job_id for job in node.jobs)
        return GroupDecision(
            members=members,
            efficiency=group.believed_efficiency if node.size > 1 else 1.0,
            round_formed=node.round_formed,
            seeded=node.seeded,
            candidates={
                job_id: self._job_candidates(job_id) for job_id in members
            },
        )

    def _decision_from_group(self, group: JobGroup) -> GroupDecision:
        """Provenance for the exact matcher, which keeps no node state."""
        members = tuple(job.job_id for job in group.jobs)
        return GroupDecision(
            members=members,
            efficiency=group.believed_efficiency if group.size > 1 else 1.0,
            round_formed=1 if group.size > 1 else 0,
            seeded=False,
        )

    def _result(self, groups: List[JobGroup], rounds: int) -> GroupingResult:
        total_eff = ordered_sum(
            g.believed_efficiency for g in groups if g.size > 1
        )
        demand = sum(g.num_gpus for g in groups)
        return GroupingResult(tuple(groups), total_eff, rounds, demand)

    def _merge_weight(self, a: _Node, b: _Node) -> float:
        # Edge weights always measure the *achievable* efficiency, so
        # the matching is computed with the best ordering; the policy
        # knob only affects the ordering executed (Fig. 11's variant
        # "Muri-L w/ worst ordering" still groups like Muri-L).
        return self._weight_for(a.keys + b.keys, a.profiles + b.profiles)

    def _weight_for(
        self,
        keys: Sequence[Tuple[float, ...]],
        profiles: Sequence[StageProfile],
    ) -> float:
        key = tuple(sorted(keys))
        cached = self._weight_cache.get(key)
        tracing = self._tracing
        if cached is not None:
            if tracing:
                self.tracer.count("grouping.weight_cache.hit")
            return cached
        if tracing:
            self.tracer.count("grouping.weight_cache.miss")
        rows = tuple(profile.durations for profile in profiles)
        _offsets, period = best_period_for_rows(rows, self.num_resources)
        weight = efficiency_for_period(profiles, period, self.num_resources)
        self._weight_cache[key] = weight
        return weight

    def _finalize(self, node: _Node) -> JobGroup:
        profiles = tuple(node.profiles)
        key = tuple(node.keys)
        offsets = self._ordering_cache.get(key)
        if offsets is None:
            if self._tracing:
                self.tracer.count("grouping.ordering_cache.miss")
            ordering_fn = _ORDERING_FNS[self.ordering]
            with maybe_span(
                self.tracer, "grouping.ordering", self._trace_now,
                members=len(profiles),
            ):
                offsets, _period = ordering_fn(profiles, self.num_resources)
            self._ordering_cache[key] = offsets
        elif self._tracing:
            self.tracer.count("grouping.ordering_cache.hit")
        return JobGroup(
            jobs=tuple(node.jobs),
            believed_profiles=profiles,
            offsets=offsets,
            num_resources=self.num_resources,
        )

    def _group_exact(self, nodes: List[_Node]) -> List[JobGroup]:
        """Exact hypergraph matching over singleton nodes (small n)."""
        if len(nodes) > 12:
            raise ValueError(
                "exact matching is exponential; refusing more than 12 jobs"
            )

        def weight(group_indices: Tuple[int, ...]) -> float:
            profiles = tuple(
                profile
                for idx in group_indices
                for profile in nodes[idx].profiles
            )
            if len(profiles) > self.max_group_size:
                return 0.0
            if any(
                not self._affinity_compatible(nodes[group_indices[0]], nodes[idx])
                for idx in group_indices[1:]
            ):
                return 0.0
            _offsets, period = best_ordering(profiles, self.num_resources)
            gamma = efficiency_for_period(profiles, period, self.num_resources)
            return gamma if gamma >= self.min_efficiency else 0.0

        chosen, _total = exact_hypergraph_matching(
            len(nodes), min(self.max_group_size, len(nodes)), weight
        )
        grouped = set()
        result: List[JobGroup] = []
        for group_indices in chosen:
            merged = _Node([], [], [])
            for idx in group_indices:
                merged.jobs.extend(nodes[idx].jobs)
                merged.profiles.extend(nodes[idx].profiles)
                merged.keys.extend(nodes[idx].keys)
                grouped.add(idx)
            result.append(self._finalize(merged))
        for idx, node in enumerate(nodes):
            if idx not in grouped:
                result.append(self._finalize(node))
        return result
