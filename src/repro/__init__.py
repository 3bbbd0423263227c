"""repro: a reproduction of Muri — multi-resource interleaving for deep
learning training (SIGCOMM 2022).

The package provides:

* ``repro.core`` — interleaving efficiency (Eq. 1-4), stage-ordering
  search, the Blossom-based multi-round grouping algorithm, and the
  Muri-S / Muri-L schedulers;
* ``repro.matching`` — a from-scratch blossom maximum-weight-matching
  implementation plus greedy and exact oracles;
* ``repro.jobs`` / ``repro.models`` — the job, stage, and resource
  model and the paper's eight-model zoo;
* ``repro.schedulers`` — FIFO, SJF, SRTF, SRSF, Tiresias, Themis and
  AntMan baselines;
* ``repro.cluster`` / ``repro.sim`` — the GPU-cluster substrate and a
  discrete-event simulator with interleaving-aware executor semantics;
* ``repro.trace`` / ``repro.profiler`` — Philly-like synthetic traces
  and the dry-run resource profiler with the Fig. 14 noise model;
* ``repro.analysis`` — experiment runners and report formatting shared
  by the examples and the benchmark harness;
* ``repro.observe`` — structured tracing and decision provenance: a
  zero-overhead-when-disabled :class:`Tracer` threaded through the
  simulator/scheduler stack, Chrome-trace/JSONL exporters, and the
  per-job grouping provenance behind ``repro explain``
  (see ``docs/observability.md``);
* ``repro.sweep`` — parallel, resumable experiment sweeps: declarative
  run cells with stable hash-derived ids, a process-pool
  :class:`SweepRunner` with per-run timeouts and bounded retries, a
  JSONL :class:`ResultStore` for resume, and deterministic ``k/n``
  sharding (see ``docs/experiments.md``);
* ``repro.verify`` — the paper's model as executable checks: a runtime
  :class:`InvariantChecker` that attaches through the ordinary
  ``tracer=`` parameter, naive-reference and exact-matcher differential
  oracles, and the seeded ``repro fuzz`` harness whose failures shrink
  into replayable JSON repro files (see ``docs/verification.md``);
* ``repro.service`` — the online scheduling daemon: submission over a
  Unix socket speaking a versioned typed protocol, admission control,
  and a typed :class:`ServiceClient` (see ``docs/service.md``);
* ``repro.fleet`` — the multi-tenant sharded fleet: virtual-cluster
  partitioning, per-tenant quotas and fair-share credits, one
  scheduler shard per VC behind a deterministic routing front-end
  (see ``docs/fleet.md``);
* ``repro.elastic`` — the goodput-adaptive elastic arm: per-job
  :class:`ScalabilityProfile` speedup curves, a marginal-goodput
  water-filling :class:`GoodputAllocator`, and
  :class:`ElasticMuriScheduler`, which renegotiates GPU counts each
  interval before Algorithm-1 grouping and degenerates bit-identically
  to Muri on all-rigid workloads (see ``docs/elastic.md``);
* ``repro.hetero`` — GPU generations: a typed cluster substrate
  (:class:`GpuType` machine labels), per-model per-generation speed
  scaling, and type-pinned workload builders, with a homogeneous
  differential oracle proving single-type configs are bit-identical
  to the untyped path (see ``docs/heterogeneous.md``);
* ``repro.replay`` — the batch event-driven trace-replay harness for
  production-scale (100k+-job) traces, fed by the Philly CSV
  ingestion adapter in ``repro.trace.philly_csv``
  (see ``docs/replay.md``).

Quickstart::

    from repro import MuriScheduler, ClusterSimulator, generate_trace, build_jobs

    trace = generate_trace("1", num_jobs=200)
    jobs = build_jobs(trace)
    result = ClusterSimulator(MuriScheduler(policy="srsf")).run(jobs, trace.name)
    print(result.avg_jct, result.makespan)
"""

import importlib

#: Every public name, by the subpackage that defines it.  Names are
#: imported on first access (PEP 562), so ``import repro`` loads no
#: subpackage and a run loads only the layers it uses.
_EXPORTS = {
    "repro.cluster": ("Cluster", "GpuType", "Machine"),
    "repro.core": (
        "JobGroup", "MultiRoundGrouper", "MuriScheduler", "best_ordering",
        "group_speedup", "interleaving_efficiency", "pair_efficiency",
        "worst_ordering",
    ),
    "repro.elastic": (
        "ElasticMuriScheduler", "GoodputAllocator", "attach_scalability",
    ),
    "repro.jobs": (
        "Job", "JobSpec", "JobStatus", "Resource", "ScalabilityProfile",
        "Stage", "StageProfile",
    ),
    "repro.matching": ("matching_pairs", "max_weight_matching"),
    "repro.models": ("MODEL_ZOO", "ModelProfile", "get_model", "list_models"),
    "repro.observe": (
        "EventCategory", "ProvenanceStore", "TraceEvent", "Tracer",
        "format_explain", "trace_summary", "write_chrome_trace",
        "write_jsonl",
    ),
    "repro.profiler": ("ResourceProfiler", "UniformNoise"),
    "repro.schedulers": (
        "Scheduler", "available_schedulers", "make_scheduler",
        "register_scheduler",
    ),
    "repro.sim": (
        "ClusterSimulator", "ContentionModel", "Decision", "DecisionLog",
        "FaultInjector", "SimulationResult",
    ),
    "repro.fleet": (
        "FleetFrontEnd", "FleetTopology", "TenantQuota", "VirtualCluster",
        "partition_cluster",
    ),
    "repro.service": (
        "PROTOCOL_VERSION", "SchedulerService", "ServiceClient",
        "SubmitRejected",
    ),
    "repro.hetero": (
        "DEFAULT_TYPE_SCALING", "TypeScaling", "build_hetero_jobs",
        "make_hetero_cluster", "pin_jobs",
    ),
    "repro.replay": ("ReplayStats", "replay_trace", "synthetic_trace"),
    "repro.sweep": ("ResultStore", "RunResult", "RunSpec", "SweepRunner"),
    "repro.trace": (
        "Trace", "TraceRecord", "build_jobs", "generate_trace",
        "load_philly_csv", "write_philly_csv",
    ),
    "repro.verify": (
        "INVARIANT_CATALOG", "EpisodeSpec", "InvariantChecker",
        "InvariantViolation", "compare_homogeneous_identity", "run_episode",
        "run_fuzz",
    ),
}

_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "MuriScheduler",
    "MultiRoundGrouper",
    "JobGroup",
    "interleaving_efficiency",
    "pair_efficiency",
    "group_speedup",
    "best_ordering",
    "worst_ordering",
    # matching
    "max_weight_matching",
    "matching_pairs",
    # jobs & models
    "Job",
    "JobSpec",
    "JobStatus",
    "Resource",
    "Stage",
    "StageProfile",
    "ModelProfile",
    "MODEL_ZOO",
    "get_model",
    "list_models",
    # cluster & sim
    "Cluster",
    "Machine",
    "ClusterSimulator",
    "SimulationResult",
    "ContentionModel",
    "FaultInjector",
    "Decision",
    "DecisionLog",
    # observability
    "Tracer",
    "TraceEvent",
    "EventCategory",
    "ProvenanceStore",
    "write_chrome_trace",
    "write_jsonl",
    "trace_summary",
    "format_explain",
    # sweeps
    "RunSpec",
    "RunResult",
    "SweepRunner",
    "ResultStore",
    # verification
    "InvariantChecker",
    "InvariantViolation",
    "INVARIANT_CATALOG",
    "EpisodeSpec",
    "run_episode",
    "run_fuzz",
    "compare_homogeneous_identity",
    # traces & profiling
    "Trace",
    "TraceRecord",
    "generate_trace",
    "build_jobs",
    "load_philly_csv",
    "write_philly_csv",
    "ResourceProfiler",
    "UniformNoise",
    # schedulers
    "Scheduler",
    "make_scheduler",
    "register_scheduler",
    "available_schedulers",
    # service
    "SchedulerService",
    "ServiceClient",
    "SubmitRejected",
    "PROTOCOL_VERSION",
    # fleet
    "FleetFrontEnd",
    "FleetTopology",
    "VirtualCluster",
    "TenantQuota",
    "partition_cluster",
    # elastic
    "ElasticMuriScheduler",
    "GoodputAllocator",
    "ScalabilityProfile",
    "attach_scalability",
    # heterogeneous & replay
    "GpuType",
    "TypeScaling",
    "DEFAULT_TYPE_SCALING",
    "make_hetero_cluster",
    "pin_jobs",
    "build_hetero_jobs",
    "ReplayStats",
    "replay_trace",
    "synthetic_trace",
]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
