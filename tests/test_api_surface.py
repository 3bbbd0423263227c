"""The public API surface: importability and __all__ hygiene.

A downstream user should be able to rely on ``from repro import X``
for everything the README shows; this pins that surface.
"""

import importlib

import pytest

import repro

SUBPACKAGES = (
    "repro.core",
    "repro.matching",
    "repro.jobs",
    "repro.models",
    "repro.schedulers",
    "repro.cluster",
    "repro.sim",
    "repro.trace",
    "repro.profiler",
    "repro.analysis",
    "repro.observe",
    "repro.sweep",
    "repro.verify",
    "repro.service",
    "repro.fleet",
    "repro.elastic",
    "repro.hetero",
    "repro.replay",
    "repro.cli",
)

TOP_LEVEL_NAMES = (
    "MuriScheduler",
    "MultiRoundGrouper",
    "JobGroup",
    "interleaving_efficiency",
    "pair_efficiency",
    "group_speedup",
    "best_ordering",
    "worst_ordering",
    "max_weight_matching",
    "matching_pairs",
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
    "Cluster",
    "Machine",
    "ClusterSimulator",
    "SimulationResult",
    "ContentionModel",
    "FaultInjector",
    "Trace",
    "TraceRecord",
    "generate_trace",
    "build_jobs",
    "ResourceProfiler",
    "UniformNoise",
    "Scheduler",
    "make_scheduler",
    "register_scheduler",
    "available_schedulers",
    "Decision",
    "DecisionLog",
    "Tracer",
    "TraceEvent",
    "EventCategory",
    "ProvenanceStore",
    "write_chrome_trace",
    "write_jsonl",
    "trace_summary",
    "format_explain",
    "RunSpec",
    "RunResult",
    "SweepRunner",
    "ResultStore",
    "InvariantChecker",
    "InvariantViolation",
    "INVARIANT_CATALOG",
    "EpisodeSpec",
    "run_episode",
    "run_fuzz",
    "SchedulerService",
    "ServiceClient",
    "SubmitRejected",
    "PROTOCOL_VERSION",
    "FleetFrontEnd",
    "FleetTopology",
    "VirtualCluster",
    "TenantQuota",
    "partition_cluster",
    "ElasticMuriScheduler",
    "GoodputAllocator",
    "ScalabilityProfile",
    "attach_scalability",
)


def test_version():
    assert repro.__version__


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_subpackages_import(module_name):
    module = importlib.import_module(module_name)
    assert module is not None


@pytest.mark.parametrize("name", TOP_LEVEL_NAMES)
def test_top_level_name(name):
    assert hasattr(repro, name), name
    assert name in repro.__all__


@pytest.mark.parametrize("module_name", SUBPACKAGES[:-1])
def test_all_lists_are_accurate(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module_name}.{name}"


def test_no_test_prefixed_public_names():
    """Names starting with 'test' would be collected by pytest when
    imported into test modules (a past bug)."""
    for module_name in SUBPACKAGES:
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert not name.startswith("test"), f"{module_name}.{name}"
