"""Tests for trace-to-job materialization."""

import pytest

from repro.hetero.workload import build_hetero_jobs, pin_jobs
from repro.jobs.job import JobSpec
from repro.models.zoo import DEFAULT_MODELS, get_model
from repro.trace.records import Trace, TraceRecord
from repro.trace.workload import assign_models, build_jobs


def make_trace(n=20):
    return Trace.from_records(
        "t",
        [
            TraceRecord(job_id=i, submit_time=float(i), duration=600.0,
                        num_gpus=1 << (i % 3))
            for i in range(n)
        ],
    )


class TestAssignModels:
    def test_seeded_and_reproducible(self):
        trace = make_trace()
        assert assign_models(trace, seed=5) == assign_models(trace, seed=5)
        assert assign_models(trace, seed=5) != assign_models(trace, seed=6)

    def test_draws_from_default_pool(self):
        names = assign_models(make_trace(200), seed=0)
        assert set(names) <= set(DEFAULT_MODELS)
        assert len(set(names)) > 4  # uses the breadth of the pool

    def test_respects_fixed_models(self):
        trace = Trace.from_records(
            "t", [TraceRecord(0, 0.0, 10.0, 1, model="Bert")]
        )
        assert assign_models(trace, seed=0) == ["Bert"]

    def test_custom_pool(self):
        names = assign_models(make_trace(), models=["A2C"], seed=0)
        assert set(names) == {"A2C"}

    def test_empty_pool(self):
        with pytest.raises(ValueError):
            assign_models(make_trace(), models=[])


class TestBuildJobs:
    def test_one_spec_per_record(self):
        trace = make_trace()
        specs = build_jobs(trace, seed=0)
        assert len(specs) == len(trace)

    def test_carries_trace_fields(self):
        trace = make_trace()
        specs = build_jobs(trace, seed=0)
        for record, spec in zip(trace, specs):
            assert spec.submit_time == record.submit_time
            assert spec.num_gpus == record.num_gpus
            assert spec.job_id == record.job_id

    def test_iterations_approximate_duration(self):
        """The paper derives iteration counts from trace durations."""
        trace = make_trace()
        specs = build_jobs(trace, seed=0)
        for record, spec in zip(trace, specs):
            solo = spec.num_iterations * spec.iteration_time
            assert solo == pytest.approx(record.duration, rel=0.01)

    def test_minimum_one_iteration(self):
        trace = Trace.from_records("t", [TraceRecord(0, 0.0, 0.001, 1)])
        specs = build_jobs(trace, seed=0)
        assert specs[0].num_iterations == 1

    def test_profile_matches_model(self):
        trace = Trace.from_records(
            "t", [TraceRecord(0, 0.0, 100.0, 4, model="GPT-2")]
        )
        spec = build_jobs(trace, seed=0)[0]
        assert spec.model == "GPT-2"
        assert spec.profile.durations == get_model("GPT-2").stage_profile(4).durations

    def test_model_pool_restriction(self):
        specs = build_jobs(make_trace(), models=["DQN", "Bert"], seed=1)
        assert {spec.model for spec in specs} <= {"DQN", "Bert"}


def rebuild_per_record(trace, seed, network_scaling):
    """build_jobs' specification: a fresh profile for every record."""
    specs = []
    for record, name in zip(trace, assign_models(trace, seed=seed)):
        model = get_model(name)
        profile = model.stage_profile(record.num_gpus, network_scaling)
        specs.append(JobSpec(
            profile=profile,
            num_gpus=record.num_gpus,
            submit_time=record.submit_time,
            num_iterations=max(
                1, round(record.duration / profile.iteration_time)
            ),
            model=model.name,
            name=f"{trace.name}-job{record.job_id}",
            job_id=record.job_id,
            memory=model.memory,
        ))
    return specs


def wide_trace(n=200):
    """Every GPU count up to 64, so network scaling changes profiles."""
    return Trace.from_records("w", [
        TraceRecord(job_id=i, submit_time=float(i),
                    duration=60.0 + 37.0 * i, num_gpus=1 << (i % 7))
        for i in range(n)
    ])


class TestProfileReuse:
    @pytest.mark.parametrize("network_scaling", [0.0, 0.5])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_equals_per_record_rebuild(self, seed, network_scaling):
        trace = wide_trace()
        assert build_jobs(
            trace, seed=seed, network_scaling=network_scaling
        ) == rebuild_per_record(trace, seed, network_scaling)

    def test_network_scaling_reaches_large_jobs(self):
        trace = wide_trace()
        flat = build_jobs(trace, seed=0)
        scaled = build_jobs(trace, seed=0, network_scaling=0.5)
        assert any(a.profile != b.profile for a, b in zip(flat, scaled))

    def test_one_profile_per_model_and_gpu_count(self):
        specs = build_jobs(wide_trace(), seed=0)
        keys = {(spec.model, spec.num_gpus) for spec in specs}
        assert len({id(spec.profile) for spec in specs}) == len(keys)

    @pytest.mark.parametrize("network_scaling", [0.0, 0.5])
    def test_hetero_equals_per_record_rebuild(self, network_scaling):
        trace = wide_trace()
        types = ["k80", "a100"]
        assert build_hetero_jobs(
            trace, types, seed=3, network_scaling=network_scaling,
            prefer_fraction=0.25,
        ) == pin_jobs(
            rebuild_per_record(trace, 3, network_scaling), types, seed=3,
            prefer_fraction=0.25,
        )
