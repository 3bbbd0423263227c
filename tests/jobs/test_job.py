"""Tests for JobSpec and runtime Job state."""

import dataclasses

import pytest

from repro.jobs.job import Job, JobSpec, JobStatus, replace_spec
from repro.jobs.memory import MemoryFootprint
from repro.jobs.resources import Resource
from repro.jobs.scalability import ScalabilityProfile
from repro.jobs.stage import StageProfile

PROFILE = StageProfile((0.2, 0.2, 0.4, 0.2))  # 1 second per iteration


def make_spec(**kwargs):
    defaults = dict(profile=PROFILE, num_gpus=2, submit_time=10.0, num_iterations=100)
    defaults.update(kwargs)
    return JobSpec(**defaults)


class TestJobSpec:
    def test_auto_ids_unique(self):
        a, b = JobSpec(profile=PROFILE), JobSpec(profile=PROFILE)
        assert a.job_id != b.job_id

    def test_auto_name(self):
        spec = JobSpec(profile=PROFILE)
        assert spec.name == f"job-{spec.job_id}"

    def test_explicit_identity(self):
        spec = JobSpec(profile=PROFILE, job_id=77, name="mine")
        assert spec.job_id == 77
        assert spec.name == "mine"

    def test_validation(self):
        with pytest.raises(ValueError):
            make_spec(num_gpus=0)
        with pytest.raises(ValueError):
            make_spec(num_iterations=0)
        with pytest.raises(ValueError):
            make_spec(submit_time=-1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_submit_time_rejected(self, bad):
        with pytest.raises(ValueError):
            make_spec(submit_time=bad)

    def test_iteration_time(self):
        assert make_spec().iteration_time == pytest.approx(1.0)

    def test_total_service_time(self):
        assert make_spec().total_service_time == pytest.approx(100.0)

    def test_gpu_service(self):
        assert make_spec().gpu_service == pytest.approx(200.0)

    def test_bottleneck(self):
        assert make_spec().bottleneck == Resource.GPU

    def test_frozen(self):
        spec = make_spec()
        with pytest.raises(AttributeError):
            spec.num_gpus = 4


class TestReplaceSpec:
    def full_spec(self):
        curve = ScalabilityProfile.from_speedups(
            2, PROFILE, {1: 0.6, 4: 1.7}
        )
        return make_spec(
            model="resnet50", name="probe", job_id=41,
            memory=MemoryFootprint(2.0, 3.0), scalability=curve,
            gpu_affinity="a100", affinity_mode="prefer",
        )

    @pytest.mark.parametrize("changes", [
        {},
        {"gpu_affinity": None, "affinity_mode": "pin"},
        {"scalability": None, "num_gpus": 4, "submit_time": 0.0},
        {"name": None, "job_id": 7},
    ])
    def test_equals_dataclasses_replace(self, changes):
        spec = self.full_spec()
        fast = replace_spec(spec, **changes)
        slow = dataclasses.replace(spec, **changes)
        assert fast == slow
        assert vars(fast) == vars(slow)

    def test_scaled_profile_and_curve(self):
        spec = self.full_spec()
        changes = dict(
            profile=PROFILE.scaled(0.5),
            scalability=spec.scalability.scaled(0.5),
        )
        assert replace_spec(spec, **changes) == dataclasses.replace(
            spec, **changes
        )

    def test_validates_like_replace(self):
        spec = self.full_spec()
        with pytest.raises(TypeError):
            replace_spec(spec, no_such_field=1)
        with pytest.raises(ValueError):
            replace_spec(spec, num_gpus=3)
        with pytest.raises(ValueError):
            replace_spec(spec, submit_time=float("nan"))


class TestJobLifecycle:
    def test_initial_state(self):
        job = Job(make_spec())
        assert job.status == JobStatus.PENDING
        assert job.remaining_iterations == 100.0
        assert job.attained_service == 0.0
        assert not job.is_finished

    def test_start_records_time(self):
        job = Job(make_spec())
        job.mark_started(15.0)
        assert job.status == JobStatus.RUNNING
        assert job.start_time == 15.0
        assert job.preemptions == 0

    def test_restart_counts_preemption(self):
        job = Job(make_spec())
        job.mark_started(15.0)
        job.mark_stopped()
        assert job.status == JobStatus.PENDING
        job.mark_started(30.0)
        assert job.preemptions == 1
        assert job.start_time == 15.0  # first start is preserved

    def test_cannot_start_finished_job(self):
        job = Job(make_spec())
        job.mark_finished(50.0)
        with pytest.raises(ValueError):
            job.mark_started(60.0)

    def test_finish(self):
        job = Job(make_spec())
        job.mark_started(15.0)
        job.mark_finished(120.0)
        assert job.is_finished
        assert job.completion_time() == pytest.approx(110.0)
        assert job.remaining_iterations == 0.0

    def test_completion_time_requires_finish(self):
        with pytest.raises(ValueError):
            Job(make_spec()).completion_time()


class TestJobProgress:
    def test_advance(self):
        job = Job(make_spec())
        job.advance(iterations=10.0, wall_time=20.0)
        assert job.remaining_iterations == 90.0
        assert job.attained_service == 20.0

    def test_advance_clamps_at_zero(self):
        job = Job(make_spec())
        job.advance(iterations=1000.0, wall_time=1.0)
        assert job.remaining_iterations == 0.0

    def test_advance_rejects_negative(self):
        job = Job(make_spec())
        with pytest.raises(ValueError):
            job.advance(-1.0, 0.0)
        with pytest.raises(ValueError):
            job.advance(0.0, -1.0)

    def test_remaining_service_time(self):
        job = Job(make_spec())
        job.advance(iterations=40.0, wall_time=50.0)
        assert job.remaining_service_time == pytest.approx(60.0)
        assert job.remaining_gpu_service == pytest.approx(120.0)

    def test_attained_gpu_service(self):
        job = Job(make_spec())
        job.advance(iterations=5.0, wall_time=7.0)
        assert job.attained_gpu_service == pytest.approx(14.0)

    def test_pending_time_while_waiting(self):
        job = Job(make_spec())  # submitted at t=10
        assert job.pending_time(now=30.0) == pytest.approx(20.0)

    def test_pending_time_subtracts_runtime(self):
        job = Job(make_spec())
        job.advance(iterations=5.0, wall_time=8.0)
        assert job.pending_time(now=30.0) == pytest.approx(12.0)

    def test_pending_time_after_finish_is_fixed(self):
        job = Job(make_spec())
        job.advance(iterations=100.0, wall_time=50.0)
        job.mark_finished(100.0)
        assert job.pending_time(now=500.0) == pytest.approx(100.0 - 10.0 - 50.0)

    def test_convenience_accessors(self):
        spec = make_spec()
        job = Job(spec)
        assert job.job_id == spec.job_id
        assert job.name == spec.name
        assert job.num_gpus == 2
        assert job.profile is spec.profile
