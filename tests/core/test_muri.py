"""Tests for the MuriScheduler's decide() logic."""

import random
from typing import List, Sequence

import pytest

from repro.core.muri import MuriScheduler
from repro.jobs.job import Job, JobSpec
from repro.jobs.resources import NUM_RESOURCES
from repro.jobs.stage import StageProfile
from repro.profiler.noise import UniformNoise
from repro.profiler.profiler import ResourceProfiler
from repro.schedulers.base import group_key
from repro.verify.differential import plan_signature

STORAGE = StageProfile((0.7, 0.1, 0.1, 0.1))
CPU = StageProfile((0.1, 0.7, 0.1, 0.1))
GPU = StageProfile((0.1, 0.1, 0.7, 0.1))
NETWORK = StageProfile((0.1, 0.1, 0.1, 0.7))


def _make_jobs(
    count: int,
    seed: int,
    gpu_choices: Sequence[int] = (1, 1, 2, 4, 8),
) -> List[Job]:
    """A seeded mixed-GPU job queue for the grouping benchmarks.

    Stage durations are drawn uniformly per resource, giving the
    matcher a realistic spread of bottlenecks; the GPU-count choices
    weight small jobs the way the paper's traces do.
    """
    rng = random.Random(seed)
    jobs = []
    for _ in range(count):
        rows = tuple(
            round(rng.uniform(0.05, 5.0), 3) for _ in range(NUM_RESOURCES)
        )
        jobs.append(
            Job(
                JobSpec(
                    profile=StageProfile(rows),
                    num_gpus=rng.choice(list(gpu_choices)),
                    num_iterations=100,
                )
            )
        )
    return jobs


def make_job(profile=GPU, gpus=1, iters=100, submit=0.0):
    return Job(JobSpec(profile=profile, num_gpus=gpus, num_iterations=iters,
                       submit_time=submit))


class TestNames:
    def test_muri_s(self):
        assert MuriScheduler(policy="srsf").name == "Muri-S"
        assert MuriScheduler(policy="srsf").duration_aware

    def test_muri_l(self):
        assert MuriScheduler(policy="las2d").name == "Muri-L"
        assert not MuriScheduler(policy="las2d").duration_aware

    def test_variant_names(self):
        assert "greedy" in MuriScheduler(matcher="greedy").name
        assert "worst" in MuriScheduler(ordering="worst").name
        assert "[2-job]" in MuriScheduler(max_group_size=2).name


class TestDecide:
    def test_respects_capacity(self):
        jobs = [make_job(gpus=2) for _ in range(20)]
        plan = MuriScheduler().decide(0.0, jobs, {}, total_gpus=8)
        assert sum(group.num_gpus for group in plan) <= 8

    def test_light_load_runs_solo(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        plan = MuriScheduler().decide(0.0, jobs, {}, total_gpus=8)
        assert all(group.size == 1 for group in plan)
        assert len(plan) == 4

    def test_congestion_triggers_grouping(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK) * 2]
        plan = MuriScheduler().decide(0.0, jobs, {}, total_gpus=2)
        assert any(group.size > 1 for group in plan)
        assert sum(group.num_gpus for group in plan) <= 2

    def test_groups_are_gpu_homogeneous(self):
        jobs = [make_job(p, gpus=g) for p in (STORAGE, CPU, GPU, NETWORK)
                for g in (1, 2)]
        plan = MuriScheduler().decide(0.0, jobs, {}, total_gpus=2)
        for group in plan:
            assert len({job.num_gpus for job in group.jobs}) == 1

    def test_priority_order_respected(self):
        short = make_job(GPU, iters=1)
        long_ = make_job(GPU, iters=10_000)
        plan = MuriScheduler(policy="srsf").decide(
            0.0, [long_, short], {}, total_gpus=1
        )
        # Capacity one GPU: if anything runs solo it must include the
        # short job first.
        scheduled = [job.job_id for group in plan for job in group.jobs]
        assert short.job_id in scheduled

    def test_no_job_twice(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK) * 3]
        plan = MuriScheduler().decide(0.0, jobs, {}, total_gpus=3)
        ids = [job.job_id for group in plan for job in group.jobs]
        assert len(ids) == len(set(ids))

    def test_running_groups_preserved_when_valid(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        scheduler = MuriScheduler()
        first = scheduler.decide(0.0, jobs, {}, total_gpus=1)
        running = {group_key(g): g for g in first}
        second = scheduler.decide(
            10.0, jobs, running, total_gpus=1
        )
        assert {group_key(g) for g in second} == set(running)


class TestBackfillCache:
    def test_completion_keeps_running_members_together(self):
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK) * 2]
        scheduler = MuriScheduler()
        plan = scheduler.decide(0.0, jobs, {}, total_gpus=1)
        assert len(plan) >= 1
        running = {group_key(plan[0]): plan[0]}
        # Pretend other jobs are pending and a slot freed up.
        backfill = scheduler.decide(
            5.0, jobs, running, total_gpus=2, reason="completion"
        )
        # The running group's member set survives the backfill (same
        # identity to the simulator), and capacity is respected.
        keys = {group_key(g) for g in backfill}
        assert group_key(plan[0]) in keys
        assert sum(g.num_gpus for g in backfill) <= 2
        # The freed slot was actually used for pending jobs.
        assert len(backfill) == 2

    def test_completion_without_cache_regroups(self):
        jobs = [make_job(GPU)]
        scheduler = MuriScheduler()
        plan = scheduler.decide(0.0, jobs, {}, total_gpus=4, reason="completion")
        assert len(plan) == 1


class TestProfilerIntegration:
    def test_uses_profiler_measurements(self):
        profiler = ResourceProfiler(noise=UniformNoise(0.5), num_dry_runs=1,
                                    seed=3, cache_by_model=False)
        scheduler = MuriScheduler(profiler=profiler)
        jobs = [make_job(p) for p in (STORAGE, CPU, GPU, NETWORK)]
        scheduler.decide(0.0, jobs, {}, total_gpus=1)
        assert profiler.stats.dry_runs > 0

    def test_believed_profiles_come_from_profiler(self):
        profiler = ResourceProfiler(noise=UniformNoise(0.9), num_dry_runs=1,
                                    seed=1, cache_by_model=False)
        scheduler = MuriScheduler(profiler=profiler)
        jobs = [make_job(GPU), make_job(CPU)]
        plan = scheduler.decide(0.0, jobs, {}, total_gpus=1)
        group = plan[0]
        truths = {job.profile.durations for job in group.jobs}
        believed = set(p.durations for p in group.believed_profiles)
        assert not (believed & truths)


class TestResetCaches:
    def test_reset_scheduler_decides_like_a_fresh_one(self):
        # A fresh scheduler has no backfill reservoir, so a completion
        # regroups; after reset_caches() the same decide must regroup
        # too rather than serve the running groups as a backfill.
        jobs = _make_jobs(24, 0, gpu_choices=(1, 2))
        warm = MuriScheduler()
        plan = warm.decide(0.0, jobs, {}, total_gpus=8)
        # A full cluster leaves no free GPU, so a backfill would keep
        # exactly the running groups and never fall through to regroup.
        assert sum(group.num_gpus for group in plan) == 8
        running = {group_key(group): group for group in plan}
        warm.reset_caches()

        reset_plan = warm.decide(
            10.0, jobs, running, total_gpus=8, reason="completion"
        )
        fresh_plan = MuriScheduler().decide(
            10.0, jobs, running, total_gpus=8, reason="completion"
        )
        assert plan_signature(reset_plan) == plan_signature(fresh_plan)
