"""Decision-cache invalidation on resize, at the sparsify boundaries.

A resize moves a job between GPU buckets; every demand-keyed cache —
the grouper's per-bucket decision cache and the scheduler's overflow
carry — must be dropped for the affected buckets or a warm ``decide``
can replay a stale plan.  Each test warms the caches, moves
one job across buckets via ``resize`` + ``notify_resize``, and asserts
the warm plan is signature-identical to a cold scheduler's plan on the
same inputs.

Queue sizes straddle ``sparsify_threshold`` (default 128): 127 keeps
the one-GPU bucket on the dense Blossom path, 128/129 push it onto the
sparse candidate-graph path, so both matchers are exercised.
"""

import random

import pytest

from repro.core.muri import MuriScheduler
from repro.elastic.scheduler import ElasticMuriScheduler
from repro.jobs.job import Job, JobSpec
from repro.jobs.scalability import ScalabilityProfile
from repro.jobs.stage import StageProfile
from repro.models.zoo import DEFAULT_MODELS, get_model
from repro.verify.differential import plan_signature

TOTAL_GPUS = 64


def make_jobs(n, seed, gpus=1, elastic_every=10):
    """``n`` jobs at ``gpus`` GPUs; every k-th also supports 2x."""
    rng = random.Random(seed)
    jobs = []
    for i in range(n):
        profile = get_model(rng.choice(DEFAULT_MODELS)).stage_profile(1)
        scalability = None
        if i % elastic_every == 0:
            scalability = ScalabilityProfile.from_mapping({
                gpus: profile,
                gpus * 2: profile.scaled(0.6),
            })
        jobs.append(Job(JobSpec(
            profile=profile,
            num_gpus=gpus,
            num_iterations=rng.randint(100, 5000),
            scalability=scalability,
        )))
    return jobs


def resize_and_notify(scheduler, job, new_gpus):
    old = job.resize(new_gpus)
    scheduler.notify_resize(job.job_id, old, new_gpus)


def warm_equals_cold(jobs, mutate, now=600.0):
    """Warm a scheduler, apply ``mutate``, compare against a cold one."""
    warm = MuriScheduler(policy="srsf")
    warm.decide(0.0, jobs, {}, TOTAL_GPUS)
    mutate(warm)
    warm_plan = warm.decide(now, jobs, {}, TOTAL_GPUS)

    cold = MuriScheduler(policy="srsf")
    cold_plan = cold.decide(now, jobs, {}, TOTAL_GPUS)
    assert plan_signature(warm_plan) == plan_signature(cold_plan)
    return warm_plan


class TestSparsifyBoundaries:
    @pytest.mark.parametrize("queue_size", [127, 128, 129])
    def test_resize_invalidates_across_threshold(self, queue_size):
        jobs = make_jobs(queue_size, seed=queue_size)
        elastic = next(j for j in jobs if j.spec.scalability is not None)
        warm_equals_cold(
            jobs,
            lambda sched: resize_and_notify(sched, elastic, 2),
        )
        assert elastic.num_gpus == 2

    @pytest.mark.parametrize("queue_size", [127, 128, 129])
    def test_shrink_back_invalidates_too(self, queue_size):
        jobs = make_jobs(queue_size, seed=queue_size + 1000)
        elastic = next(j for j in jobs if j.spec.scalability is not None)

        def mutate(sched):
            resize_and_notify(sched, elastic, 2)
            sched.decide(300.0, jobs, {}, TOTAL_GPUS)  # re-warm at 2
            resize_and_notify(sched, elastic, 1)

        warm_equals_cold(jobs, mutate)
        assert elastic.num_gpus == 1


class TestCrossBucketInvalidation:
    def test_resize_between_populated_buckets(self):
        # Two populated GPU buckets (2s and 4s); one job migrates from
        # the 2-bucket to the 4-bucket, invalidating both.
        jobs = make_jobs(40, seed=3, gpus=2, elastic_every=8)
        jobs += make_jobs(40, seed=4, gpus=4, elastic_every=10_000)
        elastic = next(j for j in jobs if j.spec.scalability is not None)
        warm_equals_cold(
            jobs,
            lambda sched: resize_and_notify(sched, elastic, 4),
        )
        assert elastic.num_gpus == 4

    def test_untouched_bucket_cache_survives(self):
        # Invalidation is per-bucket: resizing a 1-GPU job must not
        # drop cached matchings for the 8-GPU bucket.
        jobs = make_jobs(150, seed=5)
        jobs += make_jobs(20, seed=6, gpus=8, elastic_every=10_000)
        elastic = next(j for j in jobs if j.spec.scalability is not None)
        scheduler = MuriScheduler(policy="srsf")
        scheduler.decide(0.0, jobs, {}, TOTAL_GPUS)
        cache = scheduler.grouper._decision_cache
        eight_keys = {key for key in cache if key[0] == 8}
        assert eight_keys
        resize_and_notify(scheduler, elastic, 2)
        assert eight_keys <= set(scheduler.grouper._decision_cache)
        one_or_two = {
            key for key in scheduler.grouper._decision_cache
            if key[0] in (1, 2)
        }
        assert not one_or_two


class TestElasticDecisionCache:
    def test_cleared_on_resize(self):
        jobs = make_jobs(60, seed=9)
        elastic = next(j for j in jobs if j.spec.scalability is not None)
        scheduler = ElasticMuriScheduler()
        first = scheduler.decide(0.0, jobs, {}, TOTAL_GPUS)
        resize_and_notify(scheduler, elastic, 2)
        second = scheduler.decide(0.0, jobs, {}, TOTAL_GPUS)
        cold = ElasticMuriScheduler()
        cold_plan = cold.decide(0.0, jobs, {}, TOTAL_GPUS)
        assert plan_signature(second) == plan_signature(cold_plan)
        # The resized job's two-GPU demand must be visible in the plan.
        for group in second:
            if any(j.job_id == elastic.job_id for j in group.jobs):
                assert group.num_gpus == 2
