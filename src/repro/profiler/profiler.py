"""The resource profiler (Fig. 3's "resource profiler" component).

When a job is first submitted the profiler performs a few dry runs to
measure each stage's duration; jobs training a model seen before reuse
the cached profile without new dry runs (section 3).  In this
reproduction a dry run samples the job's true profile through a noise
model — the Fig. 14 knob — and averages the samples.

The profiler also answers the scheduler's "how well would these jobs
interleave?" queries by delegating to the efficiency model with its
*measured* profiles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.core.efficiency import interleaving_efficiency
from repro.jobs.job import JobSpec
from repro.jobs.stage import StageProfile
from repro.numeric import ordered_sum
from repro.profiler.noise import NoNoise, NoiseModel

__all__ = ["ResourceProfiler", "ProfilerStats"]


@dataclass
class ProfilerStats:
    """Bookkeeping for profiler activity.

    Attributes:
        dry_runs: Total dry-run iterations executed.
        cache_hits: Profile requests served from the model cache.
        cache_misses: Requests that required fresh dry runs.
    """

    dry_runs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0


class ResourceProfiler:
    """Measures per-stage durations of jobs, with caching and noise.

    Args:
        noise: Noise model applied to each dry-run sample (defaults to
            exact measurements).
        num_dry_runs: Iterations sampled per fresh profile ("tens of
            iterations" in the paper; a handful suffices here).
        seed: RNG seed for noise realizations.
        cache_by_model: Reuse profiles across jobs training the same
            model, as the paper's profiler does.  Disable to force
            per-job dry runs.
    """

    def __init__(
        self,
        noise: Optional[NoiseModel] = None,
        num_dry_runs: int = 5,
        seed: int = 0,
        cache_by_model: bool = True,
    ) -> None:
        if num_dry_runs < 1:
            raise ValueError("num_dry_runs must be >= 1")
        self.noise = noise if noise is not None else NoNoise()
        self.num_dry_runs = num_dry_runs
        self.cache_by_model = cache_by_model
        self._rng = random.Random(seed)
        self._cache: Dict[str, StageProfile] = {}
        self.stats = ProfilerStats()

    # -- profiling -----------------------------------------------------------

    def profile(self, spec: JobSpec) -> StageProfile:
        """Measured stage profile for a job.

        Cache key is ``model @ num_gpus`` because the synchronization
        stage differs between single- and multi-GPU jobs.
        """
        key = f"{spec.model}@{spec.num_gpus}"
        if self.cache_by_model and key in self._cache:
            self.stats.cache_hits += 1
            return self._cache[key]

        self.stats.cache_misses += 1
        measured = self._dry_run(spec.profile)
        if self.cache_by_model:
            self._cache[key] = measured
        return measured

    def profile_all(self, specs: Sequence[JobSpec]) -> Dict[int, StageProfile]:
        """Measured profiles for a batch, keyed by job id."""
        return {spec.job_id: self.profile(spec) for spec in specs}

    def _dry_run(self, truth: StageProfile) -> StageProfile:
        samples = [
            self.noise.perturb(truth, self._rng)
            for _ in range(self.num_dry_runs)
        ]
        self.stats.dry_runs += self.num_dry_runs
        averaged = tuple(
            ordered_sum(sample.durations[i] for sample in samples)
            / len(samples)
            for i in range(truth.num_resources)
        )
        return StageProfile(averaged)

    # -- group estimation -------------------------------------------------------

    def estimate_group_efficiency(
        self,
        specs: Sequence[JobSpec],
        ordering: str = "best",
    ) -> float:
        """Interleaving efficiency of a candidate group, as measured.

        This is the quantity the scheduler uses as matching edge
        weights: it is computed from *measured* (possibly noisy)
        profiles, not ground truth.
        """
        profiles = [self.profile(spec) for spec in specs]
        return interleaving_efficiency(profiles, ordering=ordering)

    def invalidate(self, model: Optional[str] = None) -> None:
        """Drop cached profiles (all of them, or one model's)."""
        if model is None:
            self._cache.clear()
            return
        for key in [k for k in self._cache if k.split("@")[0] == model]:
            del self._cache[key]
