"""Statistical support for scheduler comparisons.

Single-seed speedups can flatter or understate a scheduler; this
module provides seeded bootstrap confidence intervals for means and
for ratio-of-means speedups, plus a multi-seed experiment helper, so
claims like "Muri-L beats Tiresias" carry uncertainty estimates.
numpy is imported inside the functions that use it, so importing this
module (and ``repro.cli``, which does) loads no numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = [
    "ConfidenceInterval",
    "bootstrap_mean_ci",
    "bootstrap_speedup_ci",
    "multi_seed_speedups",
    "summarize_speedups",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """A point estimate with a two-sided confidence interval.

    Attributes:
        estimate: The point estimate.
        low: Lower CI bound.
        high: Upper CI bound.
        confidence: Interval mass (e.g. 0.95).
    """

    estimate: float
    low: float
    high: float
    confidence: float

    def __post_init__(self) -> None:
        if not self.low <= self.high:
            raise ValueError("low must not exceed high")

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low

    def excludes(self, value: float) -> bool:
        """True when the interval lies strictly on one side of value."""
        return value < self.low or value > self.high


def bootstrap_mean_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Percentile-bootstrap CI for the mean of ``values``.

    Raises:
        ValueError: On an empty sample or an invalid confidence.
    """
    if len(values) == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    import numpy as np

    data = np.asarray(values, dtype=float)
    rng = np.random.default_rng(seed)
    means = rng.choice(data, size=(resamples, data.size), replace=True).mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(means, [alpha, 1.0 - alpha])
    return ConfidenceInterval(
        estimate=float(data.mean()),
        low=float(low),
        high=float(high),
        confidence=confidence,
    )


def bootstrap_speedup_ci(
    baseline_values: Sequence[float],
    treatment_values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = 2000,
    seed: int = 0,
) -> ConfidenceInterval:
    """Bootstrap CI for ``mean(baseline) / mean(treatment)``.

    This is the paper's speedup notion applied to per-job JCTs: a value
    above one means the treatment (e.g. Muri) is faster on average.
    """
    if len(baseline_values) == 0 or len(treatment_values) == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    import numpy as np

    baseline = np.asarray(baseline_values, dtype=float)
    treatment = np.asarray(treatment_values, dtype=float)
    rng = np.random.default_rng(seed)
    base_means = rng.choice(
        baseline, size=(resamples, baseline.size), replace=True
    ).mean(axis=1)
    treat_means = rng.choice(
        treatment, size=(resamples, treatment.size), replace=True
    ).mean(axis=1)
    ratios = base_means / np.maximum(treat_means, 1e-12)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(ratios, [alpha, 1.0 - alpha])
    return ConfidenceInterval(
        estimate=float(baseline.mean() / treatment.mean()),
        low=float(low),
        high=float(high),
        confidence=confidence,
    )


def multi_seed_speedups(
    run_experiment: Callable[[int], Tuple[float, float]],
    seeds: Sequence[int],
) -> List[float]:
    """Run an experiment per seed; collect baseline/treatment ratios.

    Args:
        run_experiment: Callable mapping a seed to
            ``(baseline_metric, treatment_metric)``.
        seeds: Seeds to evaluate.

    Returns:
        One speedup (baseline / treatment) per seed.
    """
    speedups = []
    for seed in seeds:
        baseline, treatment = run_experiment(seed)
        if treatment <= 0:
            raise ValueError(f"non-positive treatment metric for seed {seed}")
        speedups.append(baseline / treatment)
    return speedups


def summarize_speedups(
    speedups: Sequence[float],
    confidence: float = 0.95,
    seed: int = 0,
) -> Dict[str, float]:
    """Summary statistics of a speedup sample."""
    import numpy as np

    interval = bootstrap_mean_ci(speedups, confidence=confidence, seed=seed)
    data = np.asarray(speedups, dtype=float)
    return {
        "mean": interval.estimate,
        "ci_low": interval.low,
        "ci_high": interval.high,
        "min": float(data.min()),
        "max": float(data.max()),
        "n": float(data.size),
    }
