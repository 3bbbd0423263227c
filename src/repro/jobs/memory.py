"""GPU memory accounting for interleaved groups.

Section 2.2's feasibility argument: "multi-resource interleaving does
not significantly increase GPU memory usage, because intermediate data
consume most GPU memory and multi-resource interleaving interleaves
the occurrence of these data" — grouping four jobs raised peak memory
by under 10% over GPT-2 alone on the paper's V100s.

The model here: a job holds its **weights** (parameters, optimizer
state) resident for its whole lifetime, while its **activations**
(intermediate tensors) exist only during its propagate stage.  Because
a coordinated group runs at most one member's propagate stage at a
time, the group's peak is::

    sum(weights) + max(activations) + residual * (other activations)

where ``residual`` covers prefetched batches and not-yet-freed buffers
(zero would be perfectly staggered stages).  Uncoordinated sharing
(AntMan-style) overlaps propagate stages freely, so its peak is the
plain sum of per-job peaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.numeric import ordered_sum

__all__ = ["MemoryFootprint", "group_peak_memory", "V100_MEMORY_GB"]

#: Memory of the paper's NVIDIA Tesla V100 GPUs.
V100_MEMORY_GB = 16.0


@dataclass(frozen=True)
class MemoryFootprint:
    """Per-GPU memory demand of one job.

    Attributes:
        weights_gb: Parameters + gradients + optimizer state, resident
            throughout training.
        activations_gb: Peak intermediate tensors during the propagate
            stage.
    """

    weights_gb: float
    activations_gb: float

    def __post_init__(self) -> None:
        if self.weights_gb < 0 or self.activations_gb < 0:
            raise ValueError("memory sizes must be >= 0")

    @property
    def solo_peak_gb(self) -> float:
        """Peak memory of the job running alone."""
        return self.weights_gb + self.activations_gb


def group_peak_memory(
    footprints: Sequence[MemoryFootprint],
    coordinated: bool = True,
    residual: float = 0.10,
) -> float:
    """Peak per-GPU memory of a group of co-located jobs.

    Args:
        footprints: Member footprints.
        coordinated: True for Muri-style interleaving (propagate stages
            staggered by barriers), False for uncoordinated sharing
            (stages overlap arbitrarily).
        residual: Fraction of each *non-active* member's activations
            still resident while another member propagates (prefetch
            buffers, lazily freed tensors).

    Returns:
        Peak gigabytes on each GPU of the group's set.

    Raises:
        ValueError: For an empty group or a residual outside [0, 1].
    """
    if not footprints:
        raise ValueError("a group needs at least one member")
    if not 0 <= residual <= 1:
        raise ValueError("residual must be in [0, 1]")

    weights = ordered_sum(f.weights_gb for f in footprints)
    if not coordinated:
        return weights + ordered_sum(f.activations_gb for f in footprints)
    activations = sorted((f.activations_gb for f in footprints), reverse=True)
    largest = activations[0]
    others = ordered_sum(activations[1:])
    return weights + largest + residual * others
