"""Fault injection.

The paper's executor "reports the error information to the worker
monitor and terminates the training process.  The related DL job will
be pushed back to the job queue" (section 5).  The injector samples
memoryless fault times per running job; when a fault fires, the
simulator stops the job's group member, keeps its progress (training
resumes from the last checkpointed iteration), and requeues it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["FaultInjector"]


@dataclass
class FaultInjector:
    """Exponential fault model.

    Attributes:
        mean_time_between_faults: Expected running seconds between
            faults for one job.  ``float('inf')`` disables faults.
        seed: RNG seed.
        progress_loss: Fraction of iterations completed since the last
            restart that is lost when a fault fires (checkpointing
            granularity); zero keeps all progress.
    """

    mean_time_between_faults: float = float("inf")
    seed: int = 0
    progress_loss: float = 0.0

    def __post_init__(self) -> None:
        # NaN slips through ordering comparisons (``nan <= 0`` is
        # False), which would arm the injector and poison the event
        # queue with NaN fault delays — reject it explicitly.
        if math.isnan(self.mean_time_between_faults):
            raise ValueError("mean_time_between_faults must not be NaN")
        if self.mean_time_between_faults <= 0:
            raise ValueError("mean_time_between_faults must be > 0")
        if math.isnan(self.progress_loss):
            raise ValueError("progress_loss must not be NaN")
        if not 0 <= self.progress_loss <= 1:
            raise ValueError("progress_loss must be in [0, 1]")
        self._rng = random.Random(self.seed)

    @property
    def enabled(self) -> bool:
        """True unless the mean time between faults is infinite."""
        return self.mean_time_between_faults != float("inf")

    def sample_fault_delay(self) -> Optional[float]:
        """Running seconds until the next fault of a freshly started
        job, or None when faults are disabled."""
        if not self.enabled:
            return None
        return self._rng.expovariate(1.0 / self.mean_time_between_faults)
