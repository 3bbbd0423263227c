"""Model zoo: the eight DL models the paper evaluates (Table 3).

For each model we record:

* the raw stage-duration percentages the paper publishes in Table 1
  (measured with PyTorch Profiler on 16 V100 GPUs) where available,
  and percentages synthesized from the stated bottleneck otherwise;
* a reference per-iteration time calibrated so that simulated
  throughputs of 16-GPU jobs land near the "Separate Tput" row of
  Table 2 (samples/sec);
* the batch size, dataset, task type, and bottleneck of Table 3.

Raw percentages do not necessarily sum to 100% (the paper explains the
overlap/idle-time effects in section 2.2); :class:`ModelProfile`
normalizes them into sequential stage durations for the simulator
while keeping the raw numbers for the Table 1 reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.jobs.memory import MemoryFootprint
from repro.jobs.resources import RESOURCE_ORDER, Resource
from repro.jobs.stage import StageProfile
from repro.numeric import ordered_sum

__all__ = [
    "ModelProfile",
    "MODEL_ZOO",
    "DEFAULT_MODELS",
    "MODELS_BY_BOTTLENECK",
    "get_model",
    "list_models",
    "models_for_bottlenecks",
]


@dataclass(frozen=True)
class ModelProfile:
    """Static description of one DL model's training behaviour.

    Attributes:
        name: Model name as used in the paper.
        task: Workload family: "CV", "NLP", or "RL".
        dataset: Training dataset or RL environment.
        batch_size: Per-GPU batch size (Table 3).
        bottleneck: The resource the model is bottlenecked on.
        stage_percentages: Raw per-stage duration percentages in
            data-path order (storage, CPU, GPU, network); Table 1 values
            where the paper publishes them.
        iteration_time: Reference solo per-iteration time in seconds
            for one worker.
        memory: Per-GPU memory footprint (weights + peak activations);
            GPT-2's is the largest, per the paper's section 2.2 note.
        published: True if ``stage_percentages`` come straight from
            Table 1, false if synthesized from the stated bottleneck.
    """

    name: str
    task: str
    dataset: str
    batch_size: int
    bottleneck: Resource
    stage_percentages: Tuple[float, float, float, float]
    iteration_time: float
    memory: MemoryFootprint = MemoryFootprint(0.5, 2.0)
    published: bool = False

    def __post_init__(self) -> None:
        if self.iteration_time <= 0:
            raise ValueError("iteration_time must be > 0")
        if len(self.stage_percentages) != len(RESOURCE_ORDER):
            raise ValueError("need one percentage per resource")
        if max(self.stage_percentages) <= 0:
            raise ValueError("at least one stage percentage must be > 0")

    def stage_profile(
        self,
        num_gpus: int = 1,
        network_scaling: float = 0.0,
        speed_factor: float = 1.0,
    ) -> StageProfile:
        """Build the per-worker :class:`StageProfile` for this model.

        Following the paper's methodology, the profile is measured once
        per model and reused for every job training it regardless of
        worker count (the synchronization stage covers gradient
        aggregation and parameter update, which exists — against local
        or remote peers — at any scale).

        Args:
            num_gpus: Number of workers in the job.
            network_scaling: Optional fractional growth of the
                synchronization stage per worker-count doubling beyond
                eight GPUs, modelling all-reduce cost growth.  Zero
                (the default) keeps the Table 1 percentages unchanged.
            speed_factor: Relative speed of the GPU generation the job
                runs on (see :class:`repro.cluster.GpuType`); every
                stage duration is divided by it.  1.0 (the default,
                the paper's V100 baseline) leaves durations unchanged.
        """
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        if not speed_factor > 0:
            raise ValueError("speed_factor must be > 0")
        fractions: Dict[Resource, float] = dict(
            zip(RESOURCE_ORDER, self.stage_percentages)
        )
        profile = StageProfile.from_fractions(self.iteration_time, fractions)
        if num_gpus > 1 and network_scaling > 0:
            doublings = max(0, (num_gpus - 1).bit_length() - 3)
            factor = 1.0 + network_scaling * doublings
            profile = profile.with_duration(
                Resource.NETWORK,
                profile.duration(Resource.NETWORK) * factor,
            )
        if speed_factor != 1.0:
            profile = profile.scaled(1.0 / speed_factor)
        return profile

    def throughput(self, num_gpus: int = 1) -> float:
        """Samples/second of the whole job when running alone."""
        profile = self.stage_profile(num_gpus)
        return self.batch_size * num_gpus / profile.iteration_time

    def normalized_percentages(self) -> Dict[Resource, float]:
        """Stage percentages normalized to sum to one."""
        total = ordered_sum(self.stage_percentages)
        return {
            resource: pct / total
            for resource, pct in zip(RESOURCE_ORDER, self.stage_percentages)
        }


def _profile(
    name: str,
    task: str,
    dataset: str,
    batch_size: int,
    bottleneck: Resource,
    percentages: Tuple[float, float, float, float],
    iteration_time: float,
    published: bool,
    memory: MemoryFootprint,
) -> ModelProfile:
    return ModelProfile(
        name=name,
        task=task,
        dataset=dataset,
        batch_size=batch_size,
        bottleneck=bottleneck,
        stage_percentages=percentages,
        iteration_time=iteration_time,
        memory=memory,
        published=published,
    )


#: All eight models of Table 3.  Percentages in data-path order:
#: (load_data/storage, preprocess/CPU, propagate/GPU, synchronize/network).
MODEL_ZOO: Dict[str, ModelProfile] = {
    profile.name: profile
    for profile in (
        # Table 1 rows (published percentages).
        _profile(
            "ShuffleNet", "CV", "ImageNet", 128,
            Resource.STORAGE, (60.0, 18.0, 6.0, 2.0), 1.00, True,
            MemoryFootprint(weights_gb=0.1, activations_gb=1.2),
        ),
        _profile(
            "VGG19", "CV", "ImageNet", 16,
            Resource.NETWORK, (24.0, 4.0, 26.0, 41.0), 0.35, True,
            MemoryFootprint(weights_gb=0.8, activations_gb=2.8),
        ),
        _profile(
            "GPT-2", "NLP", "WikiText", 4,
            Resource.GPU, (0.06, 0.03, 85.0, 28.0), 0.478, True,
            MemoryFootprint(weights_gb=5.5, activations_gb=8.5),
        ),
        _profile(
            "A2C", "RL", "Breakout", 64,
            Resource.CPU, (0.0, 91.0, 3.0, 0.2), 0.565, True,
            MemoryFootprint(weights_gb=0.05, activations_gb=0.4),
        ),
        # Remaining Table 3 models (synthesized from the stated
        # bottleneck, consistent with their published siblings).
        _profile(
            "ResNet18", "CV", "ImageNet", 128,
            Resource.STORAGE, (52.0, 20.0, 20.0, 8.0), 0.60, False,
            MemoryFootprint(weights_gb=0.2, activations_gb=2.0),
        ),
        _profile(
            "VGG16", "CV", "ImageNet", 16,
            Resource.NETWORK, (20.0, 4.0, 28.0, 48.0), 0.288, False,
            MemoryFootprint(weights_gb=0.7, activations_gb=2.6),
        ),
        _profile(
            "Bert", "NLP", "WikiText", 4,
            Resource.GPU, (0.5, 1.0, 76.0, 22.5), 0.60, False,
            MemoryFootprint(weights_gb=3.5, activations_gb=6.0),
        ),
        _profile(
            "DQN", "RL", "Breakout", 128,
            Resource.CPU, (2.0, 80.0, 14.0, 2.0), 0.42, False,
            MemoryFootprint(weights_gb=0.1, activations_gb=0.8),
        ),
    )
}

#: The canonical evaluation mix (Table 3 order).
DEFAULT_MODELS: List[str] = [
    "ResNet18",
    "ShuffleNet",
    "VGG16",
    "VGG19",
    "Bert",
    "GPT-2",
    "A2C",
    "DQN",
]

#: Models grouped by their bottleneck resource (used by the Fig. 13
#: workload-distribution experiment).
MODELS_BY_BOTTLENECK: Dict[Resource, List[str]] = {}
for _name, _p in MODEL_ZOO.items():
    MODELS_BY_BOTTLENECK.setdefault(_p.bottleneck, []).append(_name)


def get_model(name: str) -> ModelProfile:
    """Look up a model by name (case-insensitive).

    Raises:
        KeyError: If the model is not in the zoo.
    """
    if name in MODEL_ZOO:
        return MODEL_ZOO[name]
    lowered = {key.lower(): key for key in MODEL_ZOO}
    if name.lower() in lowered:
        return MODEL_ZOO[lowered[name.lower()]]
    raise KeyError(
        f"unknown model {name!r}; available: {', '.join(sorted(MODEL_ZOO))}"
    )


def list_models() -> List[str]:
    """Names of all models in the zoo, Table 3 order."""
    return list(DEFAULT_MODELS)


def models_for_bottlenecks(
    bottlenecks: Optional[Mapping[Resource, bool]] = None,
    num_types: Optional[int] = None,
) -> List[str]:
    """Select models whose bottleneck is in a chosen resource set.

    Used by the Fig. 13 experiment, which sweeps the number of distinct
    bottleneck types in the workload from one to four.

    Args:
        bottlenecks: Optional explicit map ``{resource: include}``.
        num_types: If given, take the first ``num_types`` resources in
            the order (storage, CPU, GPU, network), mirroring the
            paper's "vary the number of job types" sweep.

    Returns:
        Model names whose bottleneck resource is selected.
    """
    if (bottlenecks is None) == (num_types is None):
        raise ValueError("pass exactly one of bottlenecks / num_types")
    if num_types is not None:
        if not 1 <= num_types <= len(RESOURCE_ORDER):
            raise ValueError("num_types must be between 1 and 4")
        chosen = set(RESOURCE_ORDER[:num_types])
    else:
        chosen = {r for r, include in bottlenecks.items() if include}
    names = [
        name for name in DEFAULT_MODELS
        if MODEL_ZOO[name].bottleneck in chosen
    ]
    if not names:
        raise ValueError("no models match the requested bottlenecks")
    return names
