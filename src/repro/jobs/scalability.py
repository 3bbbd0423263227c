"""Per-GPU-count scalability profiles for elastic jobs.

A :class:`ScalabilityProfile` is the goodput curve of one job: for
every GPU count the job can run at, the per-iteration stage durations
of one worker at that count.  It is the information an elastic
scheduler (Pollux-style goodput-adaptive reallocation, arXiv
2008.12260) needs to trade GPUs between jobs at each scheduling
interval — see ``repro.elastic`` and ``docs/elastic.md``.

The default is *flat*: a job without a scalability profile (or with a
single-point one) supports exactly its requested GPU count, so
renegotiation can never change it and every existing workload behaves
bit-identically under the elastic arm.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.jobs.stage import StageProfile

__all__ = ["ScalabilityProfile"]

#: How to build a point not built yet: a source profile and the factors
#: to scale it by, in order.
_Recipe = Tuple[StageProfile, Tuple[float, ...]]


def _checked_factor(factor: float) -> float:
    """``factor`` when it is a positive finite number, else ValueError."""
    if not 0 < factor < inf:
        raise ValueError(f"scale factor must be finite and > 0, got {factor}")
    return factor


def _checked_counts(counts: List[int]) -> Tuple[int, ...]:
    """The GPU counts ascending; ValueError unless positive and unique."""
    if not counts:
        raise ValueError("a scalability profile needs at least one point")
    counts.sort()
    if counts[0] < 1:
        raise ValueError(f"GPU counts must be >= 1, got {counts}")
    if len(set(counts)) != len(counts):
        raise ValueError(f"duplicate GPU counts in {counts}")
    return tuple(counts)


class ScalabilityProfile:
    """A job's stage profiles per supported GPU count (goodput curve).

    A scheduler reads only the points a job runs at, so a point derived
    from another (:meth:`from_speedups`, :meth:`scaled`) is kept as a
    recipe — a source profile and the factors to scale it by — and
    built on first read.  Its durations are exactly those of
    ``source.scaled(f1).scaled(f2)...``: the factors are applied one by
    one, never pre-multiplied, and the result is a fully validated
    :class:`~repro.jobs.stage.StageProfile`.  Factors are checked when
    the recipe is made, so a derived point can only fail validation
    when scaling overflows its durations to infinity or underflows
    them all to zero; such a point raises ``ValueError`` on first read
    instead of at construction.

    Equality, hashing, ``repr`` and pickling go by value: they build
    every point first.

    Args:
        points: ``(gpu_count, profile)`` pairs, one per supported GPU
            count.  Counts must be positive and unique, and every
            profile must span the same number of resources.
    """

    __slots__ = ("_counts", "_built", "_recipes")

    def __init__(self, points: Iterable[Tuple[int, StageProfile]]) -> None:
        pairs = [(int(gpus), profile) for gpus, profile in points]
        counts = _checked_counts([gpus for gpus, _ in pairs])
        widths = {profile.num_resources for _, profile in pairs}
        if len(widths) != 1:
            raise ValueError(
                f"profiles mix resource counts {sorted(widths)}"
            )
        self._counts = counts
        self._built: Dict[int, StageProfile] = dict(pairs)
        self._recipes: Dict[int, _Recipe] = {}

    @classmethod
    def _derived(
        cls,
        counts: Tuple[int, ...],
        built: Dict[int, StageProfile],
        recipes: Dict[int, _Recipe],
    ) -> "ScalabilityProfile":
        """A curve from already-checked parts, skipping validation.

        ``counts`` must be :func:`_checked_counts` output, split
        between ``built`` and ``recipes``, and every profile must span
        the same resources.
        """
        curve = cls.__new__(cls)
        curve._counts = counts
        curve._built = built
        curve._recipes = recipes
        return curve

    # -- value semantics ---------------------------------------------------

    @property
    def points(self) -> Tuple[Tuple[int, StageProfile], ...]:
        """``(gpu_count, profile)`` pairs in ascending GPU count."""
        return tuple((gpus, self.profile_for(gpus)) for gpus in self._counts)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.points == other.points  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.points,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(points={self.points!r})"

    def __reduce__(self):
        return (self.__class__, (self.points,))

    # -- constructors ------------------------------------------------------

    @classmethod
    def flat(cls, num_gpus: int, profile: StageProfile) -> "ScalabilityProfile":
        """The degenerate single-point curve: one supported GPU count.

        A flat profile can never be resized, so a job carrying one is
        indistinguishable from a job with no scalability profile at
        all — the degeneracy guarantee of the elastic arm rests on it.
        """
        return cls(((num_gpus, profile),))

    @classmethod
    def from_mapping(
        cls, profiles: Mapping[int, StageProfile]
    ) -> "ScalabilityProfile":
        """Build from a ``{gpu_count: profile}`` mapping."""
        return cls(tuple(profiles.items()))

    @classmethod
    def from_speedups(
        cls,
        base_gpus: int,
        base_profile: StageProfile,
        speedups: Mapping[int, float],
    ) -> "ScalabilityProfile":
        """Build a curve from per-count speedups relative to a base.

        A speedup of ``s`` at count ``g`` means one iteration at ``g``
        GPUs takes ``1/s`` of the base iteration time; every stage is
        scaled proportionally (``base_profile.scaled(1 / s)``, built on
        first read).  The base count itself is always included
        (speedup 1); sub-linear curves (``s < g / base``) model the
        synchronization overhead that makes blind scale-out
        unprofitable.

        Raises:
            ValueError: On non-positive speedups, or a speedup whose
                reciprocal is not a positive finite factor.
        """
        base = int(base_gpus)
        recipes: Dict[int, _Recipe] = {}
        for gpus, speedup in speedups.items():
            if not speedup > 0:
                raise ValueError(
                    f"speedup at {gpus} GPUs must be > 0, got {speedup}"
                )
            if int(gpus) == base:
                continue
            recipes[int(gpus)] = (
                base_profile, (_checked_factor(1.0 / speedup),)
            )
        return cls._derived(
            _checked_counts([base, *recipes]), {base: base_profile}, recipes
        )

    # -- transforms --------------------------------------------------------

    def scaled(self, factor: float) -> "ScalabilityProfile":
        """This curve with every point's durations multiplied by ``factor``.

        Point by point the result equals ``profile.scaled(factor)``; no
        point is built until it is read.

        Raises:
            ValueError: When ``factor`` is not positive and finite.
        """
        factor = _checked_factor(factor)
        recipes: Dict[int, _Recipe] = {
            gpus: (profile, (factor,)) for gpus, profile in self._built.items()
        }
        for gpus, (source, factors) in self._recipes.items():
            recipes[gpus] = (source, factors + (factor,))
        return self._derived(self._counts, {}, recipes)

    # -- accessors ---------------------------------------------------------

    @property
    def gpu_counts(self) -> Tuple[int, ...]:
        """Supported GPU counts, ascending."""
        return self._counts

    @property
    def min_gpus(self) -> int:
        """Smallest supported GPU count."""
        return self._counts[0]

    @property
    def max_gpus(self) -> int:
        """Largest supported GPU count."""
        return self._counts[-1]

    @property
    def is_flat(self) -> bool:
        """True when only one GPU count is supported (never resizable)."""
        return len(self._counts) == 1

    def supports(self, num_gpus: int) -> bool:
        """Whether the job can run at ``num_gpus`` GPUs."""
        return num_gpus in self._built or num_gpus in self._recipes

    def profile_for(self, num_gpus: int) -> StageProfile:
        """The stage profile at ``num_gpus`` GPUs, built on first read.

        Raises:
            ValueError: For unsupported counts, or when building the
                point overflows or underflows its durations.
        """
        try:
            return self._built[num_gpus]
        except KeyError:
            return self._build(num_gpus)

    def _build(self, num_gpus: int) -> StageProfile:
        """Build, validate and cache the point at ``num_gpus``."""
        try:
            source, factors = self._recipes[num_gpus]
        except KeyError:
            raise ValueError(
                f"unsupported GPU count {num_gpus}; profile supports "
                f"{list(self._counts)}"
            ) from None
        durations = source.durations
        for factor in factors:
            durations = tuple(d * factor for d in durations)
        profile = StageProfile(durations)
        self._built[num_gpus] = profile
        del self._recipes[num_gpus]
        return profile

    def iteration_time(self, num_gpus: int) -> float:
        """Solo per-iteration time at ``num_gpus`` GPUs."""
        return self.profile_for(num_gpus).iteration_time

    def throughput(self, num_gpus: int) -> float:
        """Iterations per second at ``num_gpus`` GPUs (the goodput)."""
        return 1.0 / self.iteration_time(num_gpus)

    def speedup(self, num_gpus: int) -> float:
        """Throughput at ``num_gpus`` relative to the smallest count."""
        return self.iteration_time(self.min_gpus) / self.iteration_time(num_gpus)

    def next_step(self, num_gpus: int) -> Optional[int]:
        """The next supported count above ``num_gpus``, or None."""
        for gpus in self.gpu_counts:
            if gpus > num_gpus:
                return gpus
        return None

    def prev_step(self, num_gpus: int) -> Optional[int]:
        """The next supported count below ``num_gpus``, or None."""
        for gpus in reversed(self.gpu_counts):
            if gpus < num_gpus:
                return gpus
        return None

    def counts_up_to(self, limit: int) -> Tuple[int, ...]:
        """Supported counts not exceeding ``limit``, ascending."""
        return tuple(gpus for gpus in self.gpu_counts if gpus <= limit)
