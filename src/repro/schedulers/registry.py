"""Scheduler registry: build any evaluated scheduler by name.

:func:`make_scheduler` is the single supported construction path for
schedulers — the CLI, the experiment harness, and the examples all go
through it.  :func:`register_scheduler` adds project-local policies to
the same namespace, and :func:`available_schedulers` lists what can be
built.  :data:`SCHEDULERS` is the plain name -> factory table behind
them.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.observe.tracer import Tracer
from repro.profiler.profiler import ResourceProfiler
from repro.schedulers.antman import AntManScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.classic import (
    FifoScheduler,
    SjfScheduler,
    SrsfScheduler,
    SrtfScheduler,
)
from repro.schedulers.drf import DrfScheduler
from repro.schedulers.packing import TetrisScheduler
from repro.schedulers.themis import ThemisScheduler
from repro.schedulers.tiresias import TiresiasScheduler

__all__ = [
    "make_scheduler",
    "register_scheduler",
    "available_schedulers",
    "SCHEDULERS",
    "KNOWN_DURATION",
    "UNKNOWN_DURATION",
]

def _muri(policy: str) -> Callable[..., Scheduler]:
    def factory(**kwargs) -> Scheduler:
        # Imported lazily: core.muri itself depends on schedulers.base.
        from repro.core.muri import MuriScheduler

        return MuriScheduler(policy=policy, **kwargs)

    return factory


def _elastic_muri(policy: str) -> Callable[..., Scheduler]:
    def factory(**kwargs) -> Scheduler:
        # Imported lazily: repro.elastic depends on core.muri.
        from repro.elastic.scheduler import ElasticMuriScheduler

        return ElasticMuriScheduler(policy=policy, **kwargs)

    return factory


SCHEDULERS: Dict[str, Callable[..., Scheduler]] = {
    "fifo": FifoScheduler,
    "sjf": SjfScheduler,
    "srtf": SrtfScheduler,
    "srsf": SrsfScheduler,
    "tiresias": TiresiasScheduler,
    "tiresias-gittins": lambda: TiresiasScheduler(variant="gittins"),
    "themis": ThemisScheduler,
    "antman": AntManScheduler,
    "tetris": TetrisScheduler,
    "drf": DrfScheduler,
    "muri-s": _muri("srsf"),
    "muri-l": _muri("las2d"),
    "elastic-muri": _elastic_muri("srsf"),
    "elastic-muri-l": _elastic_muri("las2d"),
}

#: Baseline sets per evaluation scenario (Tables 4 and 5).
KNOWN_DURATION = ("srtf", "srsf", "muri-s")
UNKNOWN_DURATION = ("tiresias", "themis", "antman", "muri-l")


def available_schedulers() -> List[str]:
    """Every registry name :func:`make_scheduler` accepts, sorted."""
    return sorted(SCHEDULERS)


def register_scheduler(
    name: str,
    factory: Callable[..., Scheduler],
    replace: bool = False,
) -> None:
    """Add a scheduler factory under ``name`` (case-insensitive).

    Args:
        name: Registry name for :func:`make_scheduler`.
        factory: Callable returning a new scheduler; extra
            ``make_scheduler`` kwargs are forwarded to it, and the
            uniform options (tracer, event_regroup) are applied
            afterwards via ``Scheduler.configure``.
        replace: Allow overwriting an existing registration.

    Raises:
        ValueError: When ``name`` is already registered and ``replace``
            is False.
    """
    key = name.lower()
    if key in SCHEDULERS and not replace:
        raise ValueError(
            f"scheduler {name!r} is already registered; "
            "pass replace=True to overwrite"
        )
    SCHEDULERS[key] = factory


def make_scheduler(
    name: str,
    profiler: Optional[ResourceProfiler] = None,
    tracer: Optional[Tracer] = None,
    event_regroup: Optional[bool] = None,
    **kwargs,
) -> Scheduler:
    """Instantiate a scheduler by registry name.

    The single supported construction path: every built-in policy and
    anything added via :func:`register_scheduler` is available here.
    Every name — built-in or registered — is built the same way: the
    factory receives the constructor ``kwargs``, then
    :meth:`~repro.schedulers.base.Scheduler.configure` applies the
    uniform options (``tracer``, ``event_regroup``).  The fleet shard
    factory (:func:`repro.fleet.make_shard`) shares this
    exact keyword signature.

    Args:
        name: One of :func:`available_schedulers` (case-insensitive).
        profiler: Optional profiler, honoured by the Muri variants
            (forwarded to their factory when given).
        tracer: Optional :class:`~repro.observe.Tracer`; applied via
            ``configure`` so registered policies can be traced or
            invariant-checked without a custom factory.
        event_regroup: Run the full decision pass on arrival and
            completion events; ignored by policies without incremental
            state (see ``Scheduler.configure``).
        **kwargs: Extra constructor arguments for Muri variants
            (``max_group_size``, ``matcher``, ``ordering``...).

    Raises:
        KeyError: For unknown names.
    """
    key = name.lower()
    if key not in SCHEDULERS:
        raise KeyError(
            f"unknown scheduler {name!r}; available: "
            f"{', '.join(available_schedulers())}"
        )
    factory = SCHEDULERS[key]
    if profiler is not None:
        kwargs["profiler"] = profiler
    scheduler = factory(**kwargs) if kwargs else factory()  # type: ignore[call-arg]
    return scheduler.configure(tracer=tracer, event_regroup=event_regroup)
