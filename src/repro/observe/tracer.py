"""The tracer: typed events, counters, and nestable timing spans.

Design constraints, in order:

1. **Zero overhead when absent.**  Every instrumentation site in the
   simulator/scheduler stack is guarded by ``if tracer is not None``
   (the default), so the un-traced hot path pays nothing.
2. **Near-zero overhead when disabled.**  A ``Tracer(enabled=False)``
   short-circuits ``emit``/``count`` on the first branch and hands out
   a shared no-op span, so a tracer can be threaded through
   unconditionally and switched off per run.
3. **Bounded memory.**  At most ``max_events`` events are stored;
   overflow increments :attr:`Tracer.dropped_events` instead of
   growing without bound on long simulations.
4. **One channel.**  Other observers (the decision log, the worker
   monitor) attach through :meth:`Tracer.subscribe`, not new parameters.

Wall-clock timestamps come from :func:`time.perf_counter` relative to
the tracer's creation, so spans are comparable across one run.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.observe.events import EventCategory, TraceEvent
from repro.observe.provenance import ProvenanceStore

__all__ = ["Tracer", "Span", "NULL_SPAN", "maybe_span"]


class Span:
    """A wall-clock timing span; use as a context manager.

    Created via :meth:`Tracer.span`.  On exit it records one SPAN event
    whose ``duration`` is the elapsed wall-clock time and whose
    ``depth`` is the nesting level at entry.
    """

    __slots__ = ("_tracer", "name", "sim_time", "args", "_start", "_depth")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        sim_time: float,
        args: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.sim_time = sim_time
        self.args = args
        self._start = 0.0
        self._depth = 0

    def __enter__(self) -> "Span":
        """Start timing; nesting depth is captured here."""
        tracer = self._tracer
        self._depth = tracer._span_depth
        tracer._span_depth += 1
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Stop timing and record the span event."""
        elapsed = time.perf_counter() - self._start
        tracer = self._tracer
        tracer._span_depth -= 1
        tracer._record(
            TraceEvent(
                category=EventCategory.SPAN,
                name=self.name,
                sim_time=self.sim_time,
                wall_time=self._start - tracer._epoch,
                duration=elapsed,
                depth=self._depth,
                args=self.args,
            )
        )


class _NullSpan:
    """Shared no-op span handed out by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        """No-op."""
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """No-op."""


#: The process-wide no-op span (safe to reuse: it has no state).
NULL_SPAN = _NullSpan()


def maybe_span(tracer: Optional["Tracer"], name: str, sim_time: float = 0.0, **args):
    """A span on ``tracer`` when tracing is active, else :data:`NULL_SPAN`.

    The convenience guard for instrumentation sites that hold an
    ``Optional[Tracer]``::

        with maybe_span(self.tracer, "grouping.match", now, bucket=gpus):
            ...
    """
    if tracer is None or not tracer.enabled:
        return NULL_SPAN
    return tracer.span(name, sim_time, **args)


class Tracer:
    """Collects typed events, counters, spans, and decision provenance.

    Args:
        enabled: When False every recording call is a cheap no-op; the
            tracer can still be threaded through the whole stack.
        max_events: Event-storage cap; overflowing events are counted
            in :attr:`dropped_events` instead of stored.
        max_groupings_per_job: Provenance history cap per job (see
            :class:`~repro.observe.provenance.ProvenanceStore`).
    """

    def __init__(
        self,
        enabled: bool = True,
        max_events: int = 1_000_000,
        max_groupings_per_job: int = 32,
    ) -> None:
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.enabled = enabled
        self.max_events = max_events
        self.dropped_events = 0
        #: When False, producers skip the most detailed provenance
        #: (per-job candidate edges) while still filing grouping and
        #: outcome records.  Verification layers turn this off to keep
        #: armed-check overhead low.
        self.candidate_provenance = True
        self.provenance = ProvenanceStore(max_groupings_per_job)
        self._events: List[TraceEvent] = []
        self._counters: Dict[str, int] = {}
        self._event_subscribers: List[Callable[..., None]] = []
        self._inspect_subscribers: List[Callable[..., None]] = []
        self._span_depth = 0
        self._epoch = time.perf_counter()

    # -- subscribers --------------------------------------------------------

    def subscribe(self, subscriber: Any) -> None:
        """Feed ``subscriber`` every later event and check point.

        It defines ``on_event(name, sim_time, args)``,
        ``on_inspect(point, sim_time, state)`` or both, called from
        :meth:`emit` / :meth:`inspect` in subscription order whether or
        not the event is stored (never when disabled).  ``args`` and
        ``state`` are the producer's live dicts: read, do not mutate.
        """
        on_event = getattr(subscriber, "on_event", None)
        on_inspect = getattr(subscriber, "on_inspect", None)
        if on_event is None and on_inspect is None:
            raise TypeError(f"{subscriber!r} has no on_event or on_inspect")
        if on_event is not None:
            self._event_subscribers.append(on_event)
        if on_inspect is not None:
            self._inspect_subscribers.append(on_inspect)

    # -- recording ---------------------------------------------------------

    def emit(
        self,
        category: EventCategory,
        name: str,
        sim_time: float = 0.0,
        **args: Any,
    ) -> None:
        """Record one instant event and feed it to the subscribers
        (no-op when disabled)."""
        if not self.enabled:
            return
        self._record(
            TraceEvent(
                category=category,
                name=name,
                sim_time=sim_time,
                wall_time=time.perf_counter() - self._epoch,
                args=args,
            )
        )
        if self._event_subscribers:
            for notify in self._event_subscribers:
                notify(name, sim_time, args)

    def span(self, name: str, sim_time: float = 0.0, **args: Any):
        """A context manager timing a wall-clock span.

        Returns :data:`NULL_SPAN` when disabled, so the ``with`` block
        costs two no-op calls and nothing is recorded.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, sim_time, args)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump a named counter (cheap enough for per-edge hot paths)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + amount

    def inspect(self, point: str, sim_time: float = 0.0, **state: Any) -> None:
        """Structural hook: expose live objects at a named check point.

        Unlike :meth:`emit`, which records serializable *event* data,
        ``inspect`` hands subclasses the actual in-flight objects
        (proposed :class:`~repro.core.group.JobGroup` plans, the
        cluster) at well-known points of the simulator/scheduler stack.
        The base tracer only feeds the call to its subscribers — it
        exists so verification layers (``repro.verify``) and observers
        such as the worker monitor attach through the same ``tracer=``
        parameter every component already threads, without new
        plumbing.  Call sites guard on ``tracer.enabled`` like any
        other instrumentation.

        Args:
            point: Check-point name (e.g. ``"sim.plan"``,
                ``"sched.order"``, ``"sim.cluster"``,
                ``"sim.timepoint"``).
            sim_time: Simulation time at the check point.
            **state: Live objects the check point exposes.
        """
        if self._inspect_subscribers:
            for notify in self._inspect_subscribers:
                notify(point, sim_time, state)

    def _record(self, event: TraceEvent) -> None:
        if len(self._events) >= self.max_events:
            self.dropped_events += 1
            return
        self._events.append(event)

    # -- queries ----------------------------------------------------------

    @property
    def events(self) -> Tuple[TraceEvent, ...]:
        """Every stored event, in recording order."""
        return tuple(self._events)

    @property
    def counters(self) -> Dict[str, int]:
        """A copy of the counter table."""
        return dict(self._counters)

    def __len__(self) -> int:
        return len(self._events)

    def events_in(self, category: EventCategory) -> List[TraceEvent]:
        """Stored events of one category, in order."""
        return [e for e in self._events if e.category is category]

    def events_named(self, name: str) -> List[TraceEvent]:
        """Stored events with an exact name, in order."""
        return [e for e in self._events if e.name == name]

    def job_events(self, job_id: int) -> List[TraceEvent]:
        """Events whose args reference ``job_id`` (``job`` or ``members``)."""
        out = []
        for event in self._events:
            if event.args.get("job") == job_id:
                out.append(event)
            elif job_id in (event.args.get("members") or ()):
                out.append(event)
        return out

    def clear(self) -> None:
        """Drop all events, counters, spans, and provenance."""
        self._events.clear()
        self._counters.clear()
        self.dropped_events = 0
        self._span_depth = 0
        self.provenance = ProvenanceStore(
            self.provenance.max_groupings_per_job
        )
