"""Spans around the program's layer boundaries, for traced repeats only.

The benchmark does not instrument the program's source.  A traced
repeat replaces the public callables at each layer boundary (listed in
:data:`BOUNDARIES`) with timing wrappers installed from this file, and
:func:`installed` puts every original back afterwards.  Untraced
repeats never import this module.

A span records its name, start, end, parent span and request id.  A
layer's *self time* is its spans' durations minus the part of each
interval that child spans cover, so the self times of every span
under the root add up to the root's wall time; the root's own self
time is the unattributed remainder.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Span around one whole repeat (set-up and drive); its self time is
#: the time no boundary accounts for.
ROOT = "workload"

#: Spans that start a request: every span below one carries its id.
REQUEST_ROOTS = frozenset({"sim.step", "service.dispatch"})

#: ``tally(args, kwargs, result)`` returns counter increments for one call.
Tally = Callable[[tuple, dict, object], Dict[str, float]]


@dataclass(frozen=True)
class Boundary:
    """One public callable wrapped in traced repeats.

    Attributes:
        layer: Span name; several boundaries may share one layer.
        module: Module holding the callable, or the class or dict
            that holds it.
        path: ``"name"``, ``"Class.name"`` or ``"table[key]"`` inside
            ``module``.  Functions another module imported by name are
            wrapped in the importing module, where the caller looks
            them up.
        tally: Optional per-call counters, credited to
            ``"<layer>.<key>"`` on outermost calls only.
    """

    layer: str
    module: str
    path: str
    tally: Optional[Tally] = None


def _count_arg(position: int, key: str) -> Tally:
    return lambda args, kwargs, result: {key: len(args[position])}


def _placed(args, kwargs, result) -> Dict[str, float]:
    return {"placed": 0.0 if result is None else 1.0}


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("trace.generate", "repro.trace.philly", "generate_trace"),
    Boundary("trace.generate", "repro.replay", "synthetic_trace"),
    Boundary("trace.write_csv", "repro.trace.philly_csv", "write_philly_csv"),
    Boundary("trace.ingest", "repro.trace.philly_csv", "load_philly_csv"),
    Boundary("trace.build_jobs", "repro.trace.workload", "build_jobs"),
    Boundary("replay", "repro.replay", "replay_trace"),
    Boundary("sim.step", "repro.sim.simulator", "ClusterSimulator.step"),
    Boundary(
        "sim.next_event_time", "repro.sim.simulator",
        "ClusterSimulator.next_event_time",
    ),
    Boundary("sim.period_model", "repro.sim.simulator", "group_iteration_time"),
    Boundary("sim.inject", "repro.sim.simulator", "ClusterSimulator.inject"),
    Boundary("sim.finalize", "repro.sim.simulator", "ClusterSimulator.finalize"),
    Boundary("sched.decide", "repro.core.muri", "MuriScheduler.decide"),
    Boundary(
        "grouping.group", "repro.core.grouping", "MultiRoundGrouper.group",
        _count_arg(1, "jobs"),
    ),
    Boundary("matching.sparsify", "repro.core.grouping", "sparse_candidate_edges"),
    Boundary(
        "matching.blossom", "repro.core.grouping", "matching_pairs",
        _count_arg(0, "edges"),
    ),
    Boundary(
        "ordering.batched", "repro.core.grouping", "batched_best_periods",
        _count_arg(0, "groups"),
    ),
    Boundary("ordering.best", "repro.core.grouping", "_ORDERING_FNS[best]"),
    Boundary(
        "elastic.renegotiate", "repro.elastic.scheduler",
        "ElasticMuriScheduler.renegotiate",
    ),
    Boundary("elastic.resize", "repro.core.muri", "MuriScheduler.notify_resize"),
    Boundary(
        "placement.plan", "repro.cluster.placement",
        "DescendingPlacer.plan_for_model", _placed,
    ),
    Boundary(
        "placement.plan", "repro.cluster.placement",
        "ThroughputAwarePlacer.plan_for_model", _placed,
    ),
    Boundary("service.dispatch", "repro.service.server", "ServiceServer.dispatch"),
    Boundary("protocol.codec", "repro.service.protocol", "encode_line"),
    Boundary("protocol.codec", "repro.service.protocol", "decode_line"),
    Boundary("protocol.codec", "repro.service.server", "request_from_wire"),
)


class SpanRecorder:
    """Spans of one traced repeat, kept in flat arrays until the end."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.request = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its id."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.name_id)
        parent = self._stack[-1] if self._stack else -1
        if name in REQUEST_ROOTS:
            request = span
        else:
            request = self.request[parent] if parent >= 0 else -1
        self.name_id.append(name_id)
        self.parent.append(parent)
        self.request.append(request)
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(time.perf_counter())
        return span

    def close(self, span: int) -> None:
        """End the innermost open span."""
        self.end[span] = time.perf_counter()
        self._stack.pop()

    def reentered(self, span: int) -> bool:
        """True when the span's parent belongs to the same layer."""
        parent = self.parent[span]
        return parent >= 0 and self.name_id[parent] == self.name_id[span]

    def tally(self, layer: str, increments: Dict[str, float]) -> None:
        """Add per-call counter increments under ``layer``."""
        for key, value in increments.items():
            name = f"{layer}.{key}"
            self.counters[name] = self.counters.get(name, 0.0) + value

    def span_name(self, span: int) -> str:
        return self.names[self.name_id[span]]

    def __len__(self) -> int:
        return len(self.name_id)


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current: Optional[List[float]] = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current is None or start > current[1]:
            if current is not None:
                total += current[1] - current[0]
            current = [start, end]
        else:
            current[1] = max(current[1], end)
    if current is not None:
        total += current[1] - current[0]
    return total


def self_times(
    start: Sequence[float], end: Sequence[float], parent: Sequence[int]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so a child that
    outlives its parent cannot drive the parent's self time negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span, owner in enumerate(parent):
        if owner >= 0:
            children.setdefault(owner, []).append(
                (max(start[span], start[owner]), min(end[span], end[owner]))
            )
    result = [end[span] - start[span] for span in range(len(start))]
    for owner, intervals in children.items():
        result[owner] -= union_length(intervals)
    return result


def _resolve(boundary: Boundary):
    """``(owner, key, is_item)`` for one boundary's callable."""
    owner = importlib.import_module(boundary.module)
    path = boundary.path
    if path.endswith("]"):
        table, key = path[:-1].split("[", 1)
        return getattr(owner, table), key, True
    *scopes, key = path.split(".")
    for scope in scopes:
        owner = getattr(owner, scope)
    return owner, key, False


def _wrap(recorder: SpanRecorder, boundary: Boundary, function: Callable) -> Callable:
    layer, tally = boundary.layer, boundary.tally
    open_span, close_span = recorder.open, recorder.close

    if tally is None:
        def traced(*args, **kwargs):
            span = open_span(layer)
            try:
                return function(*args, **kwargs)
            finally:
                close_span(span)
    else:
        def traced(*args, **kwargs):
            span = open_span(layer)
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(span)
            if not recorder.reentered(span):
                recorder.tally(layer, tally(args, kwargs, result))
            return result

    return functools.wraps(function)(traced)


@contextmanager
def installed(
    recorder: SpanRecorder, boundaries: Sequence[Boundary] = BOUNDARIES
) -> Iterator[List[str]]:
    """Wrap every boundary for the duration of the ``with`` block.

    Yields the boundaries that could not be found, as printable
    strings; their time falls into the enclosing span's self time.
    Every wrapped attribute is restored on exit, exceptions included,
    and the restore is checked.
    """
    missing: List[str] = []
    patched = []
    try:
        for boundary in boundaries:
            try:
                owner, key, is_item = _resolve(boundary)
                if is_item:
                    original = owner[key]
                    own = True
                else:
                    original = getattr(owner, key)
                    own = not isinstance(owner, type) or key in vars(owner)
            except (ImportError, AttributeError, KeyError, ValueError):
                missing.append(f"{boundary.layer} ({boundary.module}:{boundary.path})")
                continue
            if not callable(original):
                missing.append(f"{boundary.layer} ({boundary.module}:{boundary.path})")
                continue
            wrapper = _wrap(recorder, boundary, original)
            if is_item:
                owner[key] = wrapper
            else:
                setattr(owner, key, wrapper)
            patched.append((owner, key, is_item, original, own))
        yield missing
    finally:
        for owner, key, is_item, original, own in reversed(patched):
            if is_item:
                owner[key] = original
            elif own:
                setattr(owner, key, original)
            else:
                delattr(owner, key)
        for owner, key, is_item, original, _own in patched:
            current = owner[key] if is_item else getattr(owner, key)
            if current is not original:
                raise RuntimeError(f"boundary {owner!r}.{key} was not restored")


@dataclass
class LayerRow:
    """One row of the per-layer table.

    ``calls`` counts outermost calls (a layer re-entering itself is one
    call); ``p50_ms``/``p99_ms`` are inclusive durations of those calls.
    """

    layer: str
    calls: int
    self_s: float
    p50_ms: float
    p99_ms: float


def layer_table(recorder: SpanRecorder) -> Tuple[List[LayerRow], float]:
    """Per-layer rows, the root included, and the root's wall time."""
    from repro.sim.metrics import percentile

    selfs = self_times(recorder.start, recorder.end, recorder.parent)
    self_by_layer: Dict[str, float] = {}
    durations: Dict[str, List[float]] = {}
    for span in range(len(recorder)):
        name = recorder.span_name(span)
        self_by_layer[name] = self_by_layer.get(name, 0.0) + selfs[span]
        if not recorder.reentered(span):
            durations.setdefault(name, []).append(
                recorder.end[span] - recorder.start[span]
            )
    rows = []
    for name, total in self_by_layer.items():
        samples = sorted(durations.get(name, [0.0]))
        rows.append(LayerRow(
            layer=name,
            calls=len(durations.get(name, ())),
            self_s=total,
            p50_ms=percentile(samples, 50, presorted=True) * 1e3,
            p99_ms=percentile(samples, 99, presorted=True) * 1e3,
        ))
    rows.sort(key=lambda row: -row.self_s)
    wall = sum(durations.get(ROOT, []))
    return rows, wall


#: Layers whose outermost-call counts and self times are metrics.
_COUNTED = (
    "sim.step", "sim.next_event_time", "sim.period_model", "sched.decide",
    "grouping.group", "matching.blossom", "matching.sparsify", "ordering.best",
    "placement.plan", "elastic.renegotiate", "service.dispatch",
)
_TIMED = (
    "replay", "sim.step", "sim.next_event_time", "sim.period_model",
    "sim.inject", "sim.finalize", "sched.decide", "grouping.group",
    "matching.blossom", "matching.sparsify", "ordering.batched", "ordering.best",
    "placement.plan", "elastic.renegotiate", "trace.ingest", "trace.build_jobs",
    "service.dispatch", "protocol.codec",
)


def layer_metrics(
    rows: Sequence[LayerRow], counters: Dict[str, float], wall: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced repeat, by benchmark name."""
    by_layer = {row.layer: row for row in rows}

    def row(name: str) -> LayerRow:
        return by_layer.get(name) or LayerRow(name, 0, 0.0, 0.0, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: Dict[str, float] = {}
    for layer in _COUNTED:
        metrics[f"{layer}.calls"] = row(layer).calls
    for layer in _TIMED:
        metrics[f"{layer}.self_s"] = row(layer).self_s
    for layer in ("sim.step", "sched.decide", "grouping.group"):
        metrics[f"{layer}.p99_ms"] = row(layer).p99_ms
    metrics["sim.step.p50_ms"] = row("sim.step").p50_ms
    decide_calls, group_calls = row("sched.decide").calls, row("grouping.group").calls
    metrics["sched.plan_memo.hit_ratio"] = (
        1.0 - group_calls / decide_calls if decide_calls else 0.0
    )
    metrics["grouping.batch_jobs.mean"] = ratio(
        counters.get("grouping.group.jobs", 0.0), group_calls
    )
    metrics["matching.blossom.edges"] = counters.get("matching.blossom.edges", 0.0)
    metrics["matching.blossom_per_group"] = ratio(
        row("matching.blossom").calls, group_calls
    )
    metrics["ordering.batched.groups"] = counters.get("ordering.batched.groups", 0.0)
    metrics["placement.placed_ratio"] = ratio(
        counters.get("placement.plan.placed", 0.0), row("placement.plan").calls
    )
    metrics["elastic.resizes"] = row("elastic.resize").calls
    metrics["unattributed_frac"] = ratio(row(ROOT).self_s, wall)
    return metrics


def write_spans(recorder: SpanRecorder, path) -> None:
    """Write every span as gzipped CSV, times relative to the first."""
    origin = recorder.start[0] if len(recorder) else 0.0
    with gzip.open(path, "wt", newline="", compresslevel=1) as handle:
        writer = csv.writer(handle)
        writer.writerow(("span", "name", "start_s", "end_s", "parent", "request"))
        for span in range(len(recorder)):
            writer.writerow((
                span,
                recorder.span_name(span),
                f"{recorder.start[span] - origin:.9f}",
                f"{recorder.end[span] - origin:.9f}",
                recorder.parent[span],
                recorder.request[span],
            ))
