"""Declarative run cells and their results.

A sweep is a set of independent *cells* — one simulation each.  A
:class:`RunSpec` describes a cell declaratively (trace, scheduler,
seed, cluster shape, options) so it can be hashed into a stable run
id, shipped to a worker process, and re-executed bit-identically on
any machine.  A :class:`RunResult` pairs the spec with the outcome:
either a serialized :class:`~repro.sim.metrics.SimulationResult`
payload or an error description.

Run ids are the backbone of resumability and sharding: they are the
first 12 hex digits of the SHA-256 of the spec's canonical JSON, so
the same cell always gets the same id, on every machine, in every
process.  ``shard k/n`` selects the cells whose id hashes into
bucket ``k`` — independent machines can partition a sweep with no
coordination beyond agreeing on ``n``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.sim.metrics import SimulationResult, check_fields

__all__ = ["RunSpec", "RunResult", "canonical_json", "parse_shard", "in_shard"]


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, no NaN."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def _as_option_items(value: Union[Mapping, Tuple, None]) -> Tuple:
    """Normalize an options mapping to a sorted tuple of pairs."""
    if value is None:
        return ()
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = tuple(value)
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class RunSpec:
    """One sweep cell: everything needed to reproduce one simulation.

    Every field is plain JSON-compatible data on purpose — the spec is
    pickled to worker processes, hashed into the run id, and stored
    next to its result, so it must never hold live objects.

    Attributes:
        experiment: Artifact the cell belongs to (e.g. ``"fig9"``);
            part of the run id so different experiments never collide.
        label: Presentation label used by the aggregation step (e.g.
            ``"Muri-S"`` or ``"noise=0.4"``).
        scheduler: Scheduler registry name for
            :func:`~repro.schedulers.registry.make_scheduler`.
        trace_id: Synthetic trace id (``"1"``..``"4"``, primed forms).
        seed: Seed for both trace generation and model assignment.
        num_jobs: Trace size; None means paper scale.
        at_time_zero: Force the all-at-zero (primed) trace variant.
        busiest_interval: When set, restrict the workload to the
            busiest window of this many jobs (the testbed construction).
        models: Optional explicit model pool for
            :func:`~repro.trace.workload.build_jobs`.
        noise_level: When set, profile stage durations through a
            :class:`~repro.profiler.noise.UniformNoise` of this level
            (Fig. 14); the profiler is seeded with ``seed``.
        machines: Cluster machine count.
        gpus_per_machine: GPUs per machine.
        scheduler_options: Extra ``make_scheduler`` keyword arguments,
            stored as a sorted tuple of pairs (a mapping is accepted
            and normalized).
        sim_options: Extra :class:`~repro.sim.simulator.ClusterSimulator`
            keyword arguments, normalized like ``scheduler_options``.
        elastic_fraction: When set, pass the built workload through
            :func:`repro.elastic.attach_scalability` with this
            fraction (seeded with ``seed``), making that share of the
            jobs elastic.  None (the default) leaves the workload
            rigid — and is omitted from :meth:`to_dict`, so every
            pre-elastic run id is unchanged.
        replay_batch_step: When set, execute through
            :func:`repro.replay.replay_trace` with this
            ``batch_step_seconds`` instead of ``simulator.run()``
            (``0.0`` is the bit-identical continuous mode, so it is a
            meaningful value and only None means "not a replay
            cell").  Omitted from :meth:`to_dict` when None, so every
            pre-replay run id is unchanged.
        hetero_types: When set, run on a seeded mixed-generation
            cluster (:func:`repro.hetero.make_hetero_cluster` over
            these names) with the workload pinned/preferred onto the
            same mix via :func:`repro.hetero.pin_jobs`, and with
            landing-speed scaling active.  None (the default) keeps
            the homogeneous cluster — and is omitted from
            :meth:`to_dict`, so every pre-hetero run id is unchanged.
        prefer_fraction: Share of jobs carrying a soft (``prefer``)
            affinity instead of a hard pin; only meaningful with
            ``hetero_types``.  Omitted from :meth:`to_dict` when None.
        placement: Placement-policy override: ``"aware"`` selects the
            Gavel-style
            :class:`~repro.cluster.placement.ThroughputAwarePlacer`;
            None keeps the default descending best-fit.  Omitted from
            :meth:`to_dict` when None.
        trace_path: When set, ingest this Philly CSV file
            (:func:`repro.trace.load_philly_csv`) as the workload
            trace instead of a synthetic ``trace_id`` preset — the
            end-to-end path of the hetero sweep cell.  Omitted from
            :meth:`to_dict` when None; note a path makes the run id
            machine-layout dependent, so such cells never join the
            committed ``"all"`` grid.
    """

    experiment: str
    label: str
    scheduler: str
    trace_id: str
    seed: int
    num_jobs: Optional[int] = None
    at_time_zero: bool = False
    busiest_interval: Optional[int] = None
    models: Optional[Tuple[str, ...]] = None
    noise_level: Optional[float] = None
    machines: int = 8
    gpus_per_machine: int = 8
    scheduler_options: Tuple = ()
    sim_options: Tuple = ()
    elastic_fraction: Optional[float] = None
    replay_batch_step: Optional[float] = None
    hetero_types: Optional[Tuple[str, ...]] = None
    prefer_fraction: Optional[float] = None
    placement: Optional[str] = None
    trace_path: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "scheduler_options", _as_option_items(self.scheduler_options)
        )
        object.__setattr__(
            self, "sim_options", _as_option_items(self.sim_options)
        )
        if self.models is not None:
            object.__setattr__(self, "models", tuple(self.models))
        if self.hetero_types is not None:
            object.__setattr__(self, "hetero_types", tuple(self.hetero_types))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (options become objects)."""
        payload: Dict[str, Any] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name in ("scheduler_options", "sim_options"):
                value = dict(value)
            elif (
                spec_field.name in ("models", "hetero_types")
                and value is not None
            ):
                value = list(value)
            elif (
                spec_field.name in (
                    "elastic_fraction", "replay_batch_step",
                    "hetero_types", "prefer_fraction", "placement",
                    "trace_path",
                )
                and value is None
            ):
                # Omitted when unset so every pre-elastic / pre-replay
                # / pre-hetero run id (and therefore every committed
                # baseline) stays stable.
                continue
            payload[spec_field.name] = value
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Raises:
            ValueError: On a non-object payload, or a missing or
                mistyped identity field (named).
        """
        check_fields(payload, "RunSpec", {
            "experiment": str, "label": str, "scheduler": str,
            "trace_id": str, "seed": int,
        })
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        return cls(**kwargs)

    @property
    def run_id(self) -> str:
        """Stable cell id: 12 hex digits of the spec's SHA-256."""
        digest = hashlib.sha256(
            canonical_json(self.to_dict()).encode("utf-8")
        )
        return digest.hexdigest()[:12]


def parse_shard(shard: Union[str, Tuple[int, int], None]) -> Optional[Tuple[int, int]]:
    """Normalize a shard selector to a 0-based ``(index, count)`` pair.

    Accepts the CLI's 1-based ``"k/n"`` string, an already-normalized
    ``(index, count)`` tuple, or None (no sharding).

    Raises:
        ValueError: On malformed strings or out-of-range indices.
    """
    if shard is None:
        return None
    if isinstance(shard, str):
        try:
            k_text, n_text = shard.split("/", 1)
            k, n = int(k_text), int(n_text)
        except ValueError:
            raise ValueError(
                f"shard must look like 'k/n' (e.g. '1/3'), got {shard!r}"
            ) from None
        index, count = k - 1, n
    else:
        index, count = shard
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [1, {max(count, 1)}], got {index + 1}/{count}"
        )
    return index, count


def in_shard(run_id: str, shard: Optional[Tuple[int, int]]) -> bool:
    """Deterministic shard membership by run-id hash.

    Cells are assigned to buckets by ``int(run_id, 16) % count`` —
    every machine computes the same partition from nothing but the
    spec, so shards are disjoint and jointly exhaustive.
    """
    if shard is None:
        return True
    index, count = shard
    return int(run_id, 16) % count == index


@dataclass
class RunResult:
    """The outcome of one cell.

    Attributes:
        run_id: The cell's stable id.
        spec: The cell's spec; None for prebuilt (non-declarative)
            runs submitted via
            :meth:`~repro.sweep.runner.SweepRunner.run_prebuilt`.
        status: ``"ok"`` or ``"error"``.
        result: Serialized :class:`SimulationResult` payload
            (``to_dict`` form) on success, else None.
        error: Failure description on error, else None.
        attempts: Execution attempts consumed (1 = first try worked).
        wall_clock: Wall-clock seconds of the successful (or final)
            attempt, measured inside the worker.
        resumed: True when the result was loaded from a store instead
            of executed in this process.
    """

    run_id: str
    spec: Optional[RunSpec]
    status: str
    result: Optional[Dict] = None
    error: Optional[str] = None
    attempts: int = 1
    wall_clock: float = 0.0
    resumed: bool = field(default=False, compare=False)

    @property
    def ok(self) -> bool:
        """True when the run completed and carries a result payload."""
        return self.status == "ok"

    def simulation_result(self) -> SimulationResult:
        """Deserialize the payload into a :class:`SimulationResult`.

        Raises:
            ValueError: When the run failed (no payload to decode).
        """
        if not self.ok or self.result is None:
            raise ValueError(
                f"run {self.run_id} has no result (status={self.status!r}, "
                f"error={self.error!r})"
            )
        return SimulationResult.from_dict(self.result)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation for the JSONL store."""
        return {
            "run_id": self.run_id,
            "spec": None if self.spec is None else self.spec.to_dict(),
            "status": self.status,
            "result": self.result,
            "error": self.error,
            "attempts": self.attempts,
            "wall_clock": self.wall_clock,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "RunResult":
        """Rebuild a result from :meth:`to_dict` output.

        Raises:
            ValueError: On a non-object payload, or a missing or
                mistyped field (named).
        """
        nullable = type(None)
        check_fields(payload, "RunResult", {"run_id": str, "status": str}, {
            "spec": (dict, nullable), "result": (dict, nullable),
            "error": (str, nullable), "attempts": int,
            "wall_clock": (int, float),
        })
        spec_payload = payload.get("spec")
        return cls(
            run_id=payload["run_id"],
            spec=None if spec_payload is None else RunSpec.from_dict(spec_payload),
            status=payload["status"],
            result=payload.get("result"),
            error=payload.get("error"),
            attempts=payload.get("attempts", 1),
            wall_clock=payload.get("wall_clock", 0.0),
        )
