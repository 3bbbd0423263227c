#!/usr/bin/env python
"""Whole-result fingerprint: pin every simulated number exactly.

Runs a fixed grid of deterministic cells and hashes each result's
``SimulationResult.to_dict()`` one top-level field at a time
(``wall_clock`` is host timing and dropped; floats are written as
``float.hex`` so the digest sees every bit).  The committed digests
live in ``tests/data/fingerprint.json``; a change that is meant to
leave every schedule alone must leave that file alone too.

The cells are the 14 registry schedulers x synthetic traces 1-4
(200 jobs, seed 0, ``Cluster(8, 8)``) plus one cell per arm the grid
does not reach: replay at B=300 s (Muri-S and SRSF), a service drain,
a 2-shard fleet, a k80+a100 cluster with throughput-aware placement,
``elastic-muri`` with Amdahl curves, and fault-injected Muri-S.

Usage::

    PYTHONPATH=src python tools/fingerprint.py --check
    PYTHONPATH=src python tools/fingerprint.py --update

``--check`` exits 1 when any cell differs and names each differing
cell with its first differing field; ``--update`` rewrites the file.
A change that moves numbers on purpose updates the file in the same
commit and lists the moved cells in its changelog.

Exit codes: 0 clean, 1 mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cluster.cluster import Cluster  # noqa: E402
from repro.schedulers.registry import make_scheduler  # noqa: E402
from repro.sim.faults import FaultInjector  # noqa: E402
from repro.sim.metrics import SimulationResult  # noqa: E402
from repro.sim.simulator import ClusterSimulator  # noqa: E402
from repro.sweep.execute import execute_run  # noqa: E402
from repro.sweep.spec import RunSpec  # noqa: E402
from repro.trace.philly import generate_trace  # noqa: E402
from repro.trace.workload import build_jobs  # noqa: E402

FINGERPRINT_PATH = REPO_ROOT / "tests" / "data" / "fingerprint.json"

#: The registry schedulers of the grid, listed here rather than read
#: from the registry so a project-local registration never changes
#: the committed cell set.
GRID_SCHEDULERS = (
    "antman", "drf", "elastic-muri", "elastic-muri-l", "fifo", "muri-l",
    "muri-s", "sjf", "srsf", "srtf", "tetris", "themis", "tiresias",
    "tiresias-gittins",
)
GRID_TRACES = ("1", "2", "3", "4")
NUM_JOBS = 200
SEED = 0


def _spec(label: str, scheduler: str, trace_id: str = "1", **fields) -> RunSpec:
    return RunSpec(
        experiment="fingerprint", label=label, scheduler=scheduler,
        trace_id=trace_id, seed=SEED, num_jobs=NUM_JOBS, **fields,
    )


def _workload(capacity: int = 64):
    trace = generate_trace("1", num_jobs=NUM_JOBS, seed=SEED)
    specs = [s for s in build_jobs(trace, seed=SEED) if s.num_gpus <= capacity]
    return trace.name, specs


def _service_drain() -> SimulationResult:
    """Muri-S behind the online daemon, event-driven, drained at once."""
    from repro.service import SchedulerService

    simulator = ClusterSimulator(
        make_scheduler("muri-s", event_regroup=True),
        cluster=Cluster(8, 8),
        reschedule_on_arrival=True,
        arrival_reason="arrival",
        backfill_on_completion=True,
    )
    trace_name, specs = _workload()
    service = SchedulerService(simulator, trace_name=trace_name)
    for spec in sorted(specs, key=lambda s: s.submit_time):
        service.submit(spec)
    return service.run_sync()


def _fleet() -> SimulationResult:
    """Muri-S on two virtual clusters of four machines each."""
    from repro.fleet import FleetFrontEnd, partition_cluster

    topology = partition_cluster(8, 8, 2)
    frontend = FleetFrontEnd.build(topology, scheduler="muri-s")
    largest = max(vc.total_gpus for vc in topology.vcs)
    _, specs = _workload(largest)
    for spec in sorted(specs, key=lambda s: s.submit_time):
        frontend.submit(spec)
    return frontend.run_sync()


def _faults() -> SimulationResult:
    """Muri-S with seeded exponential faults and checkpoint loss."""
    trace_name, specs = _workload()
    simulator = ClusterSimulator(
        make_scheduler("muri-s"),
        cluster=Cluster(8, 8),
        fault_injector=FaultInjector(
            mean_time_between_faults=20_000.0, seed=SEED, progress_loss=0.1,
        ),
    )
    return simulator.run(specs, trace_name)


def cells() -> Dict[str, Callable[[], SimulationResult]]:
    """Every fingerprint cell, name -> thunk producing its result."""
    table: Dict[str, Callable[[], SimulationResult]] = {}
    for scheduler in GRID_SCHEDULERS:
        for trace_id in GRID_TRACES:
            spec = _spec(scheduler, scheduler, trace_id)
            table[f"{scheduler}/trace{trace_id}"] = (
                lambda spec=spec: execute_run(spec)
            )
    extras = {
        "replay-b300/muri-s": _spec(
            "replay", "muri-s", "replay", replay_batch_step=300.0,
        ),
        "replay-b300/srsf": _spec(
            "replay", "srsf", "replay", replay_batch_step=300.0,
        ),
        "hetero-k80-a100/muri-s-aware": _spec(
            "hetero", "muri-s", hetero_types=("k80", "a100"),
            prefer_fraction=0.6, placement="aware",
        ),
        "elastic-curves/elastic-muri": _spec(
            "elastic", "elastic-muri", elastic_fraction=0.5,
        ),
    }
    for name, spec in extras.items():
        table[name] = lambda spec=spec: execute_run(spec)
    table["service-drain/muri-s"] = _service_drain
    table["fleet-2shard/muri-s"] = _fleet
    table["faults/muri-s"] = _faults
    return table


def _canonical(value: Any) -> Any:
    """``value`` with every float replaced by its ``float.hex`` text."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    return value


def field_digests(result: SimulationResult) -> Dict[str, str]:
    """SHA-256 per top-level field of ``result.to_dict()``, sans wall clock."""
    data = result.to_dict()
    data.pop("wall_clock", None)
    return {
        key: hashlib.sha256(
            json.dumps(
                _canonical(value), sort_keys=True, separators=(",", ":")
            ).encode()
        ).hexdigest()
        for key, value in sorted(data.items())
    }


def compute(names: Optional[Iterable[str]] = None) -> Dict[str, Dict[str, str]]:
    """Run the named cells (all when None) and digest each result."""
    table = cells()
    selected = list(table) if names is None else list(names)
    return {name: field_digests(table[name]()) for name in selected}


def load() -> Dict[str, Dict[str, str]]:
    """The committed digests, cell name -> field -> SHA-256."""
    return json.loads(FINGERPRINT_PATH.read_text())["cells"]


def differences(
    expected: Dict[str, Dict[str, str]],
    actual: Dict[str, Dict[str, str]],
) -> List[Tuple[str, str]]:
    """``(cell, first differing field)`` for every cell that differs.

    A cell on one side only is reported with ``<missing>`` or
    ``<unexpected>`` as its field.
    """
    diffs = []
    for name in sorted(expected.keys() | actual.keys()):
        if name not in actual:
            diffs.append((name, "<missing>"))
        elif name not in expected:
            diffs.append((name, "<unexpected>"))
        else:
            want, got = expected[name], actual[name]
            first = next(
                (key for key in sorted(want.keys() | got.keys())
                 if want.get(key) != got.get(key)),
                None,
            )
            if first is not None:
                diffs.append((name, first))
    return diffs


def main(argv: List[str]) -> int:
    """Check or rewrite the committed fingerprint."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="fail when any cell differs from the file")
    mode.add_argument("--update", action="store_true",
                      help="rewrite the file from this checkout")
    args = parser.parse_args(argv)

    actual = compute()
    if args.update:
        FINGERPRINT_PATH.write_text(
            json.dumps({"format": 1, "cells": actual}, indent=1, sort_keys=True)
            + "\n"
        )
        print(f"fingerprint: wrote {len(actual)} cell(s) to {FINGERPRINT_PATH}")
        return 0
    diffs = differences(load(), actual)
    for name, field in diffs:
        print(f"fingerprint mismatch: cell {name}: first differing field {field}")
    if diffs:
        print(f"\n{len(diffs)} of {len(actual)} cell(s) differ; if the move "
              f"is intended, rerun with --update and list the cells.")
        return 1
    print(f"fingerprint: {len(actual)} cell(s) match.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
