"""Schedules do not depend on how the running Python adds floats.

From Python 3.12, builtin ``sum`` adds floats with compensated
summation, which rounds differently from a plain left-to-right loop.
These tests stand in a compensated ``sum`` (``math.fsum`` whenever a
float is involved) on any Python and check that a Muri-S replay and an
elastic-Muri heterogeneous run produce bit-identical results with and
without it: every float sum that reaches a schedule must add left to
right on its own.
"""

import builtins
import math

import pytest

import repro.replay as replay
from repro.cluster.cluster import Cluster
from repro.cluster.placement import ThroughputAwarePlacer
from repro.elastic.workload import attach_scalability
from repro.hetero.types import DEFAULT_TYPE_SCALING
from repro.hetero.workload import make_hetero_cluster, pin_jobs
from repro.numeric import ordered_sum
from repro.schedulers.registry import make_scheduler
from repro.sim.simulator import ClusterSimulator
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs
from repro.verify import result_mismatches

_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, start=0):
    items = list(iterable)
    if isinstance(start, float) or any(isinstance(x, float) for x in items):
        return math.fsum([start, *items])
    return _BUILTIN_SUM(items, start)


def muri_s_replay(jobs=300, seed=0):
    trace = generate_trace("4", num_jobs=jobs, seed=seed)
    simulator = ClusterSimulator(make_scheduler("muri-s"), cluster=Cluster(8, 8))
    specs = build_jobs(trace, seed=seed)
    return replay.replay_trace(simulator, specs, trace.name)[0]


def elastic_hetero_run(jobs=150, seed=0):
    trace = replay.synthetic_trace(jobs, seed=seed)
    specs = attach_scalability(build_jobs(trace, seed=seed), 0.5, seed=seed)
    specs = pin_jobs(specs, ("k80", "a100"), seed=seed, prefer_fraction=0.6)
    simulator = ClusterSimulator(
        make_scheduler("elastic-muri"),
        cluster=make_hetero_cluster(4, 8, ("k80", "a100"), seed=seed),
        placer=ThroughputAwarePlacer(),
        landing_speed_scaling=DEFAULT_TYPE_SCALING,
    )
    return replay.replay_trace(simulator, specs, trace.name)[0]


@pytest.mark.parametrize("run", (muri_s_replay, elastic_hetero_run))
def test_results_do_not_depend_on_builtin_sum(run, monkeypatch):
    plain = run()
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    compensated = run()
    monkeypatch.undo()
    assert result_mismatches(plain, compensated) == {}


@pytest.mark.parametrize("values, expected", (
    ([], 0),
    ([1, 2], 3),
    ([0.1, 0.2, 0.3], 0.6000000000000001),
    ([1e16, 1.0, -1e16], 0.0),
    ([-0.0], 0.0),
))
def test_ordered_sum_adds_left_to_right_from_int_zero(values, expected):
    """The rounding of Python 3.11's ``sum``, on every Python; the
    compensated stand-in rounds the float cases differently."""
    total = ordered_sum(values)
    assert total == expected and type(total) is type(expected)
    assert math.copysign(1.0, total) == 1.0
    if any(isinstance(v, float) for v in values) and values != [-0.0]:
        assert _compensated_sum(values) != total
