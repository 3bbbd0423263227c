"""Self-test of the end-to-end benchmark in ``benchmarks/e2e``.

Runs the benchmark at ``--scale 0.02`` (about 20 s) and checks its
output against ``BENCHMARK.json``, then checks the span arithmetic,
the boundary wrappers and the ``compare`` verdicts directly.
"""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(trace, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "set.jsonl"
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--seed", "0", "--seconds", "0", "--scale", "0.02",
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1

    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = [workload["name"] for workload in spec["workloads"]]
    expected = {
        f"{workload}/{metric['name']}": metric["unit"]
        for workload in names
        for metric in declared
    }
    assert {key: value["unit"] for key, value in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))

    human = lines[:-1]
    for metric in spec["end_to_end"]:
        printed = [line for line in human if line.split()[:1] == [metric["name"]]]
        assert len(printed) == len(names), metric["name"]
        assert all(metric["unit"] in line.split() for line in printed)
    if trace:
        assert sum("per-layer self time" in line for line in human) == len(names)
        assert sum("missing boundaries: none" in line for line in human) == len(names)

    # The saved run compares against itself: one run a side is unresolved,
    # and its simulated results are identical.
    compared = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", str(out), str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert compared.returncode == 0, compared.stderr
    report = compared.stdout.splitlines()
    assert sum(line.endswith("unresolved") for line in report) == (
        len(names) * len(spec["end_to_end"])
    )
    assert sum(line.endswith("simulated results identical") for line in report) == len(names)


def test_self_time_is_duration_minus_union_of_children():
    tracing = _load("tracing")
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap,
    # and c [9, 12], which outlives root; a has grandchild d [2, 3].
    start = [0.0, 1.0, 3.0, 9.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    selfs = tracing.self_times(start, end, parent)
    assert selfs == pytest.approx([10 - 5 - 1, 3 - 1, 3, 3, 1])
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4), (5, 5)]) == pytest.approx(3)


def test_boundaries_are_restored_and_missing_ones_reported():
    tracing = _load("tracing")
    from repro.elastic.scheduler import ElasticMuriScheduler
    from repro.sim.simulator import ClusterSimulator

    step = ClusterSimulator.step
    boundaries = (
        tracing.Boundary("sim.step", "repro.sim.simulator", "ClusterSimulator.step"),
        tracing.Boundary("nowhere", "repro.sim.simulator", "ClusterSimulator.absent"),
        tracing.Boundary("inherited", "repro.elastic.scheduler", "ElasticMuriScheduler.decide"),
    )
    recorder = tracing.SpanRecorder()
    with pytest.raises(RuntimeError, match="inside"):
        with tracing.installed(recorder, boundaries) as missing:
            assert missing == ["nowhere (repro.sim.simulator:ClusterSimulator.absent)"]
            assert ClusterSimulator.step is not step
            assert "decide" in vars(ElasticMuriScheduler)
            raise RuntimeError("inside")
    assert ClusterSimulator.step is step
    assert "decide" not in vars(ElasticMuriScheduler)


def test_compare_verdicts():
    verdict = _load("run").verdict
    base = [10.0, 10.1, 9.9, 10.0]
    assert verdict(base, [10.0, 10.05, 9.95, 10.0], "lower", 0.1) == "unchanged"
    assert verdict(base, [12.0, 12.1, 11.9, 12.0], "lower", 0.1) == "regressed"
    assert verdict(base, [12.0, 12.1, 11.9, 12.0], "higher", 0.1) == "improved"
    assert verdict(base, [5.0, 15.0, 8.0, 12.0], "lower", 0.1) == "unresolved"
    # One run has no run-to-run spread to judge by.
    assert verdict(base, [12.0], "lower", 0.1) == "unresolved"
