"""The repo's CI tools: docstring lint and the metric regression gate."""

import json
import subprocess
import sys
from pathlib import Path

from repro.sweep import ResultStore, RunResult, RunSpec

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_tool(name, *argv):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / name), *argv],
        capture_output=True, text=True, cwd=REPO_ROOT,
    )


def _store_with_metrics(path, avg_jct_by_label):
    """Write a sweep store whose runs have the given avg JCTs."""
    store = ResultStore(path)
    for label, avg_jct in avg_jct_by_label.items():
        spec = RunSpec(
            experiment="test", label=label, scheduler="fifo",
            trace_id="1", seed=0, num_jobs=2,
        )
        payload = {
            "format_version": 1, "scheduler_name": "fifo",
            "trace_name": "t",
            "jcts": {"0": avg_jct}, "finish_times": {"0": avg_jct},
            "submit_times": {"0": 0.0}, "total_preemptions": 0,
            "total_restart_time": 0.0, "wall_clock": 0.0,
            "timeseries": [],
        }
        store.append(RunResult(
            run_id=spec.run_id, spec=spec, status="ok", result=payload,
        ))
    return store


def test_check_docstrings_default_roots_are_clean():
    proc = _run_tool("check_docstrings.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout


def test_check_docstrings_flags_missing(tmp_path):
    bad = tmp_path / "pkg"
    bad.mkdir()
    (bad / "mod.py").write_text("def public():\n    pass\n")
    proc = _run_tool("check_docstrings.py", str(bad))
    assert proc.returncode == 1
    assert "missing docstring" in proc.stdout


def test_diff_metrics_update_then_clean(tmp_path):
    store_path = tmp_path / "runs.jsonl"
    baseline = tmp_path / "baseline.json"
    _store_with_metrics(store_path, {"A": 10.0, "B": 20.0})

    proc = _run_tool(
        "diff_metrics.py", str(store_path), "--baseline", str(baseline),
        "--update",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert len(json.loads(baseline.read_text())) == 2

    proc = _run_tool(
        "diff_metrics.py", str(store_path), "--baseline", str(baseline),
    )
    assert proc.returncode == 0
    assert "0 failure(s)" in proc.stdout


def test_diff_metrics_fails_on_regression_and_grid_drift(tmp_path):
    old_store = tmp_path / "old.jsonl"
    new_store = tmp_path / "new.jsonl"
    baseline = tmp_path / "baseline.json"
    _store_with_metrics(old_store, {"A": 10.0, "B": 20.0})
    # A regressed by 50%, B vanished, C is new.
    _store_with_metrics(new_store, {"A": 15.0, "C": 5.0})

    proc = _run_tool(
        "diff_metrics.py", str(old_store), "--baseline", str(baseline),
        "--update",
    )
    assert proc.returncode == 0
    proc = _run_tool(
        "diff_metrics.py", str(new_store), "--baseline", str(baseline),
    )
    assert proc.returncode == 1
    assert "exceeds +5%" in proc.stdout
    assert "missing from results" in proc.stdout
    assert "not in baseline" in proc.stdout


def test_diff_metrics_tolerance_is_configurable(tmp_path):
    old_store = tmp_path / "old.jsonl"
    new_store = tmp_path / "new.jsonl"
    baseline = tmp_path / "baseline.json"
    _store_with_metrics(old_store, {"A": 10.0})
    _store_with_metrics(new_store, {"A": 15.0})

    _run_tool(
        "diff_metrics.py", str(old_store), "--baseline", str(baseline),
        "--update",
    )
    proc = _run_tool(
        "diff_metrics.py", str(new_store), "--baseline", str(baseline),
        "--tolerance", "0.6",
    )
    assert proc.returncode == 0, proc.stdout

    proc = _run_tool(
        "diff_metrics.py", str(new_store), "--baseline", str(baseline),
        "--tolerance", "0.3",
    )
    assert proc.returncode == 1


def test_diff_metrics_sweep_gate_is_exact_and_two_sided(tmp_path):
    old_store = tmp_path / "old.jsonl"
    new_store = tmp_path / "new.jsonl"
    baseline = tmp_path / "baseline.json"
    _store_with_metrics(old_store, {"A": 10.0, "B": 20.0})
    # A improved by 40%; B is unchanged.
    _store_with_metrics(new_store, {"A": 6.0, "B": 20.0})
    _run_tool(
        "diff_metrics.py", str(old_store), "--baseline", str(baseline),
        "--update",
    )

    proc = _run_tool(
        "diff_metrics.py", str(old_store), "--baseline", str(baseline),
        "--tolerance", "0",
    )
    assert proc.returncode == 0, proc.stdout
    assert "0 failure(s)" in proc.stdout

    for tolerance in ("0", "0.05"):
        proc = _run_tool(
            "diff_metrics.py", str(new_store), "--baseline", str(baseline),
            "--tolerance", tolerance,
        )
        assert proc.returncode == 1, proc.stdout
        assert "exceeds -" in proc.stdout
        assert "2 failure(s)" in proc.stdout  # A's avg_jct and makespan


def test_diff_metrics_merges_shard_stores(tmp_path):
    shard_a = tmp_path / "shard-1.jsonl"
    shard_b = tmp_path / "shard-2.jsonl"
    baseline = tmp_path / "baseline.json"
    _store_with_metrics(shard_a, {"A": 10.0})
    _store_with_metrics(shard_b, {"B": 20.0})

    proc = _run_tool(
        "diff_metrics.py", str(shard_a), str(shard_b),
        "--baseline", str(baseline), "--update",
    )
    assert proc.returncode == 0
    assert len(json.loads(baseline.read_text())) == 2
    proc = _run_tool(
        "diff_metrics.py", str(shard_a), str(shard_b),
        "--baseline", str(baseline),
    )
    assert proc.returncode == 0
    assert "compared 2 run(s)" in proc.stdout
