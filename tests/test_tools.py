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


def _bench_doc(normalized, suite="grouping", schema=1):
    """A minimal bench document with one gated metric per benchmark."""
    return {
        "schema": schema,
        "suite": suite,
        "benchmarks": {
            name: {"seconds": value / 50.0, "normalized": value}
            for name, value in normalized.items()
        },
    }


def _write_json(path, document):
    path.write_text(json.dumps(document, indent=2) + "\n")


def test_diff_metrics_bench_clean_and_regression(tmp_path):
    baseline = tmp_path / "BENCH_grouping.json"
    current = tmp_path / "current.json"
    _write_json(baseline, _bench_doc({"cold": 10.0, "warm": 1.0}))

    # Within tolerance: clean.
    _write_json(current, _bench_doc({"cold": 10.5, "warm": 1.0}))
    proc = _run_tool(
        "diff_metrics.py", "--bench", str(current),
        "--baseline", str(baseline), "--tolerance", "0.10",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 failure(s)" in proc.stdout

    # A 20% regression on one gated metric: fail.
    _write_json(current, _bench_doc({"cold": 12.0, "warm": 1.0}))
    proc = _run_tool(
        "diff_metrics.py", "--bench", str(current),
        "--baseline", str(baseline), "--tolerance", "0.10",
    )
    assert proc.returncode == 1
    assert "exceeds +10%" in proc.stdout


def test_diff_metrics_bench_subset_is_a_notice(tmp_path):
    """A quick run missing full-only benchmarks gates cleanly."""
    baseline = tmp_path / "BENCH_grouping.json"
    current = tmp_path / "current.json"
    _write_json(baseline, _bench_doc({"cold_512": 5.0, "cold_4096": 90.0}))
    _write_json(current, _bench_doc({"cold_512": 5.0}))
    proc = _run_tool(
        "diff_metrics.py", "--bench", str(current),
        "--baseline", str(baseline), "--tolerance", "0.10",
    )
    assert proc.returncode == 0, proc.stdout
    assert "in baseline only" in proc.stdout


def test_diff_metrics_bench_schema_mismatch_refuses(tmp_path):
    baseline = tmp_path / "BENCH_grouping.json"
    current = tmp_path / "current.json"
    _write_json(baseline, _bench_doc({"cold": 10.0}, schema=1))
    _write_json(current, _bench_doc({"cold": 10.0}, schema=2))
    proc = _run_tool(
        "diff_metrics.py", "--bench", str(current),
        "--baseline", str(baseline),
    )
    assert proc.returncode != 0
    assert "schema mismatch" in proc.stdout + proc.stderr


def test_diff_metrics_bench_update_writes_baseline(tmp_path):
    baseline = tmp_path / "BENCH_service.json"
    current = tmp_path / "current.json"
    _write_json(current, _bench_doc({"submit": 2.0}, suite="service"))

    # No baseline yet: exit 2 with a pointer, not a crash.
    proc = _run_tool(
        "diff_metrics.py", "--bench", str(current),
        "--baseline", str(baseline),
    )
    assert proc.returncode == 2

    proc = _run_tool(
        "diff_metrics.py", "--bench", str(current),
        "--baseline", str(baseline), "--update",
    )
    assert proc.returncode == 0
    assert json.loads(baseline.read_text())["suite"] == "service"
