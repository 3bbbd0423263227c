"""ResultStore: durable appends, tolerant loads, resume bookkeeping."""

import json

import pytest

from repro.sweep import ResultStore, RunResult, RunSpec


def _result(label="A", status="ok", seed=0):
    spec = RunSpec(
        experiment="test", label=label, scheduler="fifo",
        trace_id="1", seed=seed, num_jobs=5,
    )
    payload = None
    if status == "ok":
        payload = {"format_version": 1, "scheduler_name": "fifo",
                   "trace_name": "t", "jcts": {"0": 1.0},
                   "finish_times": {"0": 1.0}, "submit_times": {"0": 0.0},
                   "total_preemptions": 0, "total_restart_time": 0.0,
                   "wall_clock": 0.0, "timeseries": []}
    return RunResult(
        run_id=spec.run_id, spec=spec, status=status,
        result=payload, error=None if status == "ok" else "boom",
    )


def test_append_load_round_trip(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    first, second = _result(seed=0), _result(seed=1)
    store.append(first)
    store.append(second)
    loaded = {r.run_id: r for r in store.load()}
    assert loaded == {first.run_id: first, second.run_id: second}
    assert store.truncated_lines == 0


def test_missing_file_loads_empty(tmp_path):
    store = ResultStore(tmp_path / "absent.jsonl")
    assert store.load() == []
    assert store.completed_ids() == set()


def test_later_lines_win_per_run_id(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    store.append(_result(status="error"))
    store.append(_result(status="ok"))
    loaded = store.load()
    assert len(loaded) == 1
    assert loaded[0].ok
    assert store.completed_ids() == {loaded[0].run_id}


def test_truncated_final_line_is_tolerated(tmp_path):
    """A kill mid-append leaves a half-written last line; load must
    skip it and keep everything before it."""
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    keep = _result(seed=0)
    lost = _result(seed=1)
    store.append(keep)
    full_line = json.dumps(lost.to_dict())
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(full_line[: len(full_line) // 2])

    loaded = store.load()
    assert [r.run_id for r in loaded] == [keep.run_id]
    assert store.truncated_lines == 1
    assert store.completed_ids() == {keep.run_id}


def test_corruption_before_the_final_line_raises(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    store.append(_result(seed=0))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{definitely not json\n")
    store.append(_result(seed=1))
    with pytest.raises(ValueError, match="corrupt"):
        store.load()


def test_completed_ids_exclude_errors(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    ok, bad = _result(seed=0, status="ok"), _result(seed=1, status="error")
    store.append(ok)
    store.append(bad)
    assert store.completed_ids() == {ok.run_id}


def test_clear_removes_the_file(tmp_path):
    store = ResultStore(tmp_path / "runs.jsonl")
    store.append(_result())
    store.clear()
    assert not store.path.exists()
    store.clear()  # idempotent


WRONG_SHAPE_LINES = (
    "[1]",
    '"x"',
    '{"run_id": "a", "status": "ok", "spec": [1]}',
)


@pytest.mark.parametrize("line", WRONG_SHAPE_LINES)
def test_wrong_shape_final_line_counts_as_truncated(tmp_path, line):
    """JSON that parses but is no result line is skipped at the tail."""
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    keep = _result(seed=0)
    store.append(keep)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    assert [r.run_id for r in store.load()] == [keep.run_id]
    assert store.truncated_lines == 1


@pytest.mark.parametrize("line", WRONG_SHAPE_LINES)
def test_wrong_shape_earlier_line_raises_with_its_number(tmp_path, line):
    path = tmp_path / "runs.jsonl"
    store = ResultStore(path)
    store.append(_result(seed=0))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    store.append(_result(seed=1))
    with pytest.raises(ValueError, match=r"runs\.jsonl:2: corrupt"):
        store.load()
