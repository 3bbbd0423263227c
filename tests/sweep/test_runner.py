"""SweepRunner: serial/pooled execution, resume, shards, fault handling.

The pooled tests monkeypatch the worker's execute function and pin the
``fork`` start method, so patched modules are inherited by the pool's
children — that lets the tests crash and hang "simulations" cheaply.
"""

import multiprocessing
import os
import time

import pytest

import repro.sweep.execute as execute_module
import repro.sweep.runner as runner_module
from repro.cluster.cluster import Cluster
from repro.observe import Tracer
from repro.schedulers.registry import make_scheduler
from repro.sim.metrics import SimulationResult
from repro.sweep import PrebuiltCell, ResultStore, RunSpec, SweepRunner
from repro.trace.philly import generate_trace
from repro.trace.workload import build_jobs

FORK = multiprocessing.get_context("fork")


def _spec(label="A", seed=0):
    return RunSpec(
        experiment="test", label=label, scheduler="fifo",
        trace_id="1", seed=seed, num_jobs=5,
    )


def _fake_sim(spec):
    """A deterministic stand-in result derived from the spec."""
    return SimulationResult(
        scheduler_name=spec.scheduler,
        trace_name=spec.trace_id,
        jcts={0: 1.0 + spec.seed},
        finish_times={0: 1.0 + spec.seed},
        submit_times={0: 0.0},
    )


def _crash_on_crash_label(spec):
    if spec.label == "crash":
        os._exit(13)
    return _fake_sim(spec)


def _crash_on_crash_prefix(spec):
    if spec.label.startswith("crash"):
        os._exit(13)
    return _fake_sim(spec)


def _hang_on_hang_label(spec):
    if spec.label == "hang":
        time.sleep(60.0)
    return _fake_sim(spec)


def _patch_execute(monkeypatch, fake):
    # The serial path calls the runner module's reference, the pooled
    # path resolves the execute module's global inside the worker.
    monkeypatch.setattr(runner_module, "execute_run", fake)
    monkeypatch.setattr(execute_module, "execute_run", fake)


# -- serial path ------------------------------------------------------------

def test_serial_executes_in_submission_order(monkeypatch):
    order = []

    def fake(spec):
        order.append(spec.label)
        return _fake_sim(spec)

    _patch_execute(monkeypatch, fake)
    specs = [_spec(label) for label in ("C", "A", "B")]
    results = SweepRunner().run(specs)
    assert order == ["C", "A", "B"]
    assert list(results) == [spec.run_id for spec in specs]
    assert all(run.ok for run in results.values())


def test_duplicate_run_ids_rejected():
    spec = _spec()
    with pytest.raises(ValueError, match="duplicate run ids"):
        SweepRunner().run([spec, spec])


def test_serial_records_deterministic_errors(monkeypatch, tmp_path):
    def fake(spec):
        if spec.label == "bad":
            raise ValueError("deliberately broken cell")
        return _fake_sim(spec)

    _patch_execute(monkeypatch, fake)
    store = ResultStore(tmp_path / "runs.jsonl")
    specs = [_spec("good"), _spec("bad")]
    results = SweepRunner(store=store).run(specs)
    assert results[specs[0].run_id].ok
    bad = results[specs[1].run_id]
    assert not bad.ok
    assert "deliberately broken cell" in bad.error
    # Both outcomes were persisted as they finished.
    assert {r.run_id for r in store.load()} == {s.run_id for s in specs}


def test_resume_skips_completed_runs(monkeypatch, tmp_path):
    calls = []

    def fake(spec):
        calls.append(spec.label)
        return _fake_sim(spec)

    _patch_execute(monkeypatch, fake)
    store = ResultStore(tmp_path / "runs.jsonl")
    specs = [_spec("A"), _spec("B"), _spec("C")]

    SweepRunner(store=store).run(specs[:2])
    assert calls == ["A", "B"]

    tracer = Tracer()
    results = SweepRunner(store=store, tracer=tracer).run(specs)
    assert calls == ["A", "B", "C"]  # only the missing cell ran
    assert len(results) == 3
    assert results[specs[0].run_id].resumed
    assert results[specs[1].run_id].resumed
    assert not results[specs[2].run_id].resumed
    assert tracer.counters["sweep.runs.resumed"] == 2
    assert tracer.counters["sweep.runs.completed"] == 1


def test_resume_false_starts_fresh(monkeypatch, tmp_path):
    calls = []

    def fake(spec):
        calls.append(spec.label)
        return _fake_sim(spec)

    _patch_execute(monkeypatch, fake)
    store = ResultStore(tmp_path / "runs.jsonl")
    specs = [_spec("A")]
    SweepRunner(store=store).run(specs)
    SweepRunner(store=store, resume=False).run(specs)
    assert calls == ["A", "A"]


def test_stored_errors_are_retried_on_resume(monkeypatch, tmp_path):
    attempts = []

    def flaky(spec):
        attempts.append(spec.label)
        if len(attempts) == 1:
            raise RuntimeError("first time fails")
        return _fake_sim(spec)

    _patch_execute(monkeypatch, flaky)
    store = ResultStore(tmp_path / "runs.jsonl")
    specs = [_spec("A")]
    first = SweepRunner(store=store).run(specs)
    assert not first[specs[0].run_id].ok
    second = SweepRunner(store=store).run(specs)
    assert second[specs[0].run_id].ok
    assert attempts == ["A", "A"]


def test_shards_split_the_work(monkeypatch):
    executed = []

    def fake(spec):
        executed.append(spec.run_id)
        return _fake_sim(spec)

    _patch_execute(monkeypatch, fake)
    specs = [_spec(label, seed) for seed, label in enumerate("ABCDEFG")]
    all_ids = {spec.run_id for spec in specs}

    collected = set()
    for shard in ("1/3", "2/3", "3/3"):
        results = SweepRunner(shard=shard).run(specs)
        assert set(results) <= all_ids
        assert not collected & set(results)
        collected |= set(results)
    assert collected == all_ids
    assert sorted(executed) == sorted(all_ids)


def test_validation():
    with pytest.raises(ValueError):
        SweepRunner(max_workers=0)
    with pytest.raises(ValueError):
        SweepRunner(timeout=0)
    with pytest.raises(ValueError):
        SweepRunner(retries=-1)
    with pytest.raises(ValueError):
        SweepRunner(backoff=-0.1)


# -- pooled path ------------------------------------------------------------

def test_pooled_matches_serial_fake_payloads(monkeypatch):
    _patch_execute(monkeypatch, _fake_sim)
    specs = [_spec(label, seed) for seed, label in enumerate("ABCD")]
    serial = SweepRunner().run(specs)
    pooled = SweepRunner(max_workers=2, mp_context=FORK).run(specs)
    for spec in specs:
        a = dict(serial[spec.run_id].result)
        b = dict(pooled[spec.run_id].result)
        a.pop("wall_clock"), b.pop("wall_clock")
        assert a == b


def test_crashed_worker_is_retried_then_failed(monkeypatch):
    _patch_execute(monkeypatch, _crash_on_crash_label)
    tracer = Tracer()
    specs = [_spec("good-1", 1), _spec("crash", 2), _spec("good-2", 3)]
    runner = SweepRunner(
        max_workers=2, retries=1, backoff=0.0,
        mp_context=FORK, tracer=tracer,
    )
    results = runner.run(specs)
    assert results[specs[0].run_id].ok
    assert results[specs[2].run_id].ok
    crashed = results[specs[1].run_id]
    assert not crashed.ok
    assert "worker process died" in crashed.error
    assert crashed.attempts == 2
    assert tracer.counters["sweep.runs.retried"] >= 1
    assert tracer.counters["sweep.runs.failed"] == 1


def test_broken_pool_charges_only_the_crashing_cells(monkeypatch):
    """Healthy cells aboard a pool a neighbour broke are re-run, never
    charged: exactly the two crashing cells end as errors."""
    _patch_execute(monkeypatch, _crash_on_crash_prefix)
    tracer = Tracer()
    labels = ["good-1", "crash-1", "good-2", "good-3", "crash-2", "good-4"]
    specs = [_spec(label, seed) for seed, label in enumerate(labels)]
    runner = SweepRunner(
        max_workers=3, retries=1, backoff=0.0,
        mp_context=FORK, tracer=tracer,
    )
    results = runner.run(specs)
    failed = {spec.label for spec in specs if not results[spec.run_id].ok}
    assert failed == {"crash-1", "crash-2"}
    for spec in specs:
        result = results[spec.run_id]
        if spec.label.startswith("crash"):
            assert "worker process died" in result.error
            assert result.attempts == 2
        else:
            assert result.attempts == 1
    assert tracer.counters["sweep.runs.failed"] == 2


def test_hung_worker_times_out(monkeypatch):
    _patch_execute(monkeypatch, _hang_on_hang_label)
    tracer = Tracer()
    specs = [_spec("hang"), _spec("good", 1)]
    runner = SweepRunner(
        max_workers=2, timeout=1.0, retries=0, backoff=0.0,
        mp_context=FORK, tracer=tracer,
    )
    start = time.monotonic()
    results = runner.run(specs)
    elapsed = time.monotonic() - start
    hung = results[specs[0].run_id]
    assert not hung.ok
    assert "timed out" in hung.error
    assert results[specs[1].run_id].ok
    assert tracer.counters["sweep.runs.timeout"] == 1
    assert elapsed < 30.0  # nowhere near the worker's 60s sleep


# -- prebuilt cells ---------------------------------------------------------

def _tiny_workload():
    trace = generate_trace("1", num_jobs=8, seed=0)
    return trace, build_jobs(trace, seed=0)


def test_prebuilt_cells_run_real_simulations():
    trace, specs = _tiny_workload()
    cells = [
        PrebuiltCell(
            label=name,
            specs=tuple(specs),
            scheduler=make_scheduler(name),
            cluster=Cluster(2, 4),
            trace_name=trace.name,
        )
        for name in ("fifo", "sjf")
    ]
    results = SweepRunner().run_prebuilt(cells)
    assert set(results) == {"fifo", "sjf"}
    for run in results.values():
        assert run.ok
        assert run.simulation_result().num_jobs == len(specs)


def test_prebuilt_duplicate_labels_rejected():
    trace, specs = _tiny_workload()
    cell = PrebuiltCell(
        label="fifo", specs=tuple(specs),
        scheduler=make_scheduler("fifo"), cluster=Cluster(2, 4),
        trace_name=trace.name,
    )
    with pytest.raises(ValueError, match="unique"):
        SweepRunner().run_prebuilt([cell, cell])
