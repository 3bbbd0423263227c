"""The sweep runner: parallel, resumable, fault-tolerant cell execution.

:class:`SweepRunner` executes independent cells on a
:class:`concurrent.futures.ProcessPoolExecutor` with:

* **per-run timeouts** — a cell that exceeds its budget has its worker
  terminated and the pool rebuilt, so one hung simulation cannot wedge
  the sweep;
* **bounded retry with backoff** — crashed or timed-out cells are
  retried up to ``retries`` times with exponential backoff; cells that
  raise *inside* the simulation are recorded as errors immediately
  (a deterministic exception would fail identically on retry);
* **graceful serial degradation** — ``max_workers=1`` executes cells
  in-process in submission order via the same
  :func:`~repro.sweep.execute.execute_run`, which is exactly the
  pre-sweep serial code path (no pool, no pickling);
* **resume** — with a :class:`~repro.sweep.store.ResultStore`
  attached, completed run ids are loaded and skipped, so a killed
  sweep restarts where it left off;
* **sharding** — a ``(index, count)`` shard executes only the cells
  whose run-id hash lands in its bucket (see
  :func:`~repro.sweep.spec.in_shard`), letting independent machines
  partition a sweep with no coordination.

Every run emits tracer events and counters under the ``sweep.*``
namespace when a :class:`~repro.observe.Tracer` is attached.
"""

from __future__ import annotations

import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.observe.events import EventCategory
from repro.observe.tracer import Tracer, maybe_span
from repro.sweep.execute import (
    PrebuiltCell,
    _worker_entry,
    execute_prebuilt,
    execute_run,
)
from repro.sweep.spec import RunResult, RunSpec, in_shard, parse_shard
from repro.sweep.store import ResultStore

__all__ = ["SweepRunner", "SweepError"]

#: Seconds between deadline checks while waiting on worker futures.
_POLL_INTERVAL = 0.25

#: Ceiling on one retry-backoff sleep, seconds.
_MAX_BACKOFF = 30.0


class SweepError(RuntimeError):
    """A sweep could not produce the requested results."""


@dataclass
class _Task:
    """Internal dispatch unit shared by declarative and prebuilt runs."""

    run_id: str
    kind: str  # "spec" | "prebuilt"
    payload: Any
    spec: Optional[RunSpec]
    attempts: int = 0


class SweepRunner:
    """Executes sweep cells concurrently and deterministically.

    Args:
        max_workers: Process-pool size; 1 (the default) runs cells
            serially in-process with no pool at all.
        timeout: Per-run wall-clock budget in seconds; None disables
            enforcement.  Only enforced in pooled mode — an in-process
            run cannot be interrupted.
        retries: Extra attempts for cells whose *worker* crashed or
            timed out (deterministic in-run exceptions are not
            retried).
        backoff: Base of the exponential retry delay:
            ``backoff * 2**(attempt-1)`` seconds, capped at 30.
        store: Optional :class:`ResultStore`; every finished cell is
            appended, and (with ``resume=True``) previously completed
            cells are skipped.
        resume: When False an attached store is cleared at the start
            of :meth:`run` instead of consulted.
        shard: Optional shard selector — ``"k/n"`` (1-based) or a
            0-based ``(index, count)`` tuple.
        tracer: Optional tracer; runs are recorded as ``sweep.*``
            events and counters.
        mp_context: Optional :mod:`multiprocessing` context for the
            pool (tests pin ``fork`` so monkeypatched modules reach
            the workers).
    """

    def __init__(
        self,
        max_workers: int = 1,
        timeout: Optional[float] = None,
        retries: int = 2,
        backoff: float = 0.5,
        store: Optional[ResultStore] = None,
        resume: bool = True,
        shard: Union[str, Tuple[int, int], None] = None,
        tracer: Optional[Tracer] = None,
        mp_context=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be > 0 when set")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff < 0:
            raise ValueError("backoff must be >= 0")
        self.max_workers = max_workers
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.store = store
        self.resume = resume
        self.shard = parse_shard(shard)
        self.tracer = tracer
        self.mp_context = mp_context

    # -- public entry points -------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> Dict[str, RunResult]:
        """Execute declarative cells; returns results keyed by run id.

        Cells outside this runner's shard are silently skipped (their
        ids simply do not appear in the returned mapping).  Completed
        cells found in the store are returned with ``resumed=True``
        without re-executing.  The mapping preserves the submission
        order of the executed cells.

        Raises:
            ValueError: When two cells hash to the same run id (the
                sweep would silently lose one of them).
        """
        ids = [spec.run_id for spec in specs]
        if len(set(ids)) != len(ids):
            seen, duplicates = set(), set()
            for run_id in ids:
                (duplicates if run_id in seen else seen).add(run_id)
            raise ValueError(
                f"duplicate run ids in sweep: {sorted(duplicates)} — "
                "cells must be distinct"
            )

        selected = [
            spec for spec in specs if in_shard(spec.run_id, self.shard)
        ]
        self._count("sweep.runs.selected", len(selected))
        self._count("sweep.runs.sharded_out", len(specs) - len(selected))

        out: Dict[str, RunResult] = {}
        todo: List[_Task] = []
        completed = self._stored_results() if self.resume else {}
        if self.store is not None and not self.resume:
            self.store.clear()
        for spec in selected:
            stored = completed.get(spec.run_id)
            if stored is not None and stored.ok:
                stored.resumed = True
                out[spec.run_id] = stored
                self._count("sweep.runs.resumed")
                self._emit("sweep.run.resumed", run_id=spec.run_id,
                           label=spec.label)
            else:
                todo.append(
                    _Task(spec.run_id, "spec", spec, spec)
                )

        executed = self._execute(todo)
        out.update(executed)
        # Preserve submission order for the executed cells.
        ordered = {
            spec.run_id: out[spec.run_id]
            for spec in selected if spec.run_id in out
        }
        return ordered

    def run_prebuilt(
        self, cells: Sequence[PrebuiltCell]
    ) -> Dict[str, RunResult]:
        """Execute prebuilt cells; returns results keyed by label.

        Prebuilt cells carry live objects, so they are neither
        shardable nor resumable: the shard selector and the store are
        ignored, and run ids are positional (``prebuilt-<i>-<label>``).
        """
        tasks = [
            _Task(f"prebuilt-{index:04d}-{cell.label}", "prebuilt", cell, None)
            for index, cell in enumerate(cells)
        ]
        labels = [cell.label for cell in cells]
        if len(set(labels)) != len(labels):
            raise ValueError("prebuilt cell labels must be unique")
        executed = self._execute(tasks, persist=False)
        return {
            cell.label: executed[task.run_id]
            for cell, task in zip(cells, tasks)
        }

    # -- execution machinery -------------------------------------------------

    def _stored_results(self) -> Dict[str, RunResult]:
        if self.store is None:
            return {}
        return {result.run_id: result for result in self.store.load()}

    def _execute(
        self, tasks: List[_Task], persist: bool = True
    ) -> Dict[str, RunResult]:
        if not tasks:
            return {}
        self._persist = persist
        with maybe_span(
            self.tracer, "sweep.execute", runs=len(tasks),
            workers=self.max_workers,
        ):
            if self.max_workers == 1:
                return self._execute_serial(tasks)
            return self._execute_pooled(tasks)

    def _execute_serial(self, tasks: List[_Task]) -> Dict[str, RunResult]:
        """In-process execution, submission order — the serial path."""
        results: Dict[str, RunResult] = {}
        for task in tasks:
            start = time.perf_counter()
            with maybe_span(self.tracer, "sweep.run", run_id=task.run_id):
                try:
                    if task.kind == "spec":
                        sim = execute_run(task.payload)
                    else:
                        sim = execute_prebuilt(task.payload)
                    results[task.run_id] = RunResult(
                        run_id=task.run_id,
                        spec=task.spec,
                        status="ok",
                        result=sim.to_dict(),
                        attempts=1,
                        wall_clock=time.perf_counter() - start,
                    )
                    self._record_done(results[task.run_id])
                except Exception:
                    results[task.run_id] = RunResult(
                        run_id=task.run_id,
                        spec=task.spec,
                        status="error",
                        error=traceback.format_exc(),
                        attempts=1,
                        wall_clock=time.perf_counter() - start,
                    )
                    self._record_done(results[task.run_id])
        return results

    def _execute_pooled(self, tasks: List[_Task]) -> Dict[str, RunResult]:
        """Process-pool execution with timeouts, retries, and rebuilds.

        A worker that dies breaks the whole pool, and every task aboard
        fails with it, so a broken pool charges no attempt.  Its tasks
        re-run one at a time in a fresh pool ("suspects") before any
        other work; only a task that breaks a pool on its own is
        charged, and it stays a suspect while it has retries left.
        """
        results: Dict[str, RunResult] = {}
        pending = deque(tasks)
        suspects: deque = deque()
        executor = self._new_pool()
        inflight: Dict[Any, Tuple[_Task, Optional[float]]] = {}
        try:
            while pending or suspects or inflight:
                # A pool that broke between polls refuses submissions;
                # its in-flight futures fail on the next wait.
                refused = False
                if suspects:
                    if not inflight:
                        refused = not self._submit(executor, suspects, inflight)
                else:
                    while pending and len(inflight) < self.max_workers:
                        if not self._submit(executor, pending, inflight):
                            refused = True
                            break

                done, _ = wait(
                    list(inflight), timeout=_POLL_INTERVAL,
                    return_when=FIRST_COMPLETED,
                )
                aboard = []
                for future in done:
                    task, _deadline = inflight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        aboard.append(task)
                        continue
                    results[task.run_id] = RunResult(
                        run_id=task.run_id,
                        spec=task.spec,
                        status=payload["status"],
                        result=payload.get("result"),
                        error=payload.get("error"),
                        attempts=task.attempts,
                        wall_clock=payload["wall_clock"],
                    )
                    self._record_done(results[task.run_id])

                if aboard or (refused and not inflight):
                    aboard.extend(task for task, _deadline in inflight.values())
                    inflight.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = self._new_pool()
                    if len(aboard) == 1:
                        self._requeue_or_fail(
                            aboard[0], "worker process died", suspects,
                            results,
                        )
                    else:
                        for task in aboard:
                            task.attempts -= 1
                        suspects.extend(aboard)
                    continue

                if self.timeout is not None and inflight:
                    now = time.monotonic()
                    expired = [
                        (future, task)
                        for future, (task, deadline) in inflight.items()
                        if deadline is not None and now > deadline
                    ]
                    if expired:
                        executor = self._handle_timeouts(
                            executor, expired, inflight, pending, results
                        )
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        return results

    def _submit(self, executor, queue, inflight) -> bool:
        """Start the task at the head of ``queue``; False when the pool
        is already broken (the task stays queued, uncharged)."""
        task = queue[0]
        try:
            future = executor.submit(_worker_entry, task.kind, task.payload)
        except BrokenProcessPool:
            return False
        queue.popleft()
        task.attempts += 1
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None else None
        )
        inflight[future] = (task, deadline)
        self._emit(
            "sweep.run.submitted", run_id=task.run_id, attempt=task.attempts,
        )
        return True

    def _handle_timeouts(self, executor, expired, inflight, pending, results):
        """Kill the pool to unstick hung workers; requeue the innocents."""
        for future, task in expired:
            inflight.pop(future, None)
            self._count("sweep.runs.timeout")
            self._requeue_or_fail(
                task,
                f"timed out after {self.timeout:.1f}s",
                pending,
                results,
            )
        # A pool cannot terminate one worker, so hung runs take the
        # whole pool down; unexpired in-flight tasks are requeued
        # without being charged an attempt.
        for future, (task, _deadline) in inflight.items():
            task.attempts -= 1
            pending.appendleft(task)
        inflight.clear()
        for process in getattr(executor, "_processes", {}).values():
            process.terminate()
        executor.shutdown(wait=False, cancel_futures=True)
        return self._new_pool()

    def _requeue_or_fail(self, task, reason, pending, results) -> None:
        if task.attempts <= self.retries:
            self._count("sweep.runs.retried")
            self._emit(
                "sweep.run.retry", run_id=task.run_id,
                attempt=task.attempts, reason=reason,
            )
            delay = min(
                self.backoff * (2 ** (task.attempts - 1)), _MAX_BACKOFF
            )
            if delay > 0:
                time.sleep(delay)
            pending.append(task)
        else:
            results[task.run_id] = RunResult(
                run_id=task.run_id,
                spec=task.spec,
                status="error",
                error=f"{reason} (after {task.attempts} attempt(s))",
                attempts=task.attempts,
            )
            self._record_done(results[task.run_id])

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers, mp_context=self.mp_context
        )

    # -- observability -------------------------------------------------------

    def _emit(self, name: str, **args) -> None:
        if self.tracer is not None:
            self.tracer.emit(EventCategory.SIM, name, **args)

    def _count(self, name: str, amount: int = 1) -> None:
        if self.tracer is not None and amount:
            self.tracer.count(name, amount)

    def _record_done(self, result: RunResult) -> None:
        """Persist and observe one finished run, the moment it finishes.

        Appending here — not after the whole sweep — is what makes a
        killed sweep resumable: every completed cell is already on
        disk when the process dies.
        """
        if getattr(self, "_persist", True) and self.store is not None:
            self.store.append(result)
        if result.ok:
            self._count("sweep.runs.completed")
        else:
            self._count("sweep.runs.failed")
        self._emit(
            "sweep.run.done",
            run_id=result.run_id,
            status=result.status,
            attempts=result.attempts,
            wall_clock=result.wall_clock,
        )
