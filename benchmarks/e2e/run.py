"""End-to-end benchmark of the Muri reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload philly-tick --seed 0 --seconds 30 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seconds 30 --out set.json
    python3 benchmarks/e2e/run.py --workload all --seconds 30 --trace 1
    python3 benchmarks/e2e/run.py compare base.json new.json

The seed stands for :data:`INPUTS` distinct inputs of each workload.
Every repeat drives one input in a fresh subprocess (one process, one
thread, program defaults) that generates the input, drives the program
through its public API, and reports its measurements.  Repeats run one
at a time, round-robin across the selected workloads, cycling through
the inputs, until each workload has had ``--seconds`` of wall time and
(untraced) every input has run.  End-to-end metrics are medians over the untraced
repeats, in raw seconds: dividing by a calibration loop did not reduce
run-to-run spread on the 2-vCPU host the benchmark was built on.

With ``--trace 1`` every round also runs one traced repeat of the same
input, with timing wrappers around the program's layer boundaries (see
``tracing.py``); those repeats give the per-layer table and metrics,
and their simulated results must match the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code
is non-zero when any correctness check fails, and 2 when the program's
sources are not there to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
#: Scratch space for spans and the CSV round trip; ignored by git.
OUT = HERE / "out"

#: First argument that makes this file run one repeat in-process.
WORKER = "_repeat"
#: Distinct inputs of each workload behind one benchmark seed.  One
#: input's jobs per second differs from another's by 7-10% (quartile
#: distance over median), far more than one repeat's timing noise
#: (about 3%), so a run measures many inputs rather than one input
#: many times.
INPUTS = 10
#: Fewest rounds of a traced run, whatever the budget.
MIN_TRACED_ROUNDS = 2
#: A repeat still running this long after the run's budget has hung.
GRACE_S = 140.0
#: The documented service latency limit, printed beside the p99.
SERVICE_LIMIT_MS = 10.0


def _load_spec() -> Dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: Sequence[float]):
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


# -- one repeat (subprocess) -------------------------------------------------


def repeat(argv: Sequence[str]) -> int:
    """Run one repeat in this process; print its measurements as JSON."""
    name, seed, index = argv[0], int(argv[1]), int(argv[2])
    scale, traced = float(argv[3]), argv[4] == "1"
    # The program is imported only in repeats, so the parent process
    # can report missing sources instead of failing to import them.
    sys.path.insert(0, str(SRC))
    import workloads
    from repro.jobs.resources import Resource

    OUT.mkdir(exist_ok=True)
    recorder = None
    if traced:
        import tracing

        recorder = tracing.SpanRecorder()
    with tracing.installed(recorder) if traced else nullcontext([]) as missing:
        root = recorder.open(tracing.ROOT) if traced else None
        started = time.perf_counter()
        drive = workloads.prepare(name, seed, index, scale, OUT)
        setup_s = time.perf_counter() - started
        started = time.perf_counter()
        outcome = drive()
        drive_s = time.perf_counter() - started
        if traced:
            recorder.close(root)

    result = outcome.result
    payload = result.to_dict()
    del payload["wall_clock"]
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()
    simulated = {"sim.preemptions": result.total_preemptions}
    if result.jcts:
        simulated.update({
            "sim.avg_jct_s": result.avg_jct,
            "sim.p99_jct_s": result.tail_jct(99.0),
            "sim.makespan_s": result.makespan,
            "sim.avg_queue_length": result.avg_queue_length,
            "sim.gpu_util": result.avg_utilization()[Resource.GPU],
        })
    doc = {
        "workload": name,
        "seed": seed,
        "input": index,
        "traced": traced,
        "setup_s": setup_s,
        "drive_s": drive_s,
        "jobs_per_s": outcome.terminal / drive_s,
        "step_p50_ms": outcome.step_p50_ms,
        "step_p99_ms": outcome.step_p99_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps": outcome.steps,
        "admitted": outcome.admitted,
        "terminal": outcome.terminal,
        "rejected": outcome.rejected,
        "problems": outcome.problems,
        "digest": digest,
        "values": {**simulated, **outcome.extra},
    }
    if traced:
        rows, wall = tracing.layer_table(recorder)
        doc["values"].update(tracing.layer_metrics(rows, recorder.counters, wall))
        doc["table"] = [
            ["(unattributed)" if row.layer == tracing.ROOT else row.layer,
             row.calls, row.self_s, row.p50_ms, row.p99_ms]
            for row in rows
        ]
        doc["wall_s"] = wall
        doc["missing"] = missing
        tracing.write_spans(recorder, OUT / f"spans-{name}-{index}.csv.gz")
    print(json.dumps(doc))
    return 0


def _run_repeat(
    name: str, seed: int, index: int, scale: float, traced: bool, deadline: float
) -> Dict:
    """One repeat of input ``index`` in a fresh subprocess, killed at
    ``deadline`` (``time.monotonic()``); a failure becomes a problem."""
    command = [
        sys.executable, str(HERE / "run.py"), WORKER,
        name, str(seed), str(index), repr(scale), "1" if traced else "0",
    ]
    failure = {"workload": name, "input": index, "traced": traced,
               "admitted": 0, "terminal": 0, "rejected": 0}
    try:
        completed = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        return {**failure, "problems": ["repeat hung past the run's deadline"]}
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        return {**failure, "problems": [f"repeat exited with {completed.returncode}"]}
    return json.loads(lines[-1])


# -- a benchmark run ---------------------------------------------------------


def _measured(docs: List[Dict]) -> List[Dict]:
    """The repeats that ran to the end; a crashed one has only problems."""
    return [doc for doc in docs if "drive_s" in doc]


def _summarize(untraced: List[Dict], traced: List[Dict]) -> Dict:
    """Correctness verdict of one workload's repeats, and trace overhead.

    Both lists are in round order; in a traced run the untraced and the
    traced repeat of one round drive the same input.
    """
    problems = [p for doc in untraced + traced for p in doc["problems"]]
    digests: Dict[str, set] = {}
    for doc in _measured(untraced):
        digests.setdefault(str(doc["input"]), set()).add(doc["digest"])
    for index, seen in sorted(digests.items()):
        if len(seen) > 1:
            problems.append(f"input {index}: simulated results differ across repeats")
    for doc in _measured(traced):
        if digests.get(str(doc["input"]), {doc["digest"]}) != {doc["digest"]}:
            problems.append(
                f"input {doc['input']}: traced repeat changed the simulated results"
            )
    overheads = [
        traced_doc["drive_s"] / plain_doc["drive_s"] - 1.0
        for plain_doc, traced_doc in zip(untraced, traced)
        if "drive_s" in plain_doc and "drive_s" in traced_doc
    ]
    summary = {
        "problems": problems,
        "digests": {
            index: seen.pop() if len(seen) == 1 else None
            for index, seen in digests.items()
        },
        "repeats": len(_measured(untraced)),
        "traced_repeats": len(_measured(traced)),
    }
    if overheads:
        summary["trace_overhead_frac"] = _median(overheads)
    return summary


def _value(
    name: str, untraced: List[Dict], traced: List[Dict], summary: Dict
) -> float:
    """Median of one named metric over the repeats that measure it,
    untraced ones first; 0 where the workload does not reach it."""
    if name in summary:
        return summary[name]
    if untraced and name in untraced[0]:
        return _median([doc[name] for doc in untraced])
    source = untraced if untraced and name in untraced[0]["values"] else traced or untraced
    return _median([doc["values"].get(name, 0.0) for doc in source])


def _per_repeat(spec: Dict, docs: List[Dict]) -> List[Dict]:
    """The declared metrics every repeat measures: the end-to-end ones,
    then the per-layer wall times (``jobs_per_s``, ``step_p50_ms``)."""
    return [
        metric for metric in spec["end_to_end"] + spec["per_layer"]
        if docs and metric["name"] in docs[0]
    ]


def _report(
    name: str, untraced: List[Dict], traced: List[Dict], summary: Dict, spec: Dict
) -> None:
    """Print one workload's human-readable results."""
    print(f"== {name}: {summary['repeats']} untraced repeats of "
          f"{len(summary['digests'])} inputs"
          + (f", {summary['traced_repeats']} traced" if traced else "") + " ==")
    print("measured per repeat (median [q1, q3] over repeats):")
    for metric in _per_repeat(spec, untraced):
        q1, median, q3 = _quartiles([doc[metric["name"]] for doc in untraced])
        print(f"  {metric['name']:<16} {median:>12.4f} {metric['unit']:<6} "
              f"[{q1:.4f}, {q3:.4f}]")
    values = untraced[0]["values"] if untraced else {}
    print("simulated (median over inputs; each input is deterministic):")
    for key in sorted(k for k in values if k.startswith("sim.")):
        print(f"  {key:<24} {_value(key, untraced, [], summary):.6g}")
    service = sorted(k for k in values if k.startswith("service."))
    if service:
        print("service closed loop (excludes queueing ahead of the service):")
        for key in service:
            limit = f"  (limit {SERVICE_LIMIT_MS:g} ms)" if key == "service.decision.p99_ms" else ""
            unit = " ms" if key.endswith("_ms") else ""
            print(f"  {key:<24} {_value(key, untraced, [], summary):.4f}{unit}{limit}")
    verdict = "FAILED: " + "; ".join(summary["problems"]) if summary["problems"] else "ok"
    print(f"correctness: {verdict}")
    if not traced:
        return
    chosen = sorted(traced, key=lambda doc: doc["wall_s"])[len(traced) // 2]
    wall = chosen["wall_s"]
    print(f"per-layer self time (the median-wall traced repeat, wall {wall:.3f} s):")
    print(f"  {'layer':<22} {'calls':>8} {'self_s':>9} {'share':>7} {'p50_ms':>9} {'p99_ms':>9}")
    total = 0.0
    for layer, calls, self_s, p50, p99 in chosen["table"]:
        total += self_s
        print(f"  {layer:<22} {calls:>8} {self_s:>9.4f} {self_s / wall:>7.1%} "
              f"{p50:>9.3f} {p99:>9.3f}")
    print(f"  {'sum of self times':<22} {'':>8} {total:>9.4f} {total / wall:>7.1%}")
    print(f"  unattributed_frac {chosen['values']['unattributed_frac']:.4f}, "
          f"trace_overhead_frac {summary.get('trace_overhead_frac', float('nan')):.4f}")
    missing = chosen.get("missing") or []
    print("  missing boundaries: " + (", ".join(missing) if missing else "none"))


def _parse(argv: Sequence[str], names: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="run.py", description="Run the end-to-end benchmark."
    )
    parser.add_argument("--workload", default="all", choices=["all", *names])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="wall-time budget per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add traced repeats and report per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every workload's job count")
    parser.add_argument("--out", type=Path,
                        help="append the run, every repeat included, as one JSON line")
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == [WORKER]:
        return repeat(argv[1:])
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    if not SPEC.is_file() or not (SRC / "repro" / "__init__.py").is_file():
        print(f"cannot benchmark: {SPEC.name} or the program sources under "
              f"{SRC.name}/ are missing", file=sys.stderr)
        return 2
    spec = _load_spec()
    all_names = [workload["name"] for workload in spec["workloads"]]
    args = _parse(argv, all_names)
    names = all_names if args.workload == "all" else [args.workload]
    traced = bool(args.trace)

    # Round r drives input r % INPUTS.  An untraced run drives every
    # input, and input 0 a second time for the determinism check; a
    # traced run pairs each untraced repeat with a traced one of the
    # same input and needs only two rounds.
    min_rounds = MIN_TRACED_ROUNDS if traced else INPUTS + 1
    runs = {name: ([], []) for name in names}
    started = time.monotonic()
    budget = args.seconds * len(names)
    deadline = started + budget + GRACE_S
    rounds = 0
    while True:
        elapsed = time.monotonic() - started
        if rounds >= min_rounds and elapsed + elapsed / rounds > budget:
            break
        index = rounds % INPUTS
        for name in names:
            untraced_docs, traced_docs = runs[name]
            untraced_docs.append(
                _run_repeat(name, args.seed, index, args.scale, False, deadline)
            )
            if traced:
                traced_docs.append(
                    _run_repeat(name, args.seed, index, args.scale, True, deadline)
                )
        rounds += 1

    metrics: Dict[str, Dict] = {}
    attempted = failed = 0
    correct = True
    document = {
        "seed": args.seed, "scale": args.scale, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds,
        "env": {"python": platform.python_version(),
                "machine": platform.machine(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    for name in names:
        summary = _summarize(*runs[name])
        untraced_docs, traced_docs = (_measured(docs) for docs in runs[name])
        _report(name, untraced_docs, traced_docs, summary, spec)
        correct = correct and not summary["problems"]
        for doc in runs[name][0] + runs[name][1]:
            attempted += doc["admitted"] + doc["rejected"]
            failed += doc["rejected"] + doc["admitted"] - doc["terminal"]
        for metric in declared:
            key = metric["name"] if len(names) == 1 else f"{name}/{metric['name']}"
            metrics[key] = {
                "value": _value(metric["name"], untraced_docs, traced_docs, summary),
                "unit": metric["unit"],
            }
        document["workloads"][name] = {
            "summary": summary, "repeats": runs[name][0], "traced": runs[name][1],
        }
    if args.out is not None:
        with args.out.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(document) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


# -- comparing two sets of runs ----------------------------------------------


def verdict(base: Sequence[float], new: Sequence[float], better: str, bound: float) -> str:
    """Judge the runs ``new`` against the runs ``base`` for one metric.

    ``unresolved`` when either side has fewer than two runs or a
    quartile spread over the bound (unless every new run beats every
    base run), otherwise ``regressed``/``improved`` when the medians
    differ by more than the bound in the worse/better direction, else
    ``unchanged``.
    """
    if len(base) < 2 or len(new) < 2:
        return "unresolved"
    q1a, median_a, q3a = _quartiles(base)
    q1b, median_b, q3b = _quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (median_b - median_a) / median_a
    spread = max((q3a - q1a) / median_a, (q3b - q1b) / median_b)
    if better == "lower":
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if spread > bound:
        return "improved" if all_better else "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def _runs(path: Path) -> List[Dict]:
    """The runs an ``--out`` file holds, one JSON document a line."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _run_values(runs: List[Dict], workload: str, name: str) -> List[float]:
    """Each run's median of one per-repeat metric, as the run reported it."""
    return [
        _median([doc[name] for doc in _measured(run["workloads"][workload]["repeats"])])
        for run in runs if workload in run["workloads"]
    ]


def _digests(runs: List[Dict], workload: str) -> Dict:
    """Simulated-result digests by (seed, scale), the runs that share them."""
    return {
        (run["seed"], run["scale"]): run["workloads"][workload]["summary"]["digests"]
        for run in runs if workload in run["workloads"]
    }


def compare(argv: Sequence[str]) -> int:
    """Print every (workload, end-to-end metric) verdict of set B against
    set A, each an ``--out`` file of one or more runs, beside the
    per-layer wall times every repeat measures.

    A run's value is the metric it reports: the median over its
    untraced repeats.  Exits 1 when any pair regressed.
    """
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two --out files against the BENCHMARK.json bounds.",
    )
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = _load_spec()
    base, new = _runs(args.base), _runs(args.new)
    print(f"{'workload':<15} {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>7} {'bound':>6}  verdict")
    regressed = False
    for workload in [name for name in base[0]["workloads"] if name in new[0]["workloads"]]:
        for metric in _per_repeat(spec, _measured(base[0]["workloads"][workload]["repeats"])):
            name = metric["name"]
            a, b = _run_values(base, workload, name), _run_values(new, workload, name)
            (q1a, median_a, q3a), (q1b, median_b, q3b) = _quartiles(a), _quartiles(b)
            if "bound" in metric:
                result = verdict(a, b, metric["better"], metric["bound"])
                bound = f"{metric['bound']:.0%}"
            else:
                result, bound = "per-layer: no verdict", "-"
            regressed = regressed or result == "regressed"
            print(f"{workload:<15} {name:<12} "
                  f"{f'{median_a:.4f} [{q1a:.4f}, {q3a:.4f}]':>30} "
                  f"{f'{median_b:.4f} [{q1b:.4f}, {q3b:.4f}]':>30} "
                  f"{(median_b - median_a) / median_a:>+7.1%} {bound:>6}  {result}")
        a, b = _digests(base, workload), _digests(new, workload)
        common = set(a) & set(b)
        if not common:
            outcome = "not compared (no run of a common seed)"
        elif all(a[key] == b[key] for key in common):
            outcome = "identical"
        else:
            outcome = "DIFFER (the schedule changed)"
        print(f"{workload:<15} simulated results {outcome}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
