#!/usr/bin/env python
"""Metric regression gate for experiment sweeps.

Default mode compares the key metrics (average JCT and makespan per
run id) from one or more sweep JSONL stores against a committed
baseline JSON and fails when any run moved by more than the
tolerance, in either direction.  Shard stores can be passed together
— they are merged before diffing, so the CI matrix uploads its three
shard artifacts and this gate checks the union.

The sweep is deterministic, so its gate is two-sided: an unexplained
improvement is as suspect as a regression, and CI runs it with
``--tolerance 0`` (every value must equal the baseline exactly).  A
change that moves numbers on purpose commits a refreshed baseline with
``--update``.  Run ids present in only one side always fail the gate:
a missing run means the sweep grid silently shrank, a new run means
the baseline is stale — both want an explicit ``--update``.

Usage::

    python tools/diff_metrics.py shard-*.jsonl --baseline benchmarks/baselines/sweep_metrics.json \
        --tolerance 0
    python tools/diff_metrics.py shard-*.jsonl --baseline ... --update

Exit codes: 0 clean, 1 regression/mismatch, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sweep import load_many  # noqa: E402

#: Metrics gated per run id; all are lower-is-better.
METRICS = ("avg_jct", "makespan")


def collect_metrics(paths: List[str]) -> Dict[str, dict]:
    """Merge sweep stores and reduce them to the gated metrics.

    Returns ``{run_id: {"avg_jct": ..., "makespan": ..., **context}}``
    for every successful run; failed runs raise, since a gate that
    skips errored cells would pass vacuously.
    """
    merged = {run.run_id: run for run in load_many(paths)}
    out: Dict[str, dict] = {}
    for run_id, run in sorted(merged.items()):
        if not run.ok:
            raise SystemExit(
                f"error: run {run_id} is not ok (status={run.status}) — "
                "fix or re-run the sweep before gating"
            )
        sim = run.simulation_result()
        spec = run.spec
        out[run_id] = {
            "experiment": spec.experiment if spec else "?",
            "trace_id": spec.trace_id if spec else "?",
            "label": spec.label if spec else "?",
            "avg_jct": sim.avg_jct,
            "makespan": sim.makespan,
        }
    return out


def diff(
    current: Dict[str, dict],
    baseline: Dict[str, dict],
    tolerance: float,
) -> int:
    """Print the comparison; return the number of gate failures.

    A metric fails when it moved by more than ``tolerance`` (relative)
    in either direction; at tolerance 0 any change fails.
    """
    failures = 0
    missing = sorted(set(baseline) - set(current))
    new = sorted(set(current) - set(baseline))
    for run_id in missing:
        entry = baseline[run_id]
        print(
            f"FAIL {run_id} ({entry['experiment']}/{entry['trace_id']}/"
            f"{entry['label']}): in baseline but missing from results"
        )
        failures += 1
    for run_id in new:
        entry = current[run_id]
        print(
            f"FAIL {run_id} ({entry['experiment']}/{entry['trace_id']}/"
            f"{entry['label']}): not in baseline — refresh it with --update"
        )
        failures += 1

    for run_id in sorted(set(current) & set(baseline)):
        now, then = current[run_id], baseline[run_id]
        for metric in METRICS:
            before, after = float(then[metric]), float(now[metric])
            if after == before:
                continue
            delta = (after - before) / before if before > 0 else float("inf")
            if abs(delta) <= tolerance:
                continue
            print(
                f"FAIL {run_id} ({now['experiment']}/{now['trace_id']}/"
                f"{now['label']}) {metric}: {before!r} -> {after!r} "
                f"({delta:+.1%}) exceeds {'+' if delta > 0 else '-'}"
                f"{tolerance:.0%}"
            )
            failures += 1
    print(
        f"compared {len(set(current) & set(baseline))} run(s): "
        f"{failures} failure(s)"
    )
    return failures


def main(argv: List[str]) -> int:
    """Entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "results", nargs="+",
        help="sweep JSONL store(s); shards are merged before diffing",
    )
    parser.add_argument(
        "--baseline", required=True,
        help="committed baseline JSON to diff against (or write, "
             "with --update)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.05,
        help="allowed relative change per metric (default 0.05); a "
             "move either way fails",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the given results instead of "
             "diffing",
    )
    args = parser.parse_args(argv)
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")

    current = collect_metrics(args.results)
    if not current:
        print("error: no runs found in the given stores", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline)
    if args.update:
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"baseline updated: {baseline_path} ({len(current)} runs)")
        return 0

    if not baseline_path.exists():
        print(
            f"error: baseline {baseline_path} does not exist — generate "
            "it with --update and commit it",
            file=sys.stderr,
        )
        return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failures = diff(current, baseline, args.tolerance)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
