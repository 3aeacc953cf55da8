"""One workload run in its own process: ``python3 -m perfbench.child``.

``run.py`` starts this module and passes the wall-clock time at which it
did so, so ``setup_s`` counts interpreter start and imports.  The last
stdout line is a JSON object with the raw metric values; ``run.py``
attaches units and prints the benchmark's result line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import dataclass

import numpy  # noqa: F401  (timed with the other imports)

import repro.engine  # noqa: F401
import repro.serve  # noqa: F401

from . import layers, serving, spans, sweep


@dataclass
class RunContext:
    seed: int
    seconds: float
    workers: int
    out_dir: str
    import_s: float
    recorder: spans.Recorder | None


def run_workload(name: str, run: RunContext):
    if name == "sim-sweep":
        return sweep.sim_sweep(run)
    return serving.serve_workload(name, run)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("serve-w54", "serve-churn", "sim-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--spawned-ns", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)
    import_s = (time.time_ns() - args.spawned_ns) / 1e9
    source = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([repro.engine.__file__, source]) != source:
        print(f"repro was imported from {repro.engine.__file__}, not from "
              f"{source}", file=sys.stderr)
        return 2

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        layers.instrument(recorder)
    origin_ns = time.perf_counter_ns()
    run = RunContext(seed=args.seed, seconds=args.seconds,
                     workers=args.workers, out_dir=args.out_dir,
                     import_s=import_s, recorder=recorder)
    try:
        outcome = run_workload(args.workload, run)
    finally:
        if recorder is not None:
            recorder.restore()

    end_to_end = dict(outcome.end_to_end)
    end_to_end["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    metrics = end_to_end
    if recorder is not None:
        metrics = layers.per_layer_metrics(
            recorder, outcome.window, outcome.queries, outcome.batches,
            outcome.batch_queries, outcome.latency_ns,
            outcome.artifact_bytes)
        path = os.path.join(args.out_dir, f"{args.workload}-seed"
                            f"{args.seed}.trace.json")
        spans.write_chrome_trace(path, recorder.spans, origin_ns)
        print("traced end-to-end (not a result): "
              + json.dumps(end_to_end, sort_keys=True))
        print(f"chrome trace: {os.path.relpath(path)} "
              f"({len(recorder.spans)} spans)")
    print(json.dumps({
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        # An operation that raises ends the run with a non-zero exit,
        # so a completed run has no failed operations to count.
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
