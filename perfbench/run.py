"""Benchmark entry point.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-w54 --seed 1 --seconds 25 --trace 0

Runs one workload (``serve-w54``, ``serve-churn`` or ``sim-sweep``) in
a child process against the checkout's own ``src/``, checks its
outputs, and prints as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` wraps each layer's
public calls in spans and reports the per-layer metrics instead, and
writes a Chrome trace-event file under ``.perfbench_out/``.  The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: Longest a run may take; the child is killed after it.
CHILD_TIMEOUT_S = 170


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workers", type=int, default=2,
                        help="serve-* worker count (default 2)")
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    engine = os.path.join(ROOT, "src", "repro", "engine", "__init__.py")
    if not os.path.isfile(engine):
        return fail(f"no src/repro package under {ROOT}")
    try:
        with open(spec_path, encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read {spec_path}: {exc}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        return fail(f"unknown workload {args.workload!r}; one of {names}")
    if args.seconds < 1 or args.workers < 1:
        return fail("--seconds and --workers must be at least 1")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT]
        + [p for p in [env.get("PYTHONPATH")] if p])
    command = [sys.executable, "-m", "perfbench.child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workers", str(args.workers), "--out-dir", OUT_DIR,
               "--spawned-ns", str(time.time_ns())]
    try:
        child = subprocess.run(command, cwd=ROOT, env=env, text=True,
                               stdout=subprocess.PIPE,
                               timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"{args.workload} ran past {CHILD_TIMEOUT_S} s")
    lines = child.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if child.returncode != 0:
        return fail(f"{args.workload} exited with {child.returncode}")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        return fail(f"{args.workload} printed no result")
    if set(raw["metrics"]) != set(units):
        return fail(f"metric names {sorted(raw['metrics'])} differ from "
                    f"BENCHMARK.json {sorted(units)}")
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": raw["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
