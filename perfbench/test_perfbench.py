"""The benchmark's own tests: span arithmetic, checks, metric names.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, layers
from perfbench.outcome import END_TO_END, Outcome
from perfbench.spans import Recorder, Span, outermost, self_time_ns

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def span(span_id, parent, name, start, end, tag=None) -> Span:
    return Span(span_id, parent, name, start, end, thread=1, tag=tag)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_merged_clipped_children():
    parent = span(1, None, "p", 0, 100)
    children = [span(2, 1, "c", 10, 30), span(3, 1, "c", 20, 50),
                span(4, 1, "c", 60, 70), span(5, 1, "c", 90, 120)]
    # Covered: [10, 50] + [60, 70] + [90, 100] = 60 ns.
    assert self_time_ns(parent, children) == 40
    assert self_time_ns(parent, []) == 100


def test_backend_metrics_use_self_time_per_query():
    recorder = Recorder()
    recorder.spans += [
        span(1, None, "backend.mod_up", 1_000_000, 5_000_000),
        span(2, 1, "backend.ntt_forward", 2_000_000, 3_000_000),
        span(3, 1, "backend.ntt_inverse", 3_000_000, 4_000_000),
        # Outside the timed window: not counted.
        span(4, None, "backend.add", 50_000_000, 60_000_000),
    ]
    out = layers.per_layer_metrics(
        recorder, window=(0, 10_000_000), queries=2, batches=0,
        batch_queries=0.0, latency_ns={}, artifact_bytes=[])
    assert out["backend.mod_up_ms"] == pytest.approx(1.0)   # (4 - 2) / 2
    assert out["backend.ntt_ms"] == pytest.approx(1.0)      # 2 / 2
    assert out["backend.add_ms"] == 0.0
    assert out["backend.calls"] == pytest.approx(1.5)


def test_wait_is_latency_minus_executor_run():
    recorder = Recorder()
    recorder.spans += [span(1, None, "serve.exec", 10, 40,
                            tag={"tenant": "t", "queries": [7, 8]})]
    out = layers.per_layer_metrics(
        recorder, window=(0, 100), queries=2, batches=1, batch_queries=2.0,
        latency_ns={7: 2_000_030, 8: 4_000_030}, artifact_bytes=[])
    assert out["serve.wait_ms"] == pytest.approx(3.0)
    assert out["serve.exec_ms"] == pytest.approx(30 / 1e6)


def test_outermost_skips_nested_spans_of_the_same_name():
    spans = [span(1, None, "engine.compile", 0, 10),
             span(2, 1, "engine.compile", 1, 9),
             span(3, None, "engine.compile", 20, 30)]
    assert [s.span_id for s in outermost(spans, "engine.compile")] == [1, 3]


def test_recorder_tracks_parents_and_restores_patches():
    import types
    module = types.ModuleType("repro_perfbench_fake")
    module.leaf = lambda x: x + 1
    sys.modules[module.__name__] = module
    try:
        recorder = Recorder()
        recorder.instrument(module, "leaf", "fake.leaf")
        with recorder.span("outer"):
            assert module.leaf(1) == 2
        inner, outer = recorder.spans
        assert inner.parent == outer.span_id and outer.parent is None
        recorder.restore()
        assert not hasattr(module.leaf, "__perfbench__")
    finally:
        del sys.modules[module.__name__]


# -- checks ------------------------------------------------------------------

WEIGHTS = np.linspace(0.5, 1.0, 16)


def test_corrupted_served_result_fails():
    rng = np.random.default_rng(0)
    payloads = rng.uniform(0.1, 1.0, (20, 16))
    served = [np.round(np.array([v]), 2)
              for v in checks.expected_scores(payloads, WEIGHTS)]
    assert checks.served_results(payloads, served, WEIGHTS, 2) == []
    served[7] = served[7] + 0.02
    assert checks.served_results(payloads, served, WEIGHTS, 2)
    served[7] = np.array([np.nan])
    assert checks.served_results(payloads, served, WEIGHTS, 2)


def test_batch_dependence_fails():
    alone = [np.array([1.25]), np.array([3.5])]
    assert checks.batch_independent(alone, [a.copy() for a in alone]) == []
    assert checks.batch_independent(
        alone, [alone[0], np.nextafter(alone[1], 10)])


def test_accounting_counts_every_query():
    good = {"submitted": 5, "served": 5, "rejected": 0, "expired": 0,
            "failed_queries": 0}
    assert checks.accounting(good, 5) == []
    assert checks.accounting(good, 4)
    assert checks.accounting(dict(good, rejected=1), 5)


def test_time_outside_table8_band_fails():
    from repro.baselines import TABLE8
    times = {(row, name): TABLE8[row][f"{name}_ms"]
             for row in ("Baseline MI100", "GME")
             for name in ("boot", "helr", "resnet")}
    assert checks.table8_band(times, TABLE8) == []
    for factor in (1.4, 0.6):
        skewed = dict(times)
        skewed["GME", "resnet"] *= factor
        assert checks.table8_band(skewed, TABLE8)


def test_ladder_that_gets_slower_fails():
    assert checks.ladder_monotone("w", [("a", 3.0), ("b", 2.0)]) == []
    assert checks.ladder_monotone("w", [("a", 3.0), ("b", 3.5)])


# -- metric names ------------------------------------------------------------

def test_declared_names_match_benchmark_json():
    declared = spec()
    assert tuple(m["name"] for m in declared["end_to_end"]) == END_TO_END
    assert tuple(m["name"] for m in declared["per_layer"]) == layers.PER_LAYER
    out = layers.per_layer_metrics(Recorder(), (0, 1), 0, 0, 0.0, {}, [])
    assert tuple(out) == layers.PER_LAYER


def test_outcome_rejects_missing_metric():
    with pytest.raises(ValueError):
        Outcome(end_to_end={"served_qps": 1.0}, attempted=1, failures=[],
                window=(0, 1), queries=1)


def run_benchmark(cwd, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.slow
def test_printed_metric_names_match_benchmark_json():
    declared = spec()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = run_benchmark(ROOT, "--workload", "serve-churn", "--seed",
                             "7", "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().split("\n")[-1])
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared[key]]
        for metric in declared[key]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(tmp_path, "--workload", "serve-churn", "--seed",
                         "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
