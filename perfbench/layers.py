"""Which calls the traced run wraps, and how spans become layer metrics.

The layers are the repo's modules: ``repro.serve`` (L4), ``repro.engine``
/ ``repro.trace`` / ``repro.analysis`` (L2), ``repro.fhe`` (L1),
``repro.fhe.backend`` (L0), ``repro.blocksim`` / ``repro.gme`` (the
simulator) and ``repro.artifact`` (L3).  README.md maps every metric
below to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics

from .spans import Recorder, Span, children_of, outermost, self_time_ns

#: Backend metric -> the backend methods whose self time it sums.
BACKEND_GROUPS = {
    "backend.ntt_ms": ("ntt_forward", "ntt_inverse"),
    "backend.mul_ms": ("mul", "mont_mul", "scalar_mul"),
    "backend.add_ms": ("add", "sub", "neg"),
    "backend.mod_up_ms": ("mod_up",),
    "backend.mod_down_ms": ("mod_down",),
    "backend.rescale_ms": ("rescale_last",),
    "backend.automorphism_ms": ("automorphism",),
}

#: fhe.* metrics: per-call medians of these spans.
FHE_SPANS = ("encrypt", "decrypt", "poly_mult", "rotate", "square",
             "rescale", "keyswitch", "context", "rotation_key")

#: Every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    "serve.batches", "serve.batch_queries", "serve.wait_ms",
    "serve.exec_ms", "serve.key_hit_ratio", "serve.keygen_ms",
    "engine.execute_ms",
    *(f"fhe.{name}_ms" for name in FHE_SPANS),
    *BACKEND_GROUPS, "backend.calls",
    "engine.compile_ms", "trace.lower_ms", "analysis.lint_ms",
    "engine.simulate_ms", "engine.profile_ms",
    "blocksim.blocks_per_s", "blocksim.cost_ms",
    "gme.labs_schedule_ms",
    "artifact.save_ms", "artifact.load_ms", "artifact.kb",
)


def _batch_tag(args, kwargs):
    batch = args[1]
    return {"tenant": batch.tenant,
            "queries": [id(query.values) for query in batch.queries]}


def _graph_tag(args, kwargs):
    return {"blocks": args[1].number_of_nodes()}


def instrument(recorder: Recorder) -> None:
    """Wrap every layer call the per-layer metrics read."""
    from repro import artifact, fhe, trace
    from repro.blocksim.blocks import BlockCostModel
    from repro.blocksim.simulator import BlockGraphSimulator
    from repro.engine import plan
    from repro.fhe import keys
    from repro.fhe.backend.reference import ReferenceBackend
    from repro.fhe.backend.stacked import StackedBackend
    from repro.fhe.evaluator import CkksEvaluator
    from repro.gme.labs import LabsScheduler
    from repro.serve.cache import TenantKeyCache
    from repro.serve.server import RealExecutor

    sites = [
        (RealExecutor, "run", "serve.exec", _batch_tag),
        (TenantKeyCache, "get", "serve.key_get", None),
        (plan.ExecutablePlan, "execute", "engine.execute", None),
        (fhe.CkksContext, "__init__", "fhe.context", None),
        (fhe.CkksContext, "encrypt", "fhe.encrypt", None),
        (fhe.CkksContext, "decrypt", "fhe.decrypt", None),
        (CkksEvaluator, "poly_mult", "fhe.poly_mult", None),
        (CkksEvaluator, "he_rotate", "fhe.rotate", None),
        (CkksEvaluator, "he_square", "fhe.square", None),
        (CkksEvaluator, "rescale", "fhe.rescale", None),
        (keys, "key_switch", "fhe.keyswitch", None),
        (keys.KeyGenerator, "rotation_key", "fhe.rotation_key", None),
        (plan, "compile_program", "engine.compile", None),
        (trace, "lower_expanded_trace", "trace.lower", None),
        (plan.ExecutablePlan, "lint", "analysis.lint", None),
        (plan.ExecutablePlan, "simulate", "engine.simulate", None),
        (plan.ExecutablePlan, "profile", "engine.profile", None),
        (BlockGraphSimulator, "run", "blocksim.run", _graph_tag),
        (LabsScheduler, "schedule", "gme.labs_schedule", None),
        (plan.ExecutablePlan, "save", "artifact.save", None),
        (artifact, "load_plan", "artifact.load", None),
    ]
    for owner, attr, name, tag_of in sites:
        recorder.instrument(owner, attr, name, tag_of)
    recorder.instrument(BlockCostModel, "cost", "blocksim.cost",
                        count_only=True)
    for methods in BACKEND_GROUPS.values():
        for method in methods:
            for backend in (StackedBackend, ReferenceBackend):
                recorder.instrument(backend, method, f"backend.{method}")


def _ms(ns: float) -> float:
    return ns / 1e6


def _median_ms(spans: list[Span]) -> float:
    if not spans:
        return 0.0
    return _ms(statistics.median(s.duration_ns for s in spans))


def _mean_ms(spans: list[Span]) -> float:
    if not spans:
        return 0.0
    return _ms(sum(s.duration_ns for s in spans) / len(spans))


def per_layer_metrics(recorder: Recorder, window: tuple[int, int],
                      queries: int, batches: int, batch_queries: float,
                      latency_ns: dict[int, int],
                      artifact_bytes: list[int]) -> dict[str, float]:
    """Fold a traced run's spans into the per-layer metrics.

    ``window`` bounds the timed phase (``perf_counter_ns``); serve and
    backend metrics count only spans that start inside it, and backend
    metrics are per ``queries`` served in it.  ``latency_ns`` maps a
    query id (the payload's ``id``, which the executor span tags carry)
    to its submit-to-result latency.  Every other metric covers the
    whole run.  A layer the workload never calls reports 0.
    """
    spans = recorder.spans
    kids = children_of(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    lo, hi = window

    def in_window(name: str) -> list[Span]:
        return [s for s in by_name.get(name, []) if lo <= s.start_ns < hi]

    out: dict[str, float] = {
        "serve.batches": float(batches),
        "serve.batch_queries": float(batch_queries),
    }

    execs = in_window("serve.exec")
    waits = []
    for span in execs:
        for query in span.tag["queries"]:
            if query in latency_ns:
                waits.append(latency_ns[query] - span.duration_ns)
    out["serve.wait_ms"] = _ms(statistics.median(waits)) if waits else 0.0
    out["serve.exec_ms"] = _median_ms(execs)

    gets = by_name.get("serve.key_get", [])
    misses = [s for s in gets
              if any(c.name == "fhe.context" for c in kids.get(s.span_id, ()))]
    out["serve.key_hit_ratio"] = (
        (len(gets) - len(misses)) / len(gets) if gets else 0.0)
    out["serve.keygen_ms"] = _ms(sum(s.duration_ns for s in misses))

    out["engine.execute_ms"] = _median_ms(by_name.get("engine.execute", []))
    for name in FHE_SPANS:
        out[f"fhe.{name}_ms"] = _median_ms(by_name.get(f"fhe.{name}", []))

    per_query = max(queries, 1)
    calls = 0
    for metric, methods in BACKEND_GROUPS.items():
        total = 0
        for method in methods:
            for span in in_window(f"backend.{method}"):
                total += self_time_ns(span, kids.get(span.span_id, []))
                calls += 1
        out[metric] = _ms(total) / per_query
    out["backend.calls"] = calls / per_query

    out["engine.compile_ms"] = _mean_ms(outermost(spans, "engine.compile"))
    out["trace.lower_ms"] = _mean_ms(by_name.get("trace.lower", []))
    out["analysis.lint_ms"] = _mean_ms(by_name.get("analysis.lint", []))
    simulated = [s for s in by_name.get("engine.simulate", [])
                 if any(c.name == "blocksim.run"
                        for c in kids.get(s.span_id, ()))]
    out["engine.simulate_ms"] = _mean_ms(simulated)
    out["engine.profile_ms"] = _mean_ms(by_name.get("engine.profile", []))

    runs = by_name.get("blocksim.run", [])
    run_ns = sum(s.duration_ns for s in runs)
    out["blocksim.blocks_per_s"] = (
        sum(s.tag["blocks"] for s in runs) / (run_ns / 1e9) if run_ns else 0.0)
    cost_calls, cost_ns = recorder.counts.get("blocksim.cost", (0, 0))
    out["blocksim.cost_ms"] = _ms(cost_ns / cost_calls) if cost_calls else 0.0
    out["gme.labs_schedule_ms"] = _mean_ms(
        by_name.get("gme.labs_schedule", []))

    out["artifact.save_ms"] = _mean_ms(by_name.get("artifact.save", []))
    out["artifact.load_ms"] = _mean_ms(by_name.get("artifact.load", []))
    out["artifact.kb"] = (sum(artifact_bytes) / len(artifact_bytes) / 1024
                          if artifact_bytes else 0.0)
    return out
