"""What a workload hands back to the runner, and the shared statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: End-to-end metrics every workload reports; the runner adds
#: ``peak_rss_mb``, the rest come from the workload.
END_TO_END = ("served_qps", "query_p50_ms", "query_p90_ms", "setup_s",
              "peak_rss_mb")


@dataclass
class Outcome:
    """One workload run: its end-to-end metrics and what per-layer
    metrics need from it.

    ``window`` bounds the timed phase in ``perf_counter_ns``;
    ``queries`` is how many queries (serve-*) or design points
    (sim-sweep) it completed; ``latency_ns`` maps a served query's id to
    its submit-to-result latency.
    """

    end_to_end: dict[str, float]
    attempted: int
    failures: list[str]
    window: tuple[int, int]
    queries: int
    batches: int = 0
    batch_queries: float = 0.0
    latency_ns: dict[int, int] = field(default_factory=dict)
    artifact_bytes: list[int] = field(default_factory=list)

    def __post_init__(self):
        expected = set(END_TO_END) - {"peak_rss_mb"}
        if set(self.end_to_end) != expected:
            raise ValueError(f"end-to-end metrics {sorted(self.end_to_end)}"
                             f" are not {sorted(expected)}")


def percentile_ms(samples_ns, q: float) -> float:
    """The ``q``-th percentile of nanosecond samples, in ms."""
    return float(np.percentile(np.asarray(samples_ns, dtype=float), q)) / 1e6
