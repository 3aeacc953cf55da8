"""Correctness checks every benchmark run applies to its outputs.

Each check returns a list of failure messages (empty when it passes).
They compare against numpy plaintext results, the published Table 8
rows, and properties the method must have; none compares against a
saved copy of earlier output.
"""

from __future__ import annotations

import numpy as np

#: Relative band around the published Table 8 times, the one
#: benchmarks/test_table8_workloads.py uses.
TABLE8_BAND = 0.35


def expected_scores(payloads: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The scoring program in plaintext: ``(sum_j w_j * x_j) ** 2``."""
    return (np.asarray(payloads, dtype=float) @ weights) ** 2


def served_results(payloads, results, weights, decimals: int) -> list[str]:
    """Every served score within one ``10**-decimals`` step of numpy."""
    if len(payloads) != len(results):
        return [f"{len(results)} results for {len(payloads)} queries"]
    if not len(payloads):
        return []
    expected = expected_scores(np.asarray(payloads), weights)
    got = np.array([np.asarray(r, dtype=float).ravel()[0] for r in results])
    error = np.abs(got - expected)
    bad = np.flatnonzero(~(error <= 10.0 ** -decimals))
    if not len(bad):
        return []
    worst = bad[np.argmax(error[bad])]
    return [f"{len(bad)} of {len(results)} served results differ from "
            f"numpy by more than 1e-{decimals}; worst: got {got[worst]!r}, "
            f"expected {expected[worst]!r}"]


def batch_independent(alone, batched) -> list[str]:
    """Probes served alone and inside full batches decode identically."""
    failures = []
    for index, (a, b) in enumerate(zip(alone, batched)):
        if not np.array_equal(np.asarray(a), np.asarray(b)):
            failures.append(f"probe {index}: alone {a!r} != batched {b!r}")
    if len(alone) != len(batched):
        failures.append(f"{len(alone)} lone probe results, "
                        f"{len(batched)} batched")
    return failures


def accounting(snapshot: dict, completed: int) -> list[str]:
    """Submitted equals served equals completed; nothing refused."""
    failures = []
    if not snapshot["submitted"] == snapshot["served"] == completed:
        failures.append(f"submitted {snapshot['submitted']}, served "
                        f"{snapshot['served']}, clients got {completed}")
    for field in ("rejected", "expired", "failed_queries"):
        if snapshot[field]:
            failures.append(f"{snapshot[field]} queries {field}")
    return failures


def profile_matches(name: str, profile_cycles: float,
                    simulate_cycles: float) -> list[str]:
    if profile_cycles != simulate_cycles:
        return [f"{name}: profile total {profile_cycles!r} != simulate "
                f"{simulate_cycles!r} cycles"]
    return []


def artifact_roundtrip(name: str, fingerprint: str, loaded_fingerprint: str,
                       cycles: float, loaded_cycles: float) -> list[str]:
    failures = []
    if fingerprint != loaded_fingerprint:
        failures.append(f"{name}: reloaded fingerprint {loaded_fingerprint}"
                        f" != compiled {fingerprint}")
    if cycles != loaded_cycles:
        failures.append(f"{name}: reloaded plan simulates {loaded_cycles!r}"
                        f" cycles, compiled plan {cycles!r}")
    return failures


def ladder_monotone(name: str, ladder: list[tuple[str, float]]) -> list[str]:
    """Cycles never increase along the Figure 6 ladder."""
    failures = []
    for (prev_label, prev), (label, cycles) in zip(ladder, ladder[1:]):
        if cycles > prev:
            failures.append(f"{name}: {label} takes {cycles:.0f} cycles, "
                            f"more than {prev_label} ({prev:.0f})")
    return failures


def table8_band(times_ms: dict[tuple[str, str], float],
                published: dict) -> list[str]:
    """Simulated times within +-35% of the published Table 8 rows.

    ``times_ms`` maps (row label, workload) to the simulated time.
    """
    failures = []
    for (row, workload), measured in sorted(times_ms.items()):
        paper = published[row][f"{workload}_ms"]
        if not abs(measured - paper) <= TABLE8_BAND * paper:
            failures.append(f"Table 8 {row}/{workload}: simulated "
                            f"{measured:.1f} ms, published {paper} ms "
                            f"(band +-{TABLE8_BAND:.0%})")
    return failures


def lint_clean(name: str, report) -> list[str]:
    errors = report.errors if report is not None else None
    if errors is None:
        return [f"{name}: no lint report"]
    if errors:
        return [f"{name}: strict lint reported {len(errors)} errors"]
    return []
