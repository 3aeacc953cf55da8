"""sim-sweep: cold strict compiles of the catalog, then the figure sweep.

A round compiles boot, helr and resnet at paper parameters with strict
lint, simulates each plan over the Figure 6-8 feature grid plus
key-residency windows, profiles it under full GME, saves it as
``.rpa``, loads it back and re-simulates the loaded copy, checking the
properties the engine promises on the way.  No FHE arithmetic runs.
"""

from __future__ import annotations

import os
import statistics
import time

from . import checks
from .outcome import Outcome, percentile_ms

#: Catalog workloads compiled cold in every round.
CATALOG = ("boot", "helr", "resnet")

#: Figure 8's LDS sizes (MB); the scale is relative to 7.5 MB.
LDS_SIZES_MB = (7.5, 11.5, 15.5, 19.5, 23.5, 27.5, 31.5)

#: Key-residency windows swept besides the default of 6.
KEY_RESIDENCY_WINDOWS = (0, 3, 12)

#: Set-up repetitions; setup_s takes their median.
SETUP_REPS = 5


def figure_grid() -> list:
    """Figure 6 ladder, Figure 7's extra point, Figure 8's LDS sizes and
    the key-residency windows, each feature set once, ladder first."""
    from repro.gme.features import (GME_FULL, cumulative_configs,
                                    figure7_configs)
    grid = list(cumulative_configs())
    grid += figure7_configs()
    grid += [GME_FULL.with_lds_scale(size / LDS_SIZES_MB[0])
             for size in LDS_SIZES_MB]
    grid += [GME_FULL.with_key_residency_window(window)
             for window in KEY_RESIDENCY_WINDOWS]
    return list(dict.fromkeys(grid))


def sweep_round(plans: dict, grid: list, out_dir: str):
    """Simulate, profile, save, load and re-simulate each plan.

    A design point is one feature set simulated on every catalog plan,
    the way Figures 6-8 read; the re-simulation of the three reloaded
    plans under full GME is one more.  Returns (design-point latencies
    in ns, {(plan, features): metrics}, artifact sizes in bytes, check
    failures).
    """
    from repro.artifact import load_plan
    from repro.gme.features import GME_FULL
    point_ns, results, sizes, failures = [], {}, [], []
    for features in grid:
        start = time.perf_counter_ns()
        for name, plan in plans.items():
            results[name, features] = plan.simulate(features)
        point_ns.append(time.perf_counter_ns() - start)
    resimulated_ns = 0
    for name, plan in plans.items():
        full = results[name, GME_FULL]
        failures += checks.profile_matches(
            name, plan.profile(GME_FULL).total_cycles, full.cycles)
        path = os.path.join(out_dir, f"{name}.rpa")
        plan.save(path)
        sizes.append(os.path.getsize(path))
        loaded = load_plan(path)
        start = time.perf_counter_ns()
        reloaded = loaded.simulate(GME_FULL)
        resimulated_ns += time.perf_counter_ns() - start
        failures += checks.artifact_roundtrip(
            name, plan.fingerprint, loaded.fingerprint, full.cycles,
            reloaded.cycles)
    point_ns.append(resimulated_ns)
    return point_ns, results, sizes, failures


def sim_sweep(run) -> Outcome:
    from repro import engine
    from repro.baselines import TABLE8
    from repro.fhe.params import CkksParameters
    from repro.gme.features import BASELINE, GME_FULL, cumulative_configs

    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        params = CkksParameters.paper()
        grid = figure_grid()
        setups.append(time.perf_counter() - start)

    ladder = cumulative_configs()
    sweeps, point_ns, sizes, failures = [], [], [], []
    began = time.perf_counter()
    window_start = time.perf_counter_ns()
    # Whole rounds only: another round starts if it should end within
    # --seconds, judged by the last round's length.
    round_s = 0.0
    while not sweeps or time.perf_counter() - began + round_s <= run.seconds:
        round_began = time.perf_counter()
        engine.clear_plan_cache()
        plans = {name: engine.compile(name, params, lint="strict")
                 for name in CATALOG}
        for name, plan in plans.items():
            failures += checks.lint_clean(name, plan.lint_report)
        start = time.perf_counter()
        points, results, saved, found = sweep_round(plans, grid, run.out_dir)
        sweeps.append(time.perf_counter() - start)
        round_s = time.perf_counter() - round_began
        point_ns += points
        sizes += saved
        failures += found
        for name in CATALOG:
            failures += checks.ladder_monotone(
                name, [(f.name, results[name, f].cycles) for f in ladder])
        failures += checks.table8_band(
            {(row, name): results[name, features].time_ms()
             for row, features in (("Baseline MI100", BASELINE),
                                   ("GME", GME_FULL))
             for name in CATALOG}, TABLE8)
    window = (window_start, time.perf_counter_ns())

    return Outcome(
        end_to_end={
            "served_qps": len(point_ns) / sum(sweeps),
            "query_p50_ms": percentile_ms(point_ns, 50),
            "query_p90_ms": percentile_ms(point_ns, 90),
            "setup_s": run.import_s + statistics.median(setups),
        },
        attempted=len(point_ns), failures=failures, window=window,
        queries=len(point_ns), artifact_bytes=sizes)
