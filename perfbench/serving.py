"""serve-w54 and serve-churn: closed-loop clients against PlanServer.real.

Both serve the repo's reference program, ``scoring_workload`` (a
plaintext-weighted sum, an in-window rotate-and-add reduction and a
squaring), with quantized results.  Clients are a closed loop: each
waits for its reply before sending the next query.  The seed fixes each
client's sequence of tenants and payloads; nothing else about the
program depends on it.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import checks
from .outcome import Outcome, percentile_ms

#: Slots per query window; the N/2 slots of a ring hold N/2/WIDTH queries.
WIDTH = 16
#: Served-result quantization (ServeConfig.round_decimals).
DECIMALS = 2
#: Scoring weights, fixed so the served plan does not depend on the seed.
WEIGHTS = 0.5 + np.arange(WIDTH) / (2.0 * WIDTH)
#: Payload entries are drawn uniformly from this range.
PAYLOAD_RANGE = (0.1, 1.0)
#: Probe payloads for the batch-independence check.
PROBES = 2
#: A probe's exact score sits at least this many quantization steps from
#: a rounding boundary, so CKKS noise cannot tip its rounded value.
PROBE_MARGIN = 0.1


def w54_params():
    """The paper's 54-bit word on an N=2^12 ring, L=5, dnum=3."""
    from repro.fhe.params import CkksParameters
    return CkksParameters._build(ring_degree=1 << 12, scale_bits=50,
                                 prime_bits=54, max_level=5, boot_levels=2,
                                 dnum=3, fft_iterations=2)


def toy_params():
    from repro.fhe.params import CkksParameters
    return CkksParameters.toy()


@dataclass(frozen=True)
class ServeMix:
    """One served traffic mix."""

    params: Callable
    tenants: int
    #: Closed-loop clients; None gives each tenant one full batch of
    #: clients, so every batch closes full.
    clients: int | None
    #: TenantKeyCache.max_resident.
    key_cache: int
    max_wait_s: float
    #: Zipf exponent of the tenant mix; None pins client c to tenant
    #: c // capacity.
    zipf_s: float | None
    #: Set-up repetitions; setup_s is their median.
    setup_reps: int


MIXES = {
    "serve-w54": ServeMix(w54_params, tenants=4, clients=None, key_cache=4,
                          max_wait_s=0.05, zipf_s=None, setup_reps=3),
    "serve-churn": ServeMix(toy_params, tenants=24, clients=6, key_cache=4,
                            max_wait_s=0.002, zipf_s=1.0, setup_reps=5),
}


def tenant_name(index: int) -> str:
    return f"tenant-{index:02d}"


class ClientStream:
    """One client's seeded sequence of (tenant, payload) queries."""

    def __init__(self, seed: int, client: int, mix: ServeMix, capacity: int):
        self.rng = np.random.default_rng([seed, client])
        self.fixed = None
        if mix.zipf_s is None:
            self.fixed = tenant_name(client // capacity)
        else:
            weights = 1.0 / np.arange(1, mix.tenants + 1) ** mix.zipf_s
            self.mix = weights / weights.sum()
        self.tenants = mix.tenants

    def next(self) -> tuple[str, np.ndarray]:
        tenant = self.fixed
        if tenant is None:
            tenant = tenant_name(int(self.rng.choice(self.tenants,
                                                     p=self.mix)))
        return tenant, self.rng.uniform(*PAYLOAD_RANGE, WIDTH)


def probe_payloads(seed: int, count: int = PROBES) -> list[np.ndarray]:
    """Seeded payloads whose exact score is clear of rounding ties."""
    rng = np.random.default_rng([seed, 1 << 20])
    step = 10.0 ** -DECIMALS
    probes = []
    while len(probes) < count:
        payload = rng.uniform(*PAYLOAD_RANGE, WIDTH)
        frac = (checks.expected_scores(payload[None], WEIGHTS)[0] / step) % 1
        if abs(frac - 0.5) >= PROBE_MARGIN:
            probes.append(payload)
    return probes


async def _closed_loop(server, streams, seconds: float, recorder):
    stop = asyncio.Event()
    records = []

    async def client(stream: ClientStream):
        while not stop.is_set():
            tenant, payload = stream.next()
            start = time.perf_counter_ns()
            if recorder is None:
                result = await server.submit(payload, tenant=tenant)
            else:
                with recorder.span("serve.query", tag=id(payload)):
                    result = await server.submit(payload, tenant=tenant)
            records.append((payload, result, time.perf_counter_ns() - start))

    async with server:
        # The stop flag flips between event-loop iterations, so the
        # clients a finished batch wakes all see the same value and
        # the last batches close as full as the rest.
        handle = asyncio.get_running_loop().call_later(seconds, stop.set)
        began = time.perf_counter_ns()
        try:
            await asyncio.gather(*(client(s) for s in streams))
        finally:
            handle.cancel()
        window = (began, time.perf_counter_ns())
        snapshot = server.metrics.snapshot()
    return records, window, snapshot


async def _probe(server, tenant: str, probes, fillers, positions):
    """Probes served one per batch, then inside one full batch."""
    batch = list(fillers)
    # Inserting in ascending position order leaves probe i at positions[i].
    for position, index in sorted((p, i) for i, p in enumerate(positions)):
        batch.insert(position, probes[index])
    async with server:
        alone = [await server.submit(p, tenant=tenant) for p in probes]
        served = await asyncio.gather(
            *(server.submit(x, tenant=tenant) for x in batch))
    return alone, [served[p] for p in positions]


def _set_up(mix: ServeMix, workload):
    """Parameters, a cold strict compile of the served plan, and the
    first tenants' keys.  Returns (executor, lint failures)."""
    from repro.serve import (RealExecutor, TenantKeyCache,
                             clear_serve_caches, shared_plan)
    params = mix.params()
    clear_serve_caches()
    plan = shared_plan(workload, params)
    keys = TenantKeyCache(max_resident=mix.key_cache)
    executor = RealExecutor(workload, params, key_cache=keys,
                            round_decimals=DECIMALS)
    for index in range(min(mix.tenants, mix.key_cache)):
        provision_keys(keys.get(tenant_name(index), params), plan)
    return executor, checks.lint_clean(plan.name, plan.lint_report)


def provision_keys(ctx, plan) -> None:
    """Generate every switching key the plan's trace names, so a
    resident tenant's first batch pays no key generation."""
    for op in plan.trace.ops:
        if op.key == "relin":
            ctx.keygen.relinearization_key(op.level)
        elif op.key == "conj":
            ctx.keygen.conjugation_key(op.level)
        elif op.key is not None:
            ctx.keygen.rotation_key(op.meta["rotation"], op.level)


def serve_workload(name: str, run) -> Outcome:
    from repro.serve import PlanServer, ServeConfig, scoring_workload

    mix = MIXES[name]
    workload = scoring_workload(WIDTH, weights=WEIGHTS)
    config = ServeConfig(max_wait_s=mix.max_wait_s, workers=run.workers,
                         round_decimals=DECIMALS)
    failures: list[str] = []

    setups = []
    for _ in range(mix.setup_reps):
        start = time.perf_counter()
        executor, lint = _set_up(mix, workload)
        setups.append(time.perf_counter() - start)
        failures += lint

    capacity = executor.layout.capacity
    clients = mix.clients or mix.tenants * capacity
    streams = [ClientStream(run.seed, c, mix, capacity)
               for c in range(clients)]
    records, window, snapshot = asyncio.run(_closed_loop(
        PlanServer(executor, config), streams, run.seconds, run.recorder))
    latencies = [latency for _, _, latency in records]

    failures += checks.accounting(snapshot, len(records))
    failures += checks.served_results([p for p, _, _ in records],
                                      [r for _, r, _ in records],
                                      WEIGHTS, DECIMALS)
    probes = probe_payloads(run.seed)
    rng = np.random.default_rng([run.seed, 1 << 21])
    fillers = [rng.uniform(*PAYLOAD_RANGE, WIDTH)
               for _ in range(capacity - len(probes))]
    positions = [int(p) for p in rng.choice(capacity, len(probes),
                                            replace=False)]
    alone, batched = asyncio.run(_probe(
        PlanServer(executor, config), tenant_name(0), probes, fillers,
        positions))
    failures += checks.batch_independent(alone, batched)
    failures += checks.served_results(probes, alone, WEIGHTS, DECIMALS)

    return Outcome(
        end_to_end={
            "served_qps": len(records) / ((window[1] - window[0]) / 1e9),
            "query_p50_ms": percentile_ms(latencies, 50),
            "query_p90_ms": percentile_ms(latencies, 90),
            "setup_s": run.import_s + statistics.median(setups),
        },
        attempted=len(records), failures=failures, window=window,
        queries=len(records), batches=snapshot["batches"],
        batch_queries=snapshot["mean_batch_size"],
        latency_ns={id(p): latency for p, _, latency in records})
