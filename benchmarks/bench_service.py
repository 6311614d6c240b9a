#!/usr/bin/env python
"""Decomposition-service benchmark: latency, coalescing, cache, identity.

Stands a real service up (socket server, pre-warmed fleet) and measures
what serving buys over one-shot execution::

    PYTHONPATH=src python benchmarks/bench_service.py
    PYTHONPATH=src python benchmarks/bench_service.py --quick

Seven phases per run:

* **latency** — every output of every suite benchmark is decomposed as
  its own request against a warm, cache-less server; p50/p99 request
  latency and throughput come from here.  Each benchmark also runs as a
  one-shot in-process ``decompose_many(jobs=N)`` — the pre-service way
  to get parallelism, paying pool spin-up per call — and the report
  records whether the warm-fleet p50 beats that one-shot wall.
* **coalesce** — one duplicated request fired concurrently from many
  client threads; the server must collapse them into one computation
  (coalesce rate > 0) and every client must receive byte-identical
  payloads.
* **cache** — a second server with an on-disk result store serves the
  same batch twice; round two must be pure cache hits.
* **netsyn** — each benchmark synthesized twice through the service;
  round two runs with the service-lifetime warm-cover pool and must
  still produce the identical network.
* **faults** — injected failures against a dedicated server: a hung
  worker (fleet-level ``service_sleep``) must trip the deadline, be
  killed, and the slot must serve again (the row's wall time is the
  timeout→recovered latency); then every fleet worker is SIGKILLed and
  the next request must succeed with a payload byte-identical to the
  healthy run's.
* **admission** — a burst of concurrent distinct requests against a
  ``max_inflight=1`` server: over-budget arrivals must get typed
  ``overloaded`` errors, in-budget ones must complete, and every
  rejected request must succeed when retried sequentially.
* **trace overhead** — the same warm workload against a tracing-off
  and a tracing-on server (tracer installed before the fleet forks):
  payloads must stay byte-identical, every traced request must land in
  the trace ring, the trace page must export to schema-valid Chrome
  JSON, and the traced p50 must stay inside a generous envelope of the
  untraced one.

Two more phases under ``--chaos`` (the CI chaos smoke)::

    PYTHONPATH=src python benchmarks/bench_service.py --chaos --quick

* **chaos** — two seeded :class:`FaultPlan` schedules are each replayed
  twice against a fresh service; every request must succeed
  byte-identically or fail typed, and both replays must produce the
  same per-request outcomes and the same delivered-fault log.
* **resize** — a live server is grown 2→4 and drained 4→2 while four
  client threads stream requests at it; zero requests may be dropped
  and every payload must stay byte-identical across the resizes.

Every service result is compared against an in-process run with the
informational channels stripped (``timings``/``bdd_stats`` on decompose
payloads; ``pool_stats``/``engine_stats``/``time_s`` on netsyn) —
``summary.all_identical`` certifies byte-identity row by row.  The
report carries the same ``calibration_s`` yardstick as the other bench
scripts, so ``check_regression.py --service ...`` folds its wall times
into the normalized geomean and enforces the service invariants.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.benchgen.registry import load_benchmark
from repro.core.operators import EXPERIMENT_OPERATORS
from repro.engine import wire
from repro.engine.decomposer import Decomposer
from repro.engine.parallel import make_work_item
from repro.netsyn.synthesis import synthesize_instance
from repro.service import ServerThread, ServiceClient, ServiceError

#: Report identifier; bump on any incompatible layout change.
REPORT_FORMAT = "repro-bench-service/1"

#: CI subset: the same small rows the other bench scripts gate on.
SUITE_QUICK = ("newtpla2", "br1", "z4", "adr4")

#: Full run: quick plus medium rows from both regimes.
SUITE_FULL = SUITE_QUICK + ("dist", "radd", "log8mod", "Z5xp1", "clip")

#: Client threads for the duplicate-load coalescing phase.
COALESCE_CLIENTS = 8

INFORMATIONAL_RESULT_KEYS = frozenset(("timings", "bdd_stats"))
INFORMATIONAL_NETSYN_KEYS = frozenset(("pool_stats", "engine_stats", "time_s"))

OUTPUT_DIR = Path(__file__).parent / "output"


def _timed(func):
    t0 = time.perf_counter()
    result = func()
    return time.perf_counter() - t0, result


def calibration() -> float:
    """Wall time of a fixed pure-Python workload (best of three)."""

    def run() -> int:
        acc = 0
        for i in range(300_000):
            acc = (acc * 1103515245 + 12345 + i) & ((1 << 64) - 1)
        return acc

    best = None
    for _ in range(3):
        wall, _ = _timed(run)
        best = wall if best is None or wall < best else best
    return best


def _stripped(payload: dict, informational: frozenset) -> dict:
    return {k: v for k, v in payload.items() if k not in informational}


def _suite_items(names: tuple[str, ...]) -> dict[str, list[dict]]:
    """Work items per benchmark (every output, existing wire format)."""
    items: dict[str, list[dict]] = {}
    for name in names:
        instance = load_benchmark(name)
        items[name] = [
            make_work_item(
                f"{name}.o{index}",
                wire.isf_to_payload(isf),
                "auto",
                "expand-full",
                "spp",
                True,
                EXPERIMENT_OPERATORS,
            )
            for index, isf in enumerate(instance.outputs)
        ]
    return items


def _in_process_batch(name: str, jobs: int) -> tuple[float, list[dict]]:
    """One-shot ``decompose_many(jobs=N)``: fresh engine, fresh pool."""
    instance = load_benchmark(name)
    engine = Decomposer(
        approximator="expand-full",
        minimizer="spp",
        operators=EXPERIMENT_OPERATORS,
        verify=True,
    )
    labeled = [
        (f"{name}.o{index}", isf)
        for index, isf in enumerate(instance.outputs)
    ]
    wall, results = _timed(
        lambda: engine.decompose_many(labeled, "auto", jobs=jobs)
    )
    return wall, [wire.result_to_payload(result) for result in results]


def phase_latency(
    server: ServerThread, suite_items: dict, jobs: int
) -> tuple[dict, dict]:
    """Warm per-request latencies vs one-shot batches, per benchmark."""
    workloads: dict[str, dict] = {}
    latencies: list[float] = []
    identical = True
    with ServiceClient(server.host, server.port) as client:
        # Warmup round: populate worker-side managers/engines so the
        # measured rounds see the *service* steady state.
        for items in suite_items.values():
            client.decompose_many(items)
        for name, items in suite_items.items():
            oneshot_wall, oneshot_payloads = _in_process_batch(name, jobs)
            request_walls = []
            row_identical = True
            for index, item in enumerate(items):
                wall, (payload, _stats) = _timed(
                    lambda item=item: client.decompose(item)
                )
                request_walls.append(wall)
                expected = oneshot_payloads[index]
                if _stripped(
                    payload, INFORMATIONAL_RESULT_KEYS
                ) != _stripped(expected, INFORMATIONAL_RESULT_KEYS):
                    row_identical = False
            identical = identical and row_identical
            latencies.extend(request_walls)
            p50 = statistics.median(request_walls)
            workloads[f"svc:warm:{name}"] = {
                "wall_s": sum(request_walls),
                "requests": len(request_walls),
                "p50_s": p50,
                "p99_s": _quantile(request_walls, 0.99),
                "oneshot_wall_s": oneshot_wall,
                "warm_p50_below_oneshot": p50 < oneshot_wall,
                "identical": row_identical,
            }
            print(
                f"svc:warm:{name:14s} p50 {1e3 * p50:7.2f}ms"
                f"  p99 {1e3 * workloads[f'svc:warm:{name}']['p99_s']:7.2f}ms"
                f"  oneshot(jobs={jobs}) {oneshot_wall:6.3f}s"
                f"  {'identical' if row_identical else 'MISMATCH'}",
                file=sys.stderr,
            )
    summary = {
        "requests": len(latencies),
        "wall_s": sum(latencies),
        "p50_s": statistics.median(latencies),
        "p99_s": _quantile(latencies, 0.99),
        "throughput_rps": len(latencies) / sum(latencies),
        "all_identical": identical,
        "warm_p50_below_oneshot": all(
            record["warm_p50_below_oneshot"] for record in workloads.values()
        ),
    }
    return workloads, summary


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    position = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[position]


def phase_coalesce(server: ServerThread, item: dict) -> dict:
    """Duplicate concurrent load: one computation, identical replies."""
    with ServiceClient(server.host, server.port) as probe:
        before = probe.status()["coalesce"]
    barrier = threading.Barrier(COALESCE_CLIENTS)
    payloads: list[str | None] = [None] * COALESCE_CLIENTS
    errors: list[BaseException] = []

    def fire(slot: int) -> None:
        try:
            with ServiceClient(server.host, server.port) as client:
                barrier.wait()
                payload, _stats = client.decompose(item)
                # Clients that race past the coalesce window trigger a
                # second computation whose informational timings differ;
                # identity only covers the semantic payload.
                payloads[slot] = json.dumps(
                    _stripped(payload, INFORMATIONAL_RESULT_KEYS),
                    sort_keys=True,
                )
        except BaseException as exc:  # noqa: BLE001 — reported in summary
            errors.append(exc)

    wall, _ = _timed(
        lambda: _join_all(
            [
                threading.Thread(target=fire, args=(slot,))
                for slot in range(COALESCE_CLIENTS)
            ]
        )
    )
    with ServiceClient(server.host, server.port) as probe:
        after = probe.status()["coalesce"]
    followers = after["followers"] - before["followers"]
    leaders = after["leaders"] - before["leaders"]
    arrived = leaders + followers
    return {
        "wall_s": wall,
        "clients": COALESCE_CLIENTS,
        "errors": len(errors),
        "leaders": leaders,
        "followers": followers,
        "coalesce_rate": followers / arrived if arrived else 0.0,
        "identical_replies": len(
            {payload for payload in payloads if payload is not None}
        )
        == 1,
    }


def _join_all(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def phase_cache(suite_items: dict, jobs: int, cache_dir: Path) -> dict:
    """Cold round populates the result store; round two must hit it."""
    with ServerThread(jobs=jobs, cache_dir=str(cache_dir)) as server:
        with ServiceClient(server.host, server.port) as client:
            cold_wall, _ = _timed(
                lambda: [
                    client.decompose_many(items)
                    for items in suite_items.values()
                ]
            )
            warm_wall, _ = _timed(
                lambda: [
                    client.decompose_many(items)
                    for items in suite_items.values()
                ]
            )
            status = client.status()
    cache_stats = status["cache"]
    lookups = cache_stats["hits"] + cache_stats["misses"]
    return {
        "wall_s": warm_wall,
        "cold_wall_s": cold_wall,
        "hits": cache_stats["hits"],
        "misses": cache_stats["misses"],
        "evictions": cache_stats["evictions"],
        "entries": cache_stats["entries"],
        "hit_rate": cache_stats["hits"] / lookups if lookups else 0.0,
    }


def phase_netsyn(server: ServerThread, names: tuple[str, ...]) -> tuple[dict, bool]:
    """Service netsyn (cold, then warm-pool) vs in-process synthesis."""
    workloads: dict[str, dict] = {}
    identical = True
    with ServiceClient(server.host, server.port) as client:
        for name in names:
            cold_wall, (cold, _stats) = _timed(
                lambda name=name: client.netsyn(benchmark=name)
            )
            # A different literal threshold is a different request key,
            # so this computes — with the pool warmed by every earlier
            # netsyn — instead of replaying the cached payload.
            warm_wall, (warm, _warm_stats) = _timed(
                lambda name=name: client.netsyn(
                    benchmark=name, config={"literal_threshold": 11}
                )
            )
            expected = wire.netsyn_result_to_payload(
                synthesize_instance(load_benchmark(name))
            )
            row_identical = _stripped(
                cold, INFORMATIONAL_NETSYN_KEYS
            ) == _stripped(expected, INFORMATIONAL_NETSYN_KEYS)
            identical = identical and row_identical
            workloads[f"svc:netsyn:{name}"] = {
                "wall_s": cold_wall,
                "warm_wall_s": warm_wall,
                "warm_hits": warm["pool_stats"]["warm_hits"],
                "shared_area": cold["shared_area"],
                "identical": row_identical,
            }
            print(
                f"svc:netsyn:{name:12s} cold {cold_wall:6.3f}s"
                f"  warm {warm_wall:6.3f}s"
                f"  warm-hits {warm['pool_stats']['warm_hits']:3d}"
                f"  {'identical' if row_identical else 'MISMATCH'}",
                file=sys.stderr,
            )
    return workloads, identical


def phase_faults(item: dict) -> dict:
    """Injected failures: hung-worker timeout, SIGKILLed fleet.

    Returns two rows: ``svc:fault:timeout`` (wall = deadline expiry →
    next request served, i.e. kill + respawn + recompute latency) and
    ``svc:fault:crash`` (wall = first request latency after every
    worker was SIGKILLed; identity vs the healthy run's payload).
    """
    import os
    import signal

    from repro.service.fleet import FleetTimeout, service_sleep

    rows: dict[str, dict] = {}
    with ServerThread(jobs=1) as server:
        with ServiceClient(server.host, server.port) as client:
            healthy, _stats = client.decompose(item)

            # Hung worker: the fleet-level sleep stands in for a wedged
            # CPU-bound sweep; the deadline must kill the worker and the
            # next wire request must be served by the respawned slot.
            timed_out = False

            def hang_and_recover():
                nonlocal timed_out
                try:
                    server.service.fleet.run_sync(
                        service_sleep, {"seconds": 60.0}, timeout_s=0.25
                    )
                except FleetTimeout:
                    timed_out = True
                client.decompose(item)

            recovery_wall, _ = _timed(hang_and_recover)
            rows["svc:fault:timeout"] = {
                "wall_s": recovery_wall,
                "timed_out": timed_out,
                "recovered": True,
                "kills": server.service.fleet.stats["kills"],
            }
            print(
                f"svc:fault:timeout      recover {1e3 * recovery_wall:7.2f}ms"
                f"  {'timed-out+respawned' if timed_out else 'NO TIMEOUT'}",
                file=sys.stderr,
            )

            # Crashed fleet: SIGKILL every worker, then request again.
            for pid in server.service.fleet.pids():
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.2)
            crash_wall, (recovered, _stats) = _timed(
                lambda: client.decompose(item)
            )
            identical = _stripped(
                recovered, INFORMATIONAL_RESULT_KEYS
            ) == _stripped(healthy, INFORMATIONAL_RESULT_KEYS)
            rows["svc:fault:crash"] = {
                "wall_s": crash_wall,
                "identical": identical,
                "restarts": server.service.fleet.stats["restarts"],
            }
            print(
                f"svc:fault:crash        recover {1e3 * crash_wall:7.2f}ms"
                f"  {'identical' if identical else 'MISMATCH'}",
                file=sys.stderr,
            )
    return rows


#: Requests per side of the tracing on/off latency comparison.
TRACE_REQUESTS = 8


def phase_trace_overhead(item: dict) -> dict:
    """Tracing on vs off: p50 comparison, identity, wire trace, export.

    A baseline server runs the item ``TRACE_REQUESTS`` times with no
    tracer installed; a second server — whose fleet forked *after*
    :func:`repro.obs.install`, so workers carry the tracer — repeats the
    run.  The row gates four things: the traced payloads are
    byte-identical to the baseline's, every traced request produced a
    trace record, the ``trace`` page exports to schema-valid Chrome
    JSON, and the traced p50 stays within a generous envelope of the
    baseline (ratio 1.5 plus a 5ms absolute floor so micro-walls don't
    flap the gate).
    """
    from repro import obs
    from repro.obs import chrome_trace, validate_chrome_trace
    from repro.service import DecompositionService

    def measure(server) -> tuple[list[float], list[str]]:
        walls: list[float] = []
        payloads: list[str] = []
        with ServiceClient(server.host, server.port) as client:
            client.decompose(item)  # warmup: worker managers, engines
            for _ in range(TRACE_REQUESTS):
                wall, (payload, _stats) = _timed(
                    lambda: client.decompose(item)
                )
                walls.append(wall)
                payloads.append(
                    json.dumps(
                        _stripped(payload, INFORMATIONAL_RESULT_KEYS),
                        sort_keys=True,
                    )
                )
        return walls, payloads

    with ServerThread(jobs=1) as baseline_server:
        baseline_walls, baseline_payloads = measure(baseline_server)

    obs.install()
    try:
        service = DecompositionService(jobs=1)
        with ServerThread(service=service) as traced_server:
            traced_walls, traced_payloads = measure(traced_server)
            with ServiceClient(traced_server.host, traced_server.port) as probe:
                page = probe.trace(n=TRACE_REQUESTS, order="slowest")
        service.close()
    finally:
        obs.uninstall()

    baseline_p50 = statistics.median(baseline_walls)
    traced_p50 = statistics.median(traced_walls)
    identical = (
        set(traced_payloads) == set(baseline_payloads)
        and len(set(traced_payloads)) == 1
    )
    recorded = page["recorded"] >= TRACE_REQUESTS
    document = chrome_trace(page["traces"])
    chrome_valid = validate_chrome_trace(document) == [] and any(
        event.get("name") == "worker.compute"
        for event in document["traceEvents"]
    )
    overhead_ok = traced_p50 <= baseline_p50 * 1.5 + 0.005
    record = {
        "wall_s": sum(traced_walls),
        "requests": TRACE_REQUESTS,
        "baseline_p50_s": baseline_p50,
        "traced_p50_s": traced_p50,
        "overhead_ratio": traced_p50 / baseline_p50 if baseline_p50 else 0.0,
        "identical": identical,
        "trace_recorded": page["recorded"],
        "chrome_valid": chrome_valid,
        "overhead_ok": overhead_ok,
        "ok": identical and recorded and chrome_valid and overhead_ok,
    }
    print(
        f"svc:trace:overhead     p50 off {1e3 * baseline_p50:7.2f}ms"
        f"  on {1e3 * traced_p50:7.2f}ms"
        f"  x{record['overhead_ratio']:.2f}"
        f"  {'identical' if identical else 'MISMATCH'}"
        f"  {'chrome-valid' if chrome_valid else 'BAD EXPORT'}",
        file=sys.stderr,
    )
    return record


#: Distinct operators -> distinct request keys for the admission burst.
ADMISSION_OPS = ("auto", "AND", "OR", "XOR", "NAND", "NOR")


def phase_admission(base_item: dict) -> dict:
    """Over-budget burst against ``max_inflight=1``: typed rejections."""
    from repro.service import DecompositionService

    service = DecompositionService(jobs=1, max_inflight=1)
    outcomes: list[str] = [""] * len(ADMISSION_OPS)
    with ServerThread(service=service) as server:
        barrier = threading.Barrier(len(ADMISSION_OPS))

        def fire(slot: int, op: str) -> None:
            try:
                with ServiceClient(server.host, server.port) as client:
                    barrier.wait()
                    client.decompose(dict(base_item, op=op))
                    outcomes[slot] = "ok"
            except ServiceError as exc:
                outcomes[slot] = exc.type
            except BaseException:  # noqa: BLE001 — reported in summary
                outcomes[slot] = "error"

        wall, _ = _timed(
            lambda: _join_all(
                [
                    threading.Thread(target=fire, args=(slot, op))
                    for slot, op in enumerate(ADMISSION_OPS)
                ]
            )
        )
        # Every rejected request must complete when sent in budget.
        retried_ok = 0
        with ServiceClient(server.host, server.port) as client:
            for slot, op in enumerate(ADMISSION_OPS):
                if outcomes[slot] == "overloaded":
                    client.decompose(dict(base_item, op=op))
                    retried_ok += 1
    service.close()
    completed = outcomes.count("ok")
    overloaded = outcomes.count("overloaded")
    errors = len(outcomes) - completed - overloaded
    record = {
        "wall_s": wall,
        "clients": len(ADMISSION_OPS),
        "completed": completed,
        "overloaded": overloaded,
        "errors": errors,
        "retried_ok": retried_ok,
        "ok": completed >= 1 and overloaded >= 1 and errors == 0
        and retried_ok == overloaded,
    }
    print(
        f"svc:admission          {completed} served, {overloaded} overloaded,"
        f" {errors} errors, {retried_ok} retried ok",
        file=sys.stderr,
    )
    return record


#: Seeded fault schedules replayed by the ``--chaos`` phase.
CHAOS_SEEDS = (11, 47)

#: Requests driven through each chaos replay.
CHAOS_REQUESTS = 6


def _chaos_replay(seed: int, items: list[dict]) -> tuple[tuple, tuple]:
    """One chaos run: seeded plan, fresh service, sequential requests.

    Returns the per-request outcome summary — ``("ok", payload_json)``
    or ``("error", type)`` — plus the plan's delivered-fault log; both
    must be identical across replays of the same seed.
    """
    import asyncio

    from repro.service import DecompositionService
    from repro.service import faults
    from repro.service.faults import FaultPlan

    plan = FaultPlan.generate(seed, n_events=3, max_hit=5)
    with faults.installed(plan):
        # The plan must be live before the fleet forks so workers
        # inherit it; that is how worker-side faults get delivered.
        service = DecompositionService(jobs=1, timeout_s=30.0)
        try:

            async def drive() -> list[dict]:
                replies = []
                for index in range(CHAOS_REQUESTS):
                    item = items[index % len(items)]
                    message = wire.svc_request("decompose", item, f"c{index}")
                    replies.append(await service.handle(message))
                return replies

            replies = asyncio.run(drive())
        finally:
            service.close()

    summary = []
    for reply in replies:
        if reply["ok"]:
            summary.append(
                (
                    "ok",
                    json.dumps(
                        _stripped(reply["result"], INFORMATIONAL_RESULT_KEYS),
                        sort_keys=True,
                    ),
                )
            )
        else:
            error_type = reply["error"].get("type")
            summary.append(
                ("error", error_type if isinstance(error_type, str) else "")
            )
    return tuple(summary), tuple(plan.log)


def phase_chaos(items: list[dict], expected: list[dict]) -> dict:
    """Replay each seeded plan twice: typed-or-identical, deterministic."""
    expected_json = [
        json.dumps(
            _stripped(payload, INFORMATIONAL_RESULT_KEYS), sort_keys=True
        )
        for payload in expected
    ]
    rows: dict[str, dict] = {}
    for seed in CHAOS_SEEDS:
        wall, (first, first_log) = _timed(lambda: _chaos_replay(seed, items))
        second, second_log = _chaos_replay(seed, items)
        deterministic = first == second and first_log == second_log
        typed_or_identical = all(
            (kind == "ok" and value == expected_json[index % len(items)])
            or (kind == "error" and value)
            for index, (kind, value) in enumerate(first)
        )
        rows[f"svc:chaos:seed{seed}"] = {
            "wall_s": wall,
            "requests": len(first),
            "ok": sum(1 for kind, _ in first if kind == "ok"),
            "typed_errors": sum(1 for kind, _ in first if kind == "error"),
            "faults_delivered": len(first_log),
            "deterministic": deterministic,
            "typed_or_identical": typed_or_identical,
        }
        print(
            f"svc:chaos:seed{seed:<6d} {rows[f'svc:chaos:seed{seed}']['ok']} ok,"
            f" {rows[f'svc:chaos:seed{seed}']['typed_errors']} typed,"
            f" {len(first_log)} faults"
            f"  {'deterministic' if deterministic else 'NONDETERMINISTIC'}",
            file=sys.stderr,
        )
    return rows


#: Streaming client threads pounding the server during the resize probe.
RESIZE_CLIENTS = 4


def phase_resize(items: list[dict]) -> dict:
    """Grow 2→4 and drain 4→2 under streaming load: zero drops allowed."""
    errors: list[str] = []
    mismatches = [0]
    served = [0] * RESIZE_CLIENTS
    stop = threading.Event()

    with ServerThread(jobs=2) as server:
        with ServiceClient(server.host, server.port) as warm:
            healthy = [
                json.dumps(
                    _stripped(
                        warm.decompose(item)[0], INFORMATIONAL_RESULT_KEYS
                    ),
                    sort_keys=True,
                )
                for item in items
            ]

        def pound(slot: int) -> None:
            try:
                with ServiceClient(server.host, server.port) as client:
                    round_index = 0
                    while not stop.is_set():
                        index = (slot + round_index) % len(items)
                        payload, _stats = client.decompose(items[index])
                        if (
                            json.dumps(
                                _stripped(
                                    payload, INFORMATIONAL_RESULT_KEYS
                                ),
                                sort_keys=True,
                            )
                            != healthy[index]
                        ):
                            mismatches[0] += 1
                        served[slot] += 1
                        round_index += 1
            except BaseException as exc:  # noqa: BLE001 — gated below
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=pound, args=(slot,))
            for slot in range(RESIZE_CLIENTS)
        ]

        def probe() -> tuple[dict, dict, dict]:
            for thread in threads:
                thread.start()
            with ServiceClient(server.host, server.port) as control:
                time.sleep(0.3)  # let the load reach steady state
                grow = control.resize(4)
                time.sleep(0.5)  # serve a while at the grown size
                shrink = control.resize(2)
                deadline = time.time() + 30.0
                while time.time() < deadline:
                    fleet = control.status()["fleet"]
                    if fleet["slots_live"] == 2 and fleet["draining"] == 0:
                        break
                    time.sleep(0.1)
                stop.set()
                for thread in threads:
                    thread.join()
                return grow, shrink, control.status()["fleet"]

        wall, (grow, shrink, fleet) = _timed(probe)

    record = {
        "wall_s": wall,
        "clients": RESIZE_CLIENTS,
        "served": sum(served),
        "errors": len(errors),
        "mismatches": mismatches[0],
        "grown": grow["grown"],
        "shrunk_requested": shrink["shrunk"],
        "slots_live_final": fleet["slots_live"],
        "resizes": fleet["resizes"],
        "ok": (
            not errors
            and mismatches[0] == 0
            and sum(served) > 0
            and grow["size"] == 4
            and grow["grown"] == 2
            and shrink["size"] == 2
            and fleet["slots_live"] == 2
            and fleet["draining"] == 0
            and fleet["resizes"] >= 2
        ),
    }
    print(
        f"svc:resize             {sum(served)} served, {len(errors)} dropped,"
        f" {mismatches[0]} mismatches, 2->4->2"
        f" {'clean' if record['ok'] else 'FAILED'}",
        file=sys.stderr,
    )
    if errors:
        for error in errors[:3]:
            print(f"  resize client error: {error}", file=sys.stderr)
    return record


def run(
    quick: bool, label: str, jobs: int, cache_dir: Path, chaos: bool = False
) -> dict:
    suite = SUITE_QUICK if quick else SUITE_FULL
    calibration_s = calibration()
    print(f"{'calibration':24s} {calibration_s:.4f}", file=sys.stderr)
    suite_items = _suite_items(suite)

    with ServerThread(jobs=jobs) as server:
        latency_workloads, latency_summary = phase_latency(
            server, suite_items, jobs
        )
        # Coalesce on a key the latency phase has *not* computed (a named
        # operator instead of auto), so the duplicate load actually has
        # a computation to collapse.
        largest = max(suite_items, key=lambda name: len(suite_items[name]))
        coalesce_item = dict(suite_items[largest][0], op="AND")
        coalesce_record = phase_coalesce(server, coalesce_item)
        netsyn_workloads, netsyn_identical = phase_netsyn(server, suite)

    cache_record = phase_cache(suite_items, jobs, cache_dir)
    fault_rows = phase_faults(suite_items[suite[0]][0])
    admission_record = phase_admission(suite_items[largest][0])
    trace_record = phase_trace_overhead(suite_items[suite[0]][0])

    chaos_rows: dict[str, dict] = {}
    resize_record = None
    if chaos:
        _oneshot_wall, chaos_expected = _in_process_batch(suite[0], jobs)
        chaos_rows = phase_chaos(suite_items[suite[0]], chaos_expected)
        resize_record = phase_resize(suite_items[suite[0]])

    workloads = dict(latency_workloads)
    workloads.update(netsyn_workloads)
    workloads["svc:coalesce"] = coalesce_record
    workloads["svc:cache_warm"] = cache_record
    workloads.update(fault_rows)
    workloads["svc:admission"] = admission_record
    workloads["svc:trace:overhead"] = trace_record
    workloads.update(chaos_rows)
    if resize_record is not None:
        workloads["svc:resize"] = resize_record
    print(
        f"coalesce rate {coalesce_record['coalesce_rate']:.2f}"
        f"  cache hit rate {cache_record['hit_rate']:.2f}",
        file=sys.stderr,
    )
    return {
        "format": REPORT_FORMAT,
        "label": label,
        "quick": quick,
        "jobs": jobs,
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "calibration_s": round(calibration_s, 6),
        "workloads": {
            name: {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in record.items()
            }
            for name, record in workloads.items()
        },
        "summary": {
            "benchmarks": len(suite),
            "requests": latency_summary["requests"],
            "p50_ms": round(1e3 * latency_summary["p50_s"], 3),
            "p99_ms": round(1e3 * latency_summary["p99_s"], 3),
            "throughput_rps": round(latency_summary["throughput_rps"], 2),
            "warm_p50_below_oneshot": latency_summary[
                "warm_p50_below_oneshot"
            ],
            "coalesce_rate": round(coalesce_record["coalesce_rate"], 4),
            "coalesce_errors": coalesce_record["errors"],
            "cache_hit_rate": round(cache_record["hit_rate"], 4),
            "timeout_recovered": (
                fault_rows["svc:fault:timeout"]["timed_out"]
                and fault_rows["svc:fault:timeout"]["recovered"]
            ),
            "crash_identical": fault_rows["svc:fault:crash"]["identical"],
            "admission_overloaded": admission_record["overloaded"],
            "admission_errors": admission_record["errors"],
            "admission_ok": admission_record["ok"],
            "trace_overhead_ratio": round(
                trace_record["overhead_ratio"], 4
            ),
            "trace_identical": trace_record["identical"],
            "trace_overhead_ok": trace_record["ok"],
            "chaos_ok": (
                all(
                    row["deterministic"] and row["typed_or_identical"]
                    for row in chaos_rows.values()
                )
                if chaos
                else None
            ),
            "resize_ok": (
                resize_record["ok"] if resize_record is not None else None
            ),
            "all_identical": (
                latency_summary["all_identical"]
                and netsyn_identical
                and coalesce_record["identical_replies"]
                and fault_rows["svc:fault:crash"]["identical"]
            ),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI subset")
    parser.add_argument(
        "--chaos",
        action="store_true",
        help="add the seeded fault-plan replay and resize-under-load phases",
    )
    parser.add_argument("--label", default="dev", help="report label")
    parser.add_argument(
        "--jobs", type=int, default=2, help="fleet size / one-shot jobs"
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="result store directory for the cache phase (default: temp)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="report path (default benchmarks/output/BENCH_SERVICE_<label>.json)",
    )
    args = parser.parse_args(argv)

    if args.cache_dir is None:
        import tempfile

        with tempfile.TemporaryDirectory(prefix="repro-svc-bench-") as tmp:
            report = run(
                args.quick, args.label, args.jobs, Path(tmp), args.chaos
            )
    else:
        report = run(
            args.quick, args.label, args.jobs, args.cache_dir, args.chaos
        )

    output = args.output
    if output is None:
        OUTPUT_DIR.mkdir(exist_ok=True)
        output = OUTPUT_DIR / f"BENCH_SERVICE_{args.label}.json"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(json.dumps(report["summary"], indent=2))
    summary = report["summary"]
    failures = []
    if not summary["all_identical"]:
        failures.append("a service result diverged from the in-process run")
    if summary["coalesce_rate"] <= 0.0:
        failures.append("duplicate concurrent load did not coalesce")
    if summary["cache_hit_rate"] <= 0.0:
        failures.append("warm cache round produced no hits")
    if summary["coalesce_errors"]:
        failures.append("coalesce clients saw errors")
    if not summary["timeout_recovered"]:
        failures.append("hung-worker request did not time out and recover")
    if not summary["crash_identical"]:
        failures.append("post-crash payload diverged from the healthy run")
    if not summary["admission_ok"]:
        failures.append(
            "admission burst did not produce typed overloaded rejections"
            " alongside completed in-budget requests"
        )
    if not summary["trace_overhead_ok"]:
        failures.append(
            "tracing changed a payload, lost traces, exported invalid"
            " Chrome JSON, or slowed the warm p50 past the envelope"
        )
    if summary["chaos_ok"] is False:
        failures.append(
            "a seeded fault plan replayed nondeterministically or produced"
            " an untyped/diverged outcome"
        )
    if summary["resize_ok"] is False:
        failures.append(
            "resize under load dropped requests or failed to converge"
        )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
