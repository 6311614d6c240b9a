"""Decomposition service: coalescing, result cache, fleet, wire identity.

The identity discipline under test: a service response's *result* must
match what an in-process run produces, byte for byte, once the
informational channels are stripped — ``timings``/``bdd_stats`` on
decompose payloads; ``pool_stats``/``engine_stats``/``time_s`` on netsyn
payloads.  Those channels report *how* a result was computed (wall
time, which manager, warm hits) and legitimately differ between a warm
worker and a cold process; everything else may not.
"""

import asyncio
import json
import time

import pytest

from repro import obs
from repro.benchgen.registry import load_benchmark
from repro.core.operators import EXPERIMENT_OPERATORS
from repro.engine import wire
from repro.engine.decomposer import Decomposer
from repro.engine.parallel import make_work_item
from repro.netsyn.synthesis import NetsynConfig, synthesize_instance
from repro.service import (
    Coalescer,
    DecompositionService,
    FleetTimeout,
    ServerThread,
    ServiceClient,
    ServiceError,
    WorkerFleet,
    render_prometheus,
)
from repro.service import faults
from repro.service.faults import FaultEvent, FaultPlan
from repro.service.fleet import _Slot, _worker_ident, service_sleep
from tests.conftest import load_into

INFORMATIONAL_RESULT_KEYS = frozenset(("timings", "bdd_stats"))
INFORMATIONAL_NETSYN_KEYS = frozenset(("pool_stats", "engine_stats", "time_s"))


def stripped(payload: dict, informational: frozenset) -> dict:
    return {k: v for k, v in payload.items() if k not in informational}


def work_item(isf, name="f", op="auto", backend="auto"):
    return make_work_item(
        name,
        wire.isf_to_payload(isf),
        op,
        "expand-full",
        "spp",
        True,
        EXPERIMENT_OPERATORS,
        backend=backend,
    )


def in_process_payload(isf, name="f", op="auto", backend="auto"):
    engine = Decomposer(
        approximator="expand-full",
        minimizer="spp",
        operators=EXPERIMENT_OPERATORS,
        verify=True,
    )
    f = load_into(isf, backend)
    return wire.result_to_payload(engine.decompose(f, op, name=name))


def drive(service, envelopes):
    """Run N ``handle`` coroutines concurrently on one fresh loop.

    ``asyncio.gather`` starts the tasks in order under cooperative
    scheduling: the leader registers its in-flight future before its
    first await completes, so every duplicate deterministically joins
    the flight — no socket timing involved.
    """

    async def _run():
        return await asyncio.gather(*(service.handle(e) for e in envelopes))

    return asyncio.run(_run())


def wait_until_written(service, timeout_s=30.0):
    """Block until every cache put the service handed off has returned."""
    deadline = time.monotonic() + timeout_s
    while service.status()["cache"]["unwritten"]:
        assert time.monotonic() < deadline, "cache writes did not land"
        time.sleep(0.002)


@pytest.fixture(scope="module")
def z4():
    return load_benchmark("z4")


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    thread = ServerThread(
        jobs=2,
        cache_dir=str(tmp_path_factory.mktemp("svc-cache")),
    )
    thread.start()
    yield thread
    thread.stop()


# ---------------------------------------------------------------------------
# Coalescer (unit)
# ---------------------------------------------------------------------------


def test_coalescer_runs_once_and_shares_value():
    async def _run():
        coalescer = Coalescer()
        calls = {"n": 0}

        async def compute():
            calls["n"] += 1
            await asyncio.sleep(0)
            return {"value": calls["n"]}

        outcomes = await asyncio.gather(
            *(coalescer.run("k", compute) for _ in range(5))
        )
        assert calls["n"] == 1
        values = {id(value) for value, _ in outcomes}
        assert len(values) == 1  # literally the same object, not a copy
        flags = sorted(flag for _, flag in outcomes)
        assert flags == [False, True, True, True, True]
        assert coalescer.stats == {"leaders": 1, "followers": 4}
        assert len(coalescer) == 0  # flight cleaned up
        assert 0.79 < coalescer.coalesce_rate() < 0.81

    asyncio.run(_run())


def test_coalescer_shares_failures_and_recovers():
    async def _run():
        coalescer = Coalescer()
        calls = {"n": 0}

        async def explode():
            calls["n"] += 1
            await asyncio.sleep(0)
            raise ValueError("boom")

        outcomes = await asyncio.gather(
            *(coalescer.run("k", explode) for _ in range(3)),
            return_exceptions=True,
        )
        assert calls["n"] == 1
        assert all(isinstance(o, ValueError) for o in outcomes)
        # A failed flight must not poison the key for later arrivals.
        async def ok():
            return "fine"

        value, coalesced = await coalescer.run("k", ok)
        assert (value, coalesced) == ("fine", False)

    asyncio.run(_run())


def test_distinct_keys_do_not_coalesce():
    async def _run():
        coalescer = Coalescer()

        async def make(n):
            await asyncio.sleep(0)
            return n

        outcomes = await asyncio.gather(
            *(coalescer.run(f"k{i}", lambda i=i: make(i)) for i in range(3))
        )
        assert [value for value, _ in outcomes] == [0, 1, 2]
        assert coalescer.stats == {"leaders": 3, "followers": 0}

    asyncio.run(_run())


# ---------------------------------------------------------------------------
# Service.handle: coalescing + identity (no sockets)
# ---------------------------------------------------------------------------


def test_concurrent_identical_requests_compute_once(z4):
    service = DecompositionService(jobs=2)
    try:
        item = work_item(z4.outputs[1], name="o1")
        envelopes = [
            wire.svc_request("decompose", item, f"r{i}") for i in range(6)
        ]
        responses = drive(service, envelopes)
        assert all(r["ok"] for r in responses)
        # Byte-identical payloads: strip only the per-request envelope
        # fields (id + service stats); the *results* must already agree.
        bodies = {
            json.dumps(r["result"], sort_keys=True) for r in responses
        }
        assert len(bodies) == 1
        # ... computed exactly once:
        assert service.fleet.stats["dispatched"] == 1
        assert service.coalescer.stats == {"leaders": 1, "followers": 5}
        flags = sorted(r["stats"]["coalesced"] for r in responses)
        assert flags == [False] + [True] * 5
        # The worker-side computation counter confirms a single warm
        # worker ran the single computation.
        workers = {
            json.dumps(r["stats"]["worker"], sort_keys=True)
            for r in responses
        }
        assert len(workers) == 1
        assert responses[0]["stats"]["worker"]["computed"] == 1
    finally:
        service.close()


def test_backend_variants_coalesce_and_match_both_backends(z4):
    # The coalescing key is backend-free: a bdd and a bitset request for
    # the same function share one flight, and the shared payload matches
    # an in-process run of *either* backend (stripped of the
    # informational channels).
    service = DecompositionService(jobs=2)
    try:
        isf = z4.outputs[0]
        envelopes = [
            wire.svc_request(
                "decompose", work_item(isf, name="o0", backend=backend), backend
            )
            for backend in ("bdd", "bitset")
        ]
        responses = drive(service, envelopes)
        assert all(r["ok"] for r in responses)
        assert service.fleet.stats["dispatched"] == 1
        served = stripped(responses[0]["result"], INFORMATIONAL_RESULT_KEYS)
        for backend in ("bdd", "bitset"):
            expected = in_process_payload(isf, name="o0", backend=backend)
            assert served == stripped(expected, INFORMATIONAL_RESULT_KEYS)
    finally:
        service.close()


def test_decompose_many_orders_results_and_coalesces_duplicates(z4):
    service = DecompositionService(jobs=2)
    try:
        items = [
            work_item(z4.outputs[0], name="a"),
            work_item(z4.outputs[1], name="b"),
            work_item(z4.outputs[0], name="a"),  # intra-batch duplicate
        ]
        (response,) = drive(
            service,
            [wire.svc_request("decompose_many", {"items": items}, "batch")],
        )
        assert response["ok"]
        results = response["result"]["results"]
        assert len(results) == 3
        assert results[0] == results[2]  # the duplicate shared the flight
        assert results[0] != results[1]
        assert response["stats"]["items"] == 3
        assert response["stats"]["coalesced"] == 1
        assert service.fleet.stats["dispatched"] == 2
    finally:
        service.close()


def test_cache_persists_across_service_restarts(z4, tmp_path):
    item = work_item(z4.outputs[2], name="o2")
    envelope = wire.svc_request("decompose", item, "one")

    first = DecompositionService(jobs=1, cache_dir=tmp_path)
    try:
        (response,) = drive(first, [envelope])
        assert response["ok"]
        assert response["stats"]["served_by"] == "fleet"
        warm_payload = response["result"]
    finally:
        first.close()

    second = DecompositionService(jobs=1, cache_dir=tmp_path, prewarm=False)
    try:
        (cached,) = drive(second, [envelope])
        assert cached["ok"]
        assert cached["stats"]["served_by"] == "cache"
        assert cached["result"] == warm_payload  # byte-identical from disk
        assert second.fleet.stats["dispatched"] == 0
        assert second.stats["cache_hits"] == 1
    finally:
        second.close()


def test_reply_does_not_wait_for_the_cache_write(z4, tmp_path):
    # The write of a fresh key is held 1 s at its fsynced temp.  The
    # reply does not wait for it, a repeat of the key during the hold is
    # served from memory without a dispatch, and close() lands the
    # write, so the next service on the directory serves it from disk.
    item = work_item(z4.outputs[2], name="o2")
    hold = FaultPlan(
        (FaultEvent("cache.put.entry_written", 0, "sleep", param=1.0),)
    )
    with faults.installed(hold):
        service = DecompositionService(jobs=1, cache_dir=tmp_path)
        try:
            started = time.perf_counter()
            (fresh,) = drive(service, [wire.svc_request("decompose", item, "a")])
            answered_s = time.perf_counter() - started
            dispatched = service.fleet.stats["dispatched"]
            (repeat,) = drive(service, [wire.svc_request("decompose", item, "b")])
            held = service.status()["cache"]
        finally:
            service.close()
    assert fresh["ok"] and fresh["stats"]["served_by"] == "fleet"
    assert answered_s < 0.5
    assert repeat["ok"] and repeat["stats"]["served_by"] == "cache"
    assert repeat["result"] == fresh["result"]
    assert service.fleet.stats["dispatched"] == dispatched
    assert service.stats["cache_hits"] == 1
    assert held["unwritten"] == 1 and held["stores"] == 0 and held["hits"] == 1
    assert hold.log == [("cache.put.entry_written", 0, "sleep")]
    assert service.status()["cache"]["unwritten"] == 0

    reopened = DecompositionService(jobs=1, cache_dir=tmp_path, prewarm=False)
    try:
        (cached,) = drive(reopened, [wire.svc_request("decompose", item, "c")])
        assert cached["stats"]["served_by"] == "cache"
        assert cached["result"] == fresh["result"]
        assert reopened.fleet.stats["dispatched"] == 0
    finally:
        reopened.close()


def test_cache_write_is_traced_apart_from_the_reply(z4, tmp_path):
    # The put runs after the reply, so its spans cannot join the
    # request's tree: they form a cache.write trace of their own that
    # names the request's trace, and close() leaves none of them in the
    # tracer's buffer.
    with obs.installed() as tracer:
        service = DecompositionService(jobs=1, cache_dir=tmp_path)
        try:
            (reply,) = drive(
                service,
                [wire.svc_request("decompose", work_item(z4.outputs[0]), "q")],
            )
        finally:
            service.close()
    assert tracer.stats()["traces_buffered"] == 0
    assert reply["ok"]
    records = service.traces.query(n=10)
    (request,) = [r for r in records if r["kind"] == "decompose"]
    (write,) = [r for r in records if r["kind"] == "cache.write"]
    assert "cache.put" not in {span["site"] for span in request["spans"]}
    (root,) = [s for s in write["spans"] if s["parent_id"] is None]
    assert root["site"] == "cache.write" and root["status"] == "ok"
    assert root["attrs"]["request_trace"] == request["trace_id"]
    (put,) = [s for s in write["spans"] if s["site"] == "cache.put"]
    assert put["parent_id"] == root["span_id"]


def test_batch_warmed_cache_dir_serves_the_service(z4, tmp_path):
    # The batch paths and the service write one store on one layout: a
    # directory decompose_many warmed answers the service from disk.
    (batch,) = Decomposer().decompose_many(
        [("o2", z4.outputs[2])], "AND", cache=tmp_path
    )
    item = work_item(z4.outputs[2], name="o2", op="AND")
    service = DecompositionService(jobs=1, cache_dir=tmp_path, prewarm=False)
    try:
        (response,) = drive(service, [wire.svc_request("decompose", item, "w")])
        assert response["ok"]
        assert response["stats"]["served_by"] == "cache"
        assert service.fleet.stats["dispatched"] == 0
        assert response["result"]["h_cover"] == wire.result_to_payload(batch)["h_cover"]
    finally:
        service.close()


def test_malformed_and_failing_requests_become_error_envelopes():
    service = DecompositionService(jobs=1, prewarm=False)
    try:
        responses = drive(
            service,
            [
                {"format": "not-svc", "kind": "decompose"},
                wire.svc_request("decompose", {"name": "x"}, "no-f"),
                wire.svc_request("netsyn", {"benchmark": "no-such"}, "nb"),
                wire.svc_request("netsyn", {}, "nt"),
            ],
        )
        assert [r["ok"] for r in responses] == [False] * 4
        assert responses[0]["error"]["type"] == "bad-request"
        assert responses[1]["error"]["type"] == "bad-request"
        assert "'f'" in responses[1]["error"]["message"]
        assert responses[2]["error"]["type"] == "bad-request"
        assert "'no-such'" in responses[2]["error"]["message"]
        assert responses[3]["error"]["type"] == "bad-request"
        # Malformed traffic is *visible* traffic: even the envelope that
        # failed to parse is counted in requests and errors.
        assert service.stats["requests"] == 4
        assert service.stats["errors"] == 4
        # Failures are replies, not crashes: the service still serves.
        (status,) = drive(service, [wire.svc_request("status", None, "s")])
        assert status["ok"]
        assert status["result"]["requests"]["errors"] == 4
        assert status["result"]["requests"]["requests"] == 5
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Socket server + client: wire identity end to end
# ---------------------------------------------------------------------------


def test_socket_decompose_matches_in_process_across_backends(server, z4):
    with ServiceClient(server.host, server.port) as client:
        for backend in ("bdd", "bitset"):
            for index in (0, 3):
                isf = z4.outputs[index]
                payload, stats = client.decompose(
                    work_item(isf, name=f"o{index}", backend=backend)
                )
                assert stats["served_by"] in ("fleet", "cache")
                expected = in_process_payload(
                    isf, name=f"o{index}", backend=backend
                )
                assert stripped(
                    payload, INFORMATIONAL_RESULT_KEYS
                ) == stripped(expected, INFORMATIONAL_RESULT_KEYS)


def test_socket_netsyn_matches_in_process_and_warm_pool_stays_exact(
    server, z4
):
    with ServiceClient(server.host, server.port) as client:
        result, stats = client.netsyn(benchmark="z4")
        expected = wire.netsyn_result_to_payload(
            synthesize_instance(load_benchmark("z4"))
        )
        assert stripped(result, INFORMATIONAL_NETSYN_KEYS) == stripped(
            expected, INFORMATIONAL_NETSYN_KEYS
        )
        # A different config is a different cache key, so this computes
        # on the fleet — seeded with the first run's warm covers.
        config = {"literal_threshold": 11}
        warm, warm_stats = client.netsyn(benchmark="z4", config=config)
        assert warm_stats["served_by"] == "fleet"
        assert warm["pool_stats"]["warm_hits"] > 0
        expected_warm = wire.netsyn_result_to_payload(
            synthesize_instance(
                load_benchmark("z4"), config=NetsynConfig(literal_threshold=11)
            )
        )
        assert stripped(warm, INFORMATIONAL_NETSYN_KEYS) == stripped(
            expected_warm, INFORMATIONAL_NETSYN_KEYS
        )


def test_status_probe_reports_all_sections(server, z4):
    with ServiceClient(server.host, server.port) as client:
        # The cache and pool figures below need an entry and a warm
        # cover: make them here, so the probe holds run alone as well as
        # after the rest of the module.
        client.decompose(work_item(z4.outputs[0], name="o0"))
        client.netsyn(benchmark="z4")
        deadline = time.monotonic() + 30.0
        while client.status()["cache"]["unwritten"]:
            assert time.monotonic() < deadline, "cache writes did not land"
            time.sleep(0.002)
        status = client.status()
    assert set(status) == {
        "server",
        "requests",
        "fleet",
        "coalesce",
        "cache",
        "pool",
        "admission",
        "trace",
    }
    assert status["trace"]["enabled"] is False
    assert status["trace"]["recorded"] == 0
    assert status["server"]["uptime_s"] >= 0
    assert status["fleet"]["size"] == 2
    assert status["fleet"]["slots_target"] == 2
    assert status["fleet"]["slots_live"] == 2
    assert status["fleet"]["draining"] == 0
    assert status["fleet"]["prewarmed"] == 2
    assert len(status["fleet"]["pids"]) == 2
    for counter in (
        "timeouts", "kills", "restarts", "retries",
        "resizes", "grown", "shrunk",
    ):
        assert status["fleet"][counter] >= 0
    assert status["cache"]["entries"] >= 1
    assert status["cache"]["quarantined"] == 0
    assert status["pool"]["warm_covers"] >= 1
    assert status["admission"]["overloaded"] == 0
    assert status["admission"]["too_large"] == 0
    assert status["admission"]["rate_limited"] == 0
    assert status["admission"]["inflight"] == 0


def test_server_rejects_garbage_lines_and_keeps_serving(server):
    import socket as socket_module

    with socket_module.create_connection(
        (server.host, server.port), timeout=60
    ) as sock:
        handle = sock.makefile("rwb")
        handle.write(b"this is not json\n")
        handle.flush()
        reply = json.loads(handle.readline())
        assert reply["ok"] is False
        assert reply["error"]["type"] == "bad-json"
    with ServiceClient(server.host, server.port) as client:
        with pytest.raises(ServiceError) as excinfo:
            client.request("decompose", {"name": "missing-f"})
        assert excinfo.value.type == "bad-request"
        assert client.status()["requests"]["requests"] >= 1


# ---------------------------------------------------------------------------
# Hardening: cancellation, self-healing, admission control, metrics
# ---------------------------------------------------------------------------


def test_coalescer_detached_flight_survives_leader_cancellation():
    # The docstring's promise: one cancelled client never cancels the
    # shared computation under the others — including the client that
    # *started* the flight.
    async def _run():
        coalescer = Coalescer()
        calls = {"n": 0}
        release = asyncio.Event()

        async def compute():
            calls["n"] += 1
            await release.wait()
            return {"value": calls["n"]}

        leader = asyncio.create_task(coalescer.run("k", compute))
        await asyncio.sleep(0)  # leader registers the flight
        follower = asyncio.create_task(coalescer.run("k", compute))
        await asyncio.sleep(0)  # follower joins it
        leader.cancel()
        await asyncio.gather(leader, return_exceptions=True)
        assert leader.cancelled()
        release.set()
        value, coalesced = await follower
        assert value == {"value": 1}
        assert coalesced is True
        assert calls["n"] == 1
        # The flight retired cleanly: a later arrival starts fresh.
        assert len(coalescer) == 0
        value2, coalesced2 = await coalescer.run("k", compute)
        assert (value2, coalesced2) == ({"value": 2}, False)

    asyncio.run(_run())


def test_coalescer_flight_completes_even_if_every_waiter_cancels():
    async def _run():
        coalescer = Coalescer()
        done = asyncio.Event()

        async def compute():
            await asyncio.sleep(0)
            done.set()
            return "computed"

        waiter = asyncio.create_task(coalescer.run("k", compute))
        await asyncio.sleep(0)
        waiter.cancel()
        await asyncio.gather(waiter, return_exceptions=True)
        await done.wait()  # flight ran to completion regardless
        await asyncio.sleep(0)  # let the retire callback run
        assert len(coalescer) == 0

    asyncio.run(_run())


def test_prewarm_counts_every_slot_exactly_once():
    # One process per slot means prewarm cannot flake below size (the
    # executor-queue race where one fast worker grabbed two idents).
    fleet = WorkerFleet(size=3, prewarm=False)
    try:
        for _ in range(5):
            pids = fleet.prewarm()
            assert len(pids) == 3
            assert len(set(pids)) == 3
            assert fleet.stats["prewarmed"] == 3
        assert sorted(fleet.pids()) == pids
    finally:
        fleet.shutdown()


def test_fleet_timeout_kills_and_respawns_the_slot():
    fleet = WorkerFleet(size=1)
    try:
        (victim,) = fleet.pids()
        with pytest.raises(FleetTimeout):
            fleet.run_sync(service_sleep, {"seconds": 60.0}, timeout_s=0.2)
        assert fleet.stats["timeouts"] == 1
        assert fleet.stats["kills"] == 1
        assert fleet.stats["restarts"] == 1
        (replacement,) = fleet.pids()
        assert replacement != victim
        # The slot is free and healthy: the next request succeeds.
        reply = fleet.run_sync(service_sleep, {"seconds": 0.0}, timeout_s=30)
        assert reply["ok"] and reply["worker"]["pid"] == replacement
    finally:
        fleet.shutdown()


def test_slot_deadline_runs_from_the_send():
    """Time between writing a request and polling for its reply (here a
    50 ms pause at the chaos site; in a server, a wait for the
    interpreter lock) counts against the deadline."""
    polled = []

    class Pipe:
        def send(self, message):
            pass

        def poll(self, timeout):
            polled.append(timeout)
            return False

    slot = _Slot.__new__(_Slot)
    slot.index, slot.process, slot.conn = 0, None, Pipe()
    pause = FaultPlan((FaultEvent("fleet.call.sent", 0, "sleep", param=0.05),))
    with faults.installed(pause):
        assert slot.call(service_sleep, {}, 0.02) == ("timeout", None)
    assert polled == [0.0]


def test_fleet_sigkill_worker_is_replaced_and_request_retries():
    import os
    import signal
    import time

    fleet = WorkerFleet(size=1)
    try:
        (victim,) = fleet.pids()
        os.kill(victim, signal.SIGKILL)
        time.sleep(0.2)
        reply = fleet.run_sync(_worker_ident, {}, timeout_s=60)
        assert reply["ok"]
        assert reply["pid"] != victim
        assert fleet.stats["restarts"] >= 1
        assert fleet.stats["retries"] >= 1
    finally:
        fleet.shutdown()


def test_sigkilled_worker_payload_is_byte_identical_to_healthy_run(z4):
    import os
    import signal
    import time

    with ServerThread(jobs=1) as thread:
        item = work_item(z4.outputs[1], name="o1")
        with ServiceClient(thread.host, thread.port) as client:
            healthy, _stats = client.decompose(item)
            for pid in thread.service.fleet.pids():
                os.kill(pid, signal.SIGKILL)
            time.sleep(0.2)
            # Cache-less server + retired flight: this recomputes on the
            # replacement worker (cold state) and must match byte for
            # byte once the informational channels are stripped.
            recovered, stats = client.decompose(item)
            assert stats["served_by"] == "fleet"
        assert stripped(recovered, INFORMATIONAL_RESULT_KEYS) == stripped(
            healthy, INFORMATIONAL_RESULT_KEYS
        )
        status = thread.service.status()
        assert status["fleet"]["restarts"] >= 1


def test_wire_timeout_is_typed_and_does_not_pin_the_slot(z4):
    # A deadline the request cannot meet: its dispatch thread is held
    # 1 s at the chaos site, far past the 0.2 s deadline.  The request
    # times out, the worker is killed and respawned, and the *same key*
    # computes fine afterwards — the flight did not corrupt later
    # arrivals.
    with ServerThread(jobs=1) as thread:
        item = work_item(z4.outputs[0], name="o0")
        with ServiceClient(thread.host, thread.port) as client:
            late = FaultPlan(
                (FaultEvent("fleet.call.sent", 0, "sleep", param=1.0),)
            )
            with faults.installed(late):
                with pytest.raises(ServiceError) as excinfo:
                    client.decompose(item, timeout_s=0.2)
            assert late.log == [("fleet.call.sent", 0, "sleep")]
            assert excinfo.value.type == "timeout"
            payload, stats = client.decompose(item)
            assert stats["served_by"] == "fleet"
            assert payload["verified"] is True
            status = client.status()
        assert status["fleet"]["timeouts"] == 1
        assert status["fleet"]["kills"] == 1
        assert status["requests"]["timeouts"] == 1


def test_timeout_propagates_to_coalesced_followers(z4):
    service = DecompositionService(jobs=1)
    try:
        item = work_item(z4.outputs[0], name="o0")
        doomed = wire.svc_request(
            "decompose", {**item, "timeout_s": 0.2}, "lead"
        )
        follower = wire.svc_request("decompose", dict(item), "follow")
        # The leader's dispatch is held 1 s, past its 0.2 s deadline.
        late = FaultPlan((FaultEvent("fleet.call.sent", 0, "sleep", param=1.0),))
        with faults.installed(late):
            responses = drive(service, [doomed, follower])
        assert late.log == [("fleet.call.sent", 0, "sleep")]
        assert [r["ok"] for r in responses] == [False, False]
        assert {r["error"]["type"] for r in responses} == {"timeout"}
        # The key is not poisoned: a later request recomputes cleanly.
        (ok,) = drive(service, [wire.svc_request("decompose", item, "later")])
        assert ok["ok"]
        assert ok["stats"]["served_by"] == "fleet"
    finally:
        service.close()


def test_reply_waiting_past_the_deadline_is_a_timeout(z4):
    """A reply that is already in the pipe when the polling thread first
    runs, after the deadline, is not read: the request times out and the
    worker is killed and respawned.  Here the thread is held 1 s at the
    chaos site, far past the 0.2 s deadline and the worker's compute."""
    service = DecompositionService(jobs=1)
    try:
        item = work_item(z4.outputs[0], name="o0")
        late = FaultPlan((FaultEvent("fleet.call.sent", 0, "sleep", param=1.0),))
        with faults.installed(late):
            (response,) = drive(
                service,
                [wire.svc_request("decompose", {**item, "timeout_s": 0.2}, "late")],
            )
        assert late.log == [("fleet.call.sent", 0, "sleep")]
        assert not response["ok"]
        assert response["error"]["type"] == "timeout"
        assert service.fleet.stats["kills"] == 1
    finally:
        service.close()


def test_invalid_timeout_param_is_a_bad_request(z4):
    service = DecompositionService(jobs=1, prewarm=False)
    try:
        item = work_item(z4.outputs[0], name="o0")
        responses = drive(
            service,
            [
                wire.svc_request("decompose", {**item, "timeout_s": -1}, "n"),
                wire.svc_request("decompose", {**item, "timeout_s": "x"}, "s"),
            ],
        )
        assert [r["error"]["type"] for r in responses] == ["bad-request"] * 2
        assert service.fleet.stats["dispatched"] == 0
    finally:
        service.close()


def test_unknown_strategy_names_are_bad_requests_before_dispatch(z4):
    service = DecompositionService(jobs=1, prewarm=False)
    try:
        item = work_item(z4.outputs[0], name="o0", op="AND")
        unknown = [
            ("op", "NO_SUCH_OP"),
            ("approximator", "no-such-approximator"),
            ("minimizer", "no-such-minimizer"),
            ("operators", ["AND", "NO_SUCH_OP"]),
        ]
        netsyn_unknown = [
            ("benchmark", "no-such-benchmark"),
            ("operators", ["AND", "NO_SUCH_OP"]),
            ("approximator", "no-such-approximator"),
            ("minimizer", "no-such-minimizer"),
        ]
        netsyn_params = [
            {"benchmark": value}
            if param == "benchmark"
            else {"benchmark": "z4", "config": {param: value}}
            for param, value in netsyn_unknown
        ]
        responses = drive(
            service,
            [
                wire.svc_request("decompose", {**item, param: value}, param)
                for param, value in unknown
            ]
            + [
                wire.svc_request("netsyn", params, f"netsyn-{index}")
                for index, params in enumerate(netsyn_params)
            ],
        )
        assert [r["error"]["type"] for r in responses] == ["bad-request"] * 8
        for response, (_, value) in zip(responses, unknown + netsyn_unknown):
            name = value if isinstance(value, str) else value[-1]
            assert repr(name) in response["error"]["message"]
        assert service.fleet.stats["dispatched"] == 0
        (ok,) = drive(service, [wire.svc_request("decompose", item, "ok")])
        assert ok["ok"]
        assert service.fleet.stats["dispatched"] == 1
    finally:
        service.close()


def test_max_inflight_rejects_overbudget_burst_with_typed_errors(z4):
    service = DecompositionService(jobs=1, max_inflight=1)
    try:
        envelopes = [
            wire.svc_request(
                "decompose", work_item(z4.outputs[0], op=op), f"r-{op}"
            )
            for op in ("AND", "OR", "XOR")
        ]
        responses = drive(service, envelopes)
        # gather starts the handlers in order: the first is admitted and
        # parks on the fleet; the rest are over budget, deterministically.
        assert [r["ok"] for r in responses] == [True, False, False]
        assert {r["error"]["type"] for r in responses[1:]} == {"overloaded"}
        assert service.admission["overloaded"] == 2
        assert service.inflight == 0  # gauge returns to idle
        # In-budget traffic completes: send the rejects again, one at a time.
        for envelope in envelopes[1:]:
            (response,) = drive(service, [envelope])
            assert response["ok"]
    finally:
        service.close()


def test_oversized_request_line_gets_typed_too_large_error(z4):
    import socket as socket_module

    service = DecompositionService(jobs=1, prewarm=False, max_line_bytes=4096)
    with ServerThread(service=service) as thread:
        with socket_module.create_connection(
            (thread.host, thread.port), timeout=60
        ) as sock:
            handle = sock.makefile("rwb")
            handle.write(b"x" * 8192 + b"\n")
            handle.flush()
            reply = json.loads(handle.readline())
            assert reply["ok"] is False
            assert reply["error"]["type"] == "too-large"
            assert handle.readline() == b""  # desynced connection closed
        # The server survives and serves new connections.
        with ServiceClient(thread.host, thread.port) as client:
            assert client.status()["admission"]["too_large"] == 1
    service.close()


def test_per_connection_pending_cap_rejects_pipelining_abuse(z4):
    import socket as socket_module

    service = DecompositionService(jobs=1, max_pending_per_conn=1)
    with ServerThread(service=service) as thread:
        item = work_item(z4.outputs[0], name="o0")
        lines = [
            json.dumps(wire.svc_request("decompose", item, f"p{i}"))
            for i in range(3)
        ]
        with socket_module.create_connection(
            (thread.host, thread.port), timeout=120
        ) as sock:
            handle = sock.makefile("rwb")
            handle.write(("\n".join(lines) + "\n").encode("utf-8"))
            handle.flush()
            replies = [json.loads(handle.readline()) for _ in range(3)]
        by_id = {reply["id"]: reply for reply in replies}
        # The first request is in flight when lines 2 and 3 are read, so
        # both trip the cap; replies keep their request ids.
        assert by_id["p0"]["ok"] is True
        assert by_id["p1"]["error"]["type"] == "overloaded"
        assert by_id["p2"]["error"]["type"] == "overloaded"
        assert service.admission["overloaded"] == 2
    service.close()


def test_client_timeout_marks_connection_broken():
    import socket as socket_module
    import threading
    import time

    # A deliberately slow server: reads the request, replies after the
    # client's socket deadline has long passed.
    listener = socket_module.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def slow_server():
        conn, _addr = listener.accept()
        with conn:
            handle = conn.makefile("rwb")
            handle.readline()
            time.sleep(1.0)
            try:
                handle.write(
                    json.dumps(
                        wire.svc_response("c1", {"late": True})
                    ).encode("utf-8")
                    + b"\n"
                )
                handle.flush()
            except (BrokenPipeError, ConnectionError, OSError):
                pass

    thread = threading.Thread(target=slow_server, daemon=True)
    thread.start()
    try:
        client = ServiceClient("127.0.0.1", port, timeout=0.2)
        with pytest.raises(ServiceError) as excinfo:
            client.request("status")
        assert excinfo.value.type == "timeout"
        # The late reply must never pair with a later request: the
        # connection is poisoned.  A *compute* kind never auto-retries —
        # it fails fast on the broken connection.
        with pytest.raises(ServiceError) as excinfo:
            client.request("decompose", {"f": {}})
        assert excinfo.value.type == "connection-closed"
        assert client.stats["reconnects"] == 0
    finally:
        thread.join(timeout=30)
        listener.close()


def test_client_idempotent_kinds_reconnect_transparently(server):
    client = ServiceClient(server.host, server.port)
    try:
        assert client.status()["fleet"]["size"] >= 1
        # Poison the connection the way a timeout would.
        client._break()
        with pytest.raises(ServiceError):
            client.request("decompose", {"f": {}})  # compute: fails fast
        # status is idempotent: the client reconnects and retries on its
        # own instead of failing fast forever.
        assert client.status()["fleet"]["size"] >= 1
        assert client.stats["reconnects"] == 1
        assert not client._broken
    finally:
        client.close()


def test_client_reconnect_escape_hatch(server):
    client = ServiceClient(server.host, server.port)
    try:
        client._break()
        client.reconnect()
        assert not client._broken
        # A compute kind works again after the explicit reconnect.
        with pytest.raises(ServiceError) as excinfo:
            client.request("decompose", {"name": "missing-f"})
        assert excinfo.value.type == "bad-request"
    finally:
        client.close()


def test_metrics_request_renders_prometheus_exposition(server):
    with ServiceClient(server.host, server.port) as client:
        result, _stats = client.request("metrics")
        text = client.metrics()
    assert result["content_type"].startswith("text/plain")
    # Rendering is a pure function of the status counters.
    assert render_prometheus(server.service.status()).startswith("# HELP repro_")
    lines = text.strip().splitlines()
    samples = [line for line in lines if not line.startswith("#")]
    assert samples, "metrics page has no samples"
    for line in samples:
        name, value = line.rsplit(" ", 1)
        assert name.startswith("repro_")
        float(value)  # every sample parses as a number
    names = {line.rsplit(" ", 1)[0] for line in samples}
    # The hardening counters are all on the page.
    for expected in (
        "repro_fleet_restarts",
        "repro_fleet_kills",
        "repro_fleet_timeouts",
        "repro_admission_overloaded",
        "repro_admission_too_large",
        "repro_admission_rate_limited",
        "repro_requests_requests",
        "repro_coalesce_rate",
        "repro_server_uptime_s",
        "repro_fleet_slots_target",
        "repro_fleet_slots_live",
        "repro_fleet_draining",
        "repro_fleet_resizes",
        "repro_fleet_grown",
        "repro_fleet_shrunk",
        "repro_cache_quarantined",
    ):
        assert expected in names
    # TYPE comments precede their samples.
    assert any(line.startswith("# TYPE repro_fleet_size gauge") for line in lines)


def test_shutdown_request_stops_the_server():
    thread = ServerThread(jobs=1, prewarm=False)
    thread.start()
    try:
        with ServiceClient(thread.host, thread.port) as client:
            assert client.shutdown() == {"stopping": True}
        thread._thread.join(timeout=60)
        assert not thread._thread.is_alive()
    finally:
        thread.stop()


# ---------------------------------------------------------------------------
# Graceful resize + autoscale
# ---------------------------------------------------------------------------


def test_fleet_resize_grow_then_shrink_idle():
    with WorkerFleet(2, prewarm=False) as fleet:
        summary = fleet.resize(4)
        assert summary["size"] == 4
        assert summary["grown"] == 2
        assert fleet.slots_live == 4
        assert len(set(fleet.pids())) == 4
        assert fleet.run_sync(_worker_ident, {})["ok"]
        # Shrink with every slot idle: victims retire immediately (the
        # process joins run detached; the bookkeeping is synchronous).
        summary = fleet.resize(2)
        assert summary["size"] == 2
        assert summary["shrunk"] == 2
        assert fleet.slots_live == 2
        assert fleet.draining == 0
        assert fleet.stats["resizes"] == 2
        assert fleet.stats["grown"] == 2
        assert fleet.stats["shrunk"] == 2
        assert fleet.run_sync(_worker_ident, {})["ok"]


def test_fleet_shrink_drains_busy_slots_without_dropping():
    import threading
    import time

    with WorkerFleet(2) as fleet:
        results = []

        def sleeper():
            results.append(fleet.run_sync(service_sleep, {"seconds": 0.6}))

        threads = [threading.Thread(target=sleeper) for _ in range(2)]
        for thread in threads:
            thread.start()
        # Wait until both slots are checked out.
        deadline = time.time() + 5
        while fleet._free and time.time() < deadline:
            time.sleep(0.01)
        assert not fleet._free, "slots never became busy"

        summary = fleet.resize(1)
        # No idle slot to retire: one busy slot is draining instead.
        assert summary["size"] == 1
        assert summary["draining"] == 1
        assert fleet.slots_live == 2  # still finishing its request

        for thread in threads:
            thread.join(timeout=30)
        # Zero dropped: both in-flight sleeps resolved normally.
        assert [reply["ok"] for reply in results] == [True, True]
        assert {reply["payload"]["slept"] for reply in results} == {0.6}
        # The draining slot retired once its request released it.
        deadline = time.time() + 5
        while (fleet.draining or fleet.slots_live != 1) and time.time() < deadline:
            time.sleep(0.01)
        assert fleet.draining == 0
        assert fleet.slots_live == 1
        assert fleet.stats["shrunk"] == 1
        # Growing reclaims nothing (no drains left) and spawns fresh.
        assert fleet.resize(2)["size"] == 2
        assert fleet.run_sync(_worker_ident, {})["ok"]


def test_resize_grow_cancels_drains_first():
    import threading
    import time

    with WorkerFleet(2) as fleet:
        results = []

        def sleeper():
            results.append(fleet.run_sync(service_sleep, {"seconds": 0.8}))

        threads = [threading.Thread(target=sleeper) for _ in range(2)]
        for thread in threads:
            thread.start()
        deadline = time.time() + 5
        while fleet._free and time.time() < deadline:
            time.sleep(0.01)
        fleet.resize(1)
        assert fleet.draining == 1
        # Growing back before the drain completes just un-marks the
        # victim: the slot is warm and returns to the pool on release.
        summary = fleet.resize(2)
        assert summary["grown"] == 1
        assert fleet.draining == 0
        for thread in threads:
            thread.join(timeout=30)
        assert [reply["ok"] for reply in results] == [True, True]
        assert fleet.slots_live == 2
        assert fleet.stats["shrunk"] == 0  # nothing actually retired


def test_checkout_serves_waiting_dispatch_before_later_arrival():
    """A dispatch already waiting gets the freed slot before one that
    arrives just after the release — even the releasing thread itself,
    as when a batch thread goes straight on to its next item."""
    import threading
    import time

    with WorkerFleet(1, prewarm=False) as fleet:
        busy = fleet._checkout()  # the only slot
        order = []

        def dispatch(tag):
            slot = fleet._checkout()
            order.append(tag)
            fleet._release(slot)

        waiter = threading.Thread(target=dispatch, args=("waiting",))
        waiter.start()
        deadline = time.time() + 5
        while fleet.queue_depth() < 1 and time.time() < deadline:
            time.sleep(0.01)
        assert fleet.queue_depth() == 1
        fleet._release(busy)
        dispatch("later")
        waiter.join(timeout=30)
        assert not waiter.is_alive()
        assert order == ["waiting", "later"]
        assert fleet.queue_depth() == 0


def test_resize_service_kind_and_validation():
    service = DecompositionService(jobs=1, prewarm=False)
    try:
        bad, good = drive(
            service,
            [
                wire.svc_request("resize", {}, "x1"),
                wire.svc_request("resize", {"size": 2}, "x2"),
            ],
        )
        assert bad["ok"] is False
        assert bad["error"]["type"] == "bad-request"
        assert good["ok"] is True
        assert good["result"]["size"] == 2
        assert service.fleet.size == 2
    finally:
        service.close()


def test_autoscale_decision_is_queue_depth_driven():
    service = DecompositionService(
        jobs=1, prewarm=False, min_slots=1, max_slots=3
    )
    try:
        fleet = service.fleet
        assert service.autoscale_decision() is None  # at the floor, idle
        fleet.waiting = 2  # simulate dispatches queued for a slot
        assert service.autoscale_decision() == 3  # grow by depth, capped
        fleet.waiting = 0
        fleet.resize(3)
        # Sustained idleness shrinks one slot after three ticks.
        assert service.autoscale_decision() is None
        assert service.autoscale_decision() is None
        assert service.autoscale_decision() == 2
        # A manual resize outside the bounds is pulled back into range.
        fleet.resize(5)
        assert service.autoscale_decision() == 3
    finally:
        service.close()


def test_resize_under_load_drops_zero_requests(z4):
    import threading
    import time

    service = DecompositionService(jobs=2)
    expected = [
        in_process_payload(isf, name=f"o{index}")
        for index, isf in enumerate(z4.outputs)
    ]
    with ServerThread(service=service) as thread:
        errors: list = []
        payloads: list = []
        stop = threading.Event()

        def pound(worker: int) -> None:
            with ServiceClient(thread.host, thread.port) as client:
                index = worker
                while not stop.is_set():
                    isf_index = index % len(z4.outputs)
                    item = work_item(
                        z4.outputs[isf_index], name=f"o{isf_index}"
                    )
                    try:
                        payload, _stats = client.request("decompose", item)
                        payloads.append((isf_index, payload))
                    except ServiceError as exc:  # pragma: no cover
                        errors.append(exc)
                    index += 1

        workers = [
            threading.Thread(target=pound, args=(n,)) for n in range(4)
        ]
        for worker in workers:
            worker.start()
        try:
            with ServiceClient(thread.host, thread.port) as control:
                grow = control.resize(4)
                assert grow["size"] == 4
                time.sleep(0.4)
                shrink = control.resize(2)
                assert shrink["size"] == 2
                time.sleep(0.3)
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=60)
        assert errors == []
        assert payloads, "no requests completed under load"
        # Every response is byte-identical to the in-process result.
        for isf_index, payload in payloads:
            assert stripped(payload, INFORMATIONAL_RESULT_KEYS) == stripped(
                expected[isf_index], INFORMATIONAL_RESULT_KEYS
            )
        # The fleet converges back to the shrink target.
        deadline = time.time() + 10
        while (
            service.fleet.draining or service.fleet.slots_live != 2
        ) and time.time() < deadline:
            time.sleep(0.05)
        assert service.fleet.size == 2
        assert service.fleet.slots_live == 2
        assert service.fleet.stats["resizes"] == 2
    service.close()


# ---------------------------------------------------------------------------
# Per-client rate limiting
# ---------------------------------------------------------------------------


def test_rate_limiter_token_bucket_with_fake_clock():
    from repro.service import RateLimiter

    clock = {"t": 0.0}
    limiter = RateLimiter(rate=2.0, burst=2.0, clock=lambda: clock["t"])
    assert limiter.admit("a") == 0.0  # burst token 1
    assert limiter.admit("a") == 0.0  # burst token 2
    wait = limiter.admit("a")
    assert wait == pytest.approx(0.5)  # empty: one token is 1/rate away
    clock["t"] = 0.25
    assert limiter.admit("a") == pytest.approx(0.25)  # halfway refilled
    clock["t"] = 0.75
    assert limiter.admit("a") == 0.0  # refilled past one token
    assert limiter.admit("b") == 0.0  # buckets are per peer


def test_rate_limited_envelope_carries_retry_after(z4):
    service = DecompositionService(jobs=1, rate=0.001, burst=1)
    try:
        item = work_item(z4.outputs[0], name="o0")
        replies = drive(
            service,
            [
                wire.svc_request("decompose", item, "r1"),
                wire.svc_request("decompose", item, "r2"),
            ],
        )
        ok = [reply for reply in replies if reply["ok"]]
        limited = [reply for reply in replies if not reply["ok"]]
        assert len(ok) == 1 and len(limited) == 1
        error = limited[0]["error"]
        assert error["type"] == "rate-limited"
        assert error["retry_after_s"] > 0
        # Probe kinds are never throttled — monitoring keeps working.
        probe = drive(service, [wire.svc_request("status", {}, "s1")])[0]
        assert probe["ok"] is True
        assert service.admission["rate_limited"] == 1
    finally:
        service.close()


def test_rate_limited_client_recovers_with_backoff(z4):
    service = DecompositionService(jobs=1, rate=5.0, burst=1)
    expected = in_process_payload(z4.outputs[0], name="o0")
    with ServerThread(service=service) as thread:
        with ServiceClient(thread.host, thread.port) as client:
            payloads = [
                client.request(
                    "decompose", work_item(z4.outputs[0], name="o0")
                )[0]
                for _ in range(3)
            ]
            retries = client.stats["rate_limited_retries"]
    # Back-to-back requests overran 5 req/s: at least one was limited,
    # backed off per the server's retry_after_s hint, and recovered.
    assert retries >= 1
    assert service.admission["rate_limited"] >= 1
    for payload in payloads:
        assert stripped(payload, INFORMATIONAL_RESULT_KEYS) == stripped(
            expected, INFORMATIONAL_RESULT_KEYS
        )
    service.close()
