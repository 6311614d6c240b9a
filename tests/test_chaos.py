"""Chaos suite: seeded fault plans replayed against the serving stack.

The contract under test (ISSUE 9): with a :class:`FaultPlan` installed,
every request either succeeds **byte-identically** to an in-process run
or fails with a **typed error** — never hangs, never poisons warm state
— and replaying the same plan replays the same faults with the same
outcomes.  The cache half of the contract: SIGKILL at *every* injected
cache-write crash point leaves the store openable with at most the
in-flight entry lost.

Three seeded archetypes are pinned explicitly (worker-kill,
slow-worker, cache-write-crash) plus generated-plan replay determinism,
leader-failure coverage at every coalescer yield point, and the
sacrificial-child SIGKILL matrix over the three ``cache.put.*`` sites.
"""

import asyncio
import json
import multiprocessing
import os
import signal

import pytest

from repro.benchgen.registry import load_benchmark
from repro.engine import wire
from repro.engine.cache import ResultCache
from repro.service import DecompositionService
from repro.service import faults
from repro.service.faults import FaultEvent, FaultPlan, InjectedFault

from tests.test_service import (
    INFORMATIONAL_RESULT_KEYS,
    drive,
    in_process_payload,
    stripped,
    wait_until_written,
    work_item,
)


@pytest.fixture(scope="module")
def z4():
    return load_benchmark("z4")


@pytest.fixture(scope="module")
def expected_payloads(z4):
    return [
        in_process_payload(isf, name=f"o{index}")
        for index, isf in enumerate(z4.outputs)
    ]


def drive_sequential(service, envelopes):
    """Serve envelopes one at a time: deterministic site-hit ordering."""

    async def _run():
        replies = []
        for envelope in envelopes:
            replies.append(await service.handle(envelope))
        return replies

    return asyncio.run(_run())


def decompose_envelopes(z4, count):
    return [
        wire.svc_request(
            "decompose",
            work_item(z4.outputs[i % len(z4.outputs)], name=f"o{i % len(z4.outputs)}"),
            f"q{i}",
        )
        for i in range(count)
    ]


def outcome_summary(replies, expected_payloads, z4, count):
    """Canonical per-request outcome: the chaos contract, checkable.

    Every reply must be ok-and-byte-identical or a typed error; the
    summary is what must match across replays of the same plan.
    """
    summary = []
    for i, reply in enumerate(replies):
        if reply["ok"]:
            payload = stripped(reply["result"], INFORMATIONAL_RESULT_KEYS)
            expected = stripped(
                expected_payloads[i % len(z4.outputs)],
                INFORMATIONAL_RESULT_KEYS,
            )
            assert payload == expected, f"request {i}: result diverged"
            summary.append(("ok", json.dumps(payload, sort_keys=True)))
        else:
            error_type = reply["error"]["type"]
            assert isinstance(error_type, str) and error_type
            summary.append(("error", error_type))
    assert len(summary) == count
    return tuple(summary)


# ---------------------------------------------------------------------------
# FaultPlan unit behavior
# ---------------------------------------------------------------------------


def test_generate_is_seeded_and_deterministic():
    first = FaultPlan.generate(7)
    second = FaultPlan.generate(7)
    assert first.events == second.events
    assert first.events != FaultPlan.generate(8).events
    for event in first.events:
        assert event.site in faults.KNOWN_SITES
        assert event.action in faults.GENERATED_ACTIONS  # never "crash"


def test_events_fire_at_their_hit_and_only_once():
    plan = FaultPlan((FaultEvent("some.site", 2, "error"),))
    plan.fire("some.site")  # hit 0
    plan.fire("some.site")  # hit 1
    with pytest.raises(InjectedFault):
        plan.fire("some.site")  # hit 2: due
    plan.fire("some.site")  # hit 3: one-shot, never again
    assert plan.fired() == 1
    assert plan.log == [("some.site", 2, "error")]


def test_fire_is_a_noop_without_an_installed_plan():
    faults.uninstall()
    faults.fire("anywhere", slot=None)  # must not raise
    assert faults.active() is None


def test_installed_context_restores_previous_plan():
    outer = FaultPlan()
    faults.install(outer)
    try:
        inner = FaultPlan()
        with faults.installed(inner) as active:
            assert active is inner
            assert faults.active() is inner
        assert faults.active() is outer
    finally:
        faults.uninstall()


def test_crash_action_is_inert_unless_armed():
    plan = FaultPlan((FaultEvent("s", 0, "crash"),))
    plan.fire("s")  # not armed: must NOT kill the test runner
    assert plan.fired() == 1


def test_slot_actions_without_slot_context_are_noops():
    plan = FaultPlan(
        (FaultEvent("s", 0, "kill-worker"), FaultEvent("s", 1, "drop-pipe"))
    )
    plan.fire("s")
    plan.fire("s", slot=None)
    assert plan.fired() == 2


def test_unknown_action_raises():
    plan = FaultPlan((FaultEvent("s", 0, "set-on-fire"),))
    with pytest.raises(ValueError):
        plan.fire("s")


# ---------------------------------------------------------------------------
# Archetype plans: worker-kill, slow-worker, cache-write-crash
# ---------------------------------------------------------------------------


def _chaos_run(plan_factory, z4, expected_payloads, count=8, **service_kwargs):
    """One full chaos run: install plan → build service → drive → report."""
    plan = plan_factory()
    with faults.installed(plan):
        # Install BEFORE the fleet forks so workers inherit the plan —
        # that is how worker.compute events reach the far side.
        service = DecompositionService(jobs=1, **service_kwargs)
        try:
            replies = drive_sequential(service, decompose_envelopes(z4, count))
        finally:
            service.close()
    return (
        outcome_summary(replies, expected_payloads, z4, count),
        tuple(plan.log),
        service,
    )


def test_worker_kill_plan_replays_deterministically(z4, expected_payloads):
    # Seeded archetype: the worker is SIGKILLed (and once has its pipe
    # dropped) mid-request; the fleet must respawn and retry, and every
    # request must still come back byte-identical.
    def plan_factory():
        return FaultPlan(
            (
                FaultEvent("fleet.call.sent", 2, "kill-worker"),
                FaultEvent("fleet.call.sent", 5, "drop-pipe"),
            ),
            seed=1,
        )

    first, first_log, service = _chaos_run(plan_factory, z4, expected_payloads)
    second, second_log, _ = _chaos_run(plan_factory, z4, expected_payloads)
    assert first == second
    assert first_log == second_log
    # Both faults were delivered and healed: all requests succeeded.
    assert all(kind == "ok" for kind, _ in first)
    assert len(first_log) == 2
    assert service.fleet.stats["retries"] == 2
    assert service.fleet.stats["restarts"] == 2


def test_slow_worker_plan_times_out_typed_and_deterministically(
    z4, expected_payloads
):
    # Seeded archetype: the worker goes dark (sleeps far past the
    # deadline) on its third compute.  The parent must kill + respawn it
    # and answer with a typed "timeout" — and because fault counters are
    # per process, the *respawned* worker does the same on its own third
    # compute: requests 2 and 5 fail, everything else is byte-identical.
    def plan_factory():
        return FaultPlan(
            (FaultEvent("worker.compute", 2, "sleep", param=30.0),), seed=2
        )

    first, _log, service = _chaos_run(
        plan_factory, z4, expected_payloads, timeout_s=1.0
    )
    second, _log2, _ = _chaos_run(
        plan_factory, z4, expected_payloads, timeout_s=1.0
    )
    assert first == second
    kinds = [kind for kind, _ in first]
    assert kinds[2] == "error" and first[2][1] == "timeout"
    assert kinds[5] == "error" and first[5][1] == "timeout"
    assert kinds.count("ok") == 6
    assert service.stats["timeouts"] == 2
    assert service.fleet.stats["kills"] == 2


def test_cache_write_crash_plan_fails_typed_and_recovers(
    z4, expected_payloads, tmp_path
):
    # Seeded archetype: the first cache write dies right after its
    # entry temp is written and fsynced, before the rename.  The write
    # runs after the reply, so that request still answers ok; the
    # failure is counted, the failed put unlinks its temp, and no key is
    # poisoned: the fifth request repeats the first key, once its write
    # has failed, and recomputes it byte-identically.
    def plan_factory():
        return FaultPlan(
            (FaultEvent("cache.put.entry_written", 0, "error"),), seed=3
        )

    def chaos_run(cache_dir):
        plan = plan_factory()
        envelopes = decompose_envelopes(z4, 5)
        with faults.installed(plan):
            service = DecompositionService(jobs=1, cache_dir=cache_dir)
            try:
                replies = drive_sequential(service, envelopes[:4])
                wait_until_written(service)
                replies += drive_sequential(service, envelopes[4:])
            finally:
                service.close()
        summary = outcome_summary(replies, expected_payloads, z4, 5)
        return summary, tuple(plan.log), service, replies

    first, first_log, service, replies = chaos_run(str(tmp_path / "a"))
    second, second_log, _, _ = chaos_run(str(tmp_path / "b"))
    assert first == second
    assert first_log == second_log == (("cache.put.entry_written", 0, "error"),)
    assert all(kind == "ok" for kind, _ in first)
    assert service.status()["cache"]["put_failures"] == 1
    assert [reply["stats"]["served_by"] for reply in replies] == ["fleet"] * 5
    assert service.fleet.stats["dispatched"] == 5
    assert service.cache.stats["corrupt"] == 0
    assert list((tmp_path / "a").glob("*/*.tmp*")) == []


@pytest.mark.parametrize("seed", (11, 23, 47))
def test_generated_plans_replay_deterministically(seed, z4, expected_payloads):
    # The general form of the guarantee: ANY seeded schedule replays to
    # the same per-request outcomes and the same delivered-fault log.
    def plan_factory():
        return FaultPlan.generate(seed, n_events=3, max_hit=5)

    first, first_log, _ = _chaos_run(
        plan_factory, z4, expected_payloads, count=6, timeout_s=30.0
    )
    second, second_log, _ = _chaos_run(
        plan_factory, z4, expected_payloads, count=6, timeout_s=30.0
    )
    assert first == second
    assert first_log == second_log


# ---------------------------------------------------------------------------
# Coalescer under injected faults: leader killed at every yield point
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "site", ("server.compute.start", "server.compute.computed")
)
def test_leader_failure_is_shared_typed_and_does_not_poison_the_key(
    site, z4, expected_payloads, tmp_path
):
    service = DecompositionService(
        jobs=1, cache_dir=str(tmp_path / site.replace(".", "-"))
    )
    try:
        item = work_item(z4.outputs[0], name="o0")
        envelopes = [
            wire.svc_request("decompose", item, f"d{i}") for i in range(3)
        ]
        plan = FaultPlan((FaultEvent(site, 0, "error"),))
        with faults.installed(plan):
            replies = drive(service, envelopes)
        # The flight failed once; leader AND both attached followers all
        # see the same typed error (one computation, one failure).
        assert [reply["ok"] for reply in replies] == [False, False, False]
        assert {reply["error"]["type"] for reply in replies} == {
            "InjectedFault"
        }
        assert service.coalescer.stats["followers"] == 2
        # The key is not poisoned: the next flight recomputes cleanly.
        recovered = drive(
            service, [wire.svc_request("decompose", item, "r0")]
        )[0]
        assert recovered["ok"] is True
        assert stripped(
            recovered["result"], INFORMATIONAL_RESULT_KEYS
        ) == stripped(expected_payloads[0], INFORMATIONAL_RESULT_KEYS)
        assert len(service.coalescer) == 0
    finally:
        service.close()


def test_coalesce_flight_fault_fails_only_the_would_be_leader(z4):
    # The pre-registration yield point: the fault fires after the key
    # check but before the flight exists.  Nothing must be registered,
    # so the other concurrent arrivals elect a fresh leader and succeed.
    service = DecompositionService(jobs=1)
    try:
        item = work_item(z4.outputs[0], name="o0")
        envelopes = [
            wire.svc_request("decompose", item, f"d{i}") for i in range(3)
        ]
        plan = FaultPlan((FaultEvent("coalesce.flight", 0, "error"),))
        with faults.installed(plan):
            replies = drive(service, envelopes)
        failures = [reply for reply in replies if not reply["ok"]]
        successes = [reply for reply in replies if reply["ok"]]
        assert len(failures) == 1
        assert failures[0]["error"]["type"] == "InjectedFault"
        assert len(successes) == 2
        assert len(service.coalescer) == 0
    finally:
        service.close()


# ---------------------------------------------------------------------------
# Cache crash-safety: SIGKILL at every cache-write crash point
# ---------------------------------------------------------------------------

KEY_COMMITTED = "aa" + "0" * 62
KEY_INFLIGHT = "bb" + "0" * 62

CRASH_SITES = (
    "cache.put.serialized",
    "cache.put.entry_written",
    "cache.put.renamed",
)


def _crash_child(cache_dir: str, site: str) -> None:
    """Sacrificial child: commit one entry, SIGKILL mid-write of the next."""
    plan = FaultPlan((FaultEvent(site, 1, "crash"),)).arm_crashes()
    faults.install(plan)
    cache = ResultCache(cache_dir)
    cache.put(KEY_COMMITTED, {"v": "committed"})  # site hit 0: clean
    cache.put(KEY_INFLIGHT, {"v": "inflight"})  # site hit 1: SIGKILL
    os._exit(1)  # pragma: no cover — the crash must have happened


@pytest.mark.parametrize("site", CRASH_SITES)
def test_sigkill_at_every_cache_write_point_leaves_store_openable(
    tmp_path, site
):
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(target=_crash_child, args=(str(tmp_path), site))
    child.start()
    child.join(timeout=60)
    assert child.exitcode == -signal.SIGKILL

    cache = ResultCache(tmp_path)
    # A committed entry survives a SIGKILL at ANY later write point.
    assert cache.get(KEY_COMMITTED) == {"v": "committed"}
    if site == "cache.put.renamed":
        # The rename is the commit point: the in-flight entry is whole.
        assert cache.get(KEY_INFLIGHT) == {"v": "inflight"}
    else:
        # Before the rename nothing durable names the key: the in-flight
        # entry is the loss, and its orphan temp (if any) is never read.
        assert cache.get(KEY_INFLIGHT) is None
    assert not (tmp_path / "journal").exists()
    # The store is fully writable.
    cache.put(KEY_INFLIGHT, {"v": "again"})
    assert cache.get(KEY_INFLIGHT) == {"v": "again"}
    assert cache.stats["corrupt"] == 0


def test_corrupt_crc_entry_is_counted_and_quarantined(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put(KEY_COMMITTED, {"v": 1})
    path = cache.path_for(KEY_COMMITTED)
    entry = json.loads(path.read_text(encoding="utf-8"))
    entry["payload"] = {"v": "tampered"}  # CRC now lies about the bytes
    path.write_text(json.dumps(entry), encoding="utf-8")

    assert cache.get(KEY_COMMITTED) is None
    assert cache.stats["corrupt"] == 1
    assert cache.stats["quarantined"] == 1
    assert not path.exists()
    quarantined = list((tmp_path / "quarantine").glob("*.bad"))
    assert len(quarantined) == 1
    # The store heals: the key is writable and readable again.
    cache.put(KEY_COMMITTED, {"v": 2})
    assert cache.get(KEY_COMMITTED) == {"v": 2}


def test_entries_with_crc_stay_on_the_v1_format(tmp_path):
    # The CRC is a back-compat *addition*: the entry format string (and
    # therefore every cache key) must not have changed, and entries
    # written before the CRC existed must still read.
    cache = ResultCache(tmp_path)
    cache.put(KEY_COMMITTED, {"v": 1})
    entry = json.loads(
        cache.path_for(KEY_COMMITTED).read_text(encoding="utf-8")
    )
    assert entry["format"] == "repro-cache-entry/1"
    assert "crc" in entry
    # A legacy entry (no crc field) reads cleanly.
    legacy_path = cache.path_for(KEY_INFLIGHT)
    legacy_path.parent.mkdir(exist_ok=True)
    legacy_path.write_text(
        json.dumps({"format": "repro-cache-entry/1", "payload": {"v": 9}}),
        encoding="utf-8",
    )
    assert cache.get(KEY_INFLIGHT) == {"v": 9}
    assert cache.stats["corrupt"] == 0
