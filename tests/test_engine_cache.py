"""ResultCache robustness: temp-file hygiene, stats accounting, keys.

Regressions covered:

* ``put`` used ``<name>.tmp<pid>``, so a writer that died before its
  atomic ``os.replace`` left an orphan forever, and two threads in one
  process collided on the same temp name (one thread's rename could ship
  the other's half-written bytes).  Temp names are now unique per
  (pid, instance, write) and stale orphans are swept on cache open.
* A corrupt entry must count as exactly one miss plus one corrupt — no
  double-count drift across warm/cold/corrupt sequences.  The same holds
  for a payload the caller's ``decode`` rejects.
* ``key_for`` must ignore the engine's operator search space for named
  operators but honor it under ``op="auto"``.
* The service gets on its event loop and puts on its cache-writer
  thread, so a budgeted store's LRU index must stay consistent when one
  thread's gets interleave with another's puts and evictions.
* A put serializes its payload once and splices that text into the
  entry; the bytes on disk must equal the two-pass form (payload dumped
  for its CRC, then the whole entry dumped) that earlier puts wrote.
"""

import errno
import json
import os
import sys
import tempfile
import threading
import time
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.serialize import SerializationError
from repro.engine.cache import ENTRY_FORMAT, STALE_TEMP_AGE_S, ResultCache
from repro.service import faults
from repro.service.faults import FaultEvent, FaultPlan, InjectedFault


def _entry_paths(cache: ResultCache):
    return sorted(cache.cache_dir.glob("*/*.json"))


# ---------------------------------------------------------------------------
# Temp-file hygiene
# ---------------------------------------------------------------------------


def test_put_leaves_no_temp_files(tmp_path):
    cache = ResultCache(tmp_path)
    for index in range(5):
        cache.put(f"{index:02x}{'0' * 62}", {"v": index})
    assert len(cache) == 5
    assert list(tmp_path.glob("*/*.tmp*")) == []


def test_stale_temp_from_dead_writer_is_swept_on_open(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ab" + "0" * 62
    cache.put(key, {"v": 1})
    # Simulate a writer that died after writing its temp but before the
    # atomic replace: an orphan temp next to the entry.
    orphan = cache.path_for(key).with_name(
        cache.path_for(key).name + ".tmp99999-deadbeef-0"
    )
    orphan.write_text("{half-written", encoding="utf-8")
    fresh = cache.path_for(key).with_name(
        cache.path_for(key).name + ".tmp88888-cafecafe-0"
    )
    fresh.write_text("{in-flight", encoding="utf-8")
    # Backdate only the orphan past the staleness horizon.
    stale_time = time.time() - STALE_TEMP_AGE_S - 60
    os.utime(orphan, (stale_time, stale_time))

    reopened = ResultCache(tmp_path)
    assert reopened.swept_temps == 1
    assert not orphan.exists()
    # A young temp may belong to a live concurrent writer: untouched.
    assert fresh.exists()
    # The real entry is intact.
    assert reopened.get(key) == {"v": 1}


def test_concurrent_threaded_puts_never_collide(tmp_path):
    cache = ResultCache(tmp_path)
    key = "cd" + "0" * 62
    errors = []

    def writer(worker: int):
        try:
            for round_index in range(25):
                cache.put(key, {"worker": worker, "round": round_index})
                payload = cache.get(key)
                assert isinstance(payload, dict) and payload.keys() == {
                    "worker",
                    "round",
                }
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(n,)) for n in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    # The final file is one complete, valid entry; no temps remain.
    entry = json.loads(cache.path_for(key).read_text(encoding="utf-8"))
    assert entry["format"] and "payload" in entry
    assert list(tmp_path.glob("*/*.tmp*")) == []
    assert cache.stats["corrupt"] == 0


def test_put_makes_one_durable_write_and_nothing_beside_the_entries(
    tmp_path, monkeypatch
):
    # A put is one temp file, one fsync and one rename: no second
    # durable record is written first, and nothing but the key shard
    # directories appears under the cache directory.
    cache = ResultCache(tmp_path)
    fsyncs = []
    real_fsync = os.fsync

    def counted_fsync(fd):
        fsyncs.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counted_fsync)
    keys = [f"{index:02x}{'0' * 62}" for index in range(5)]
    for index, key in enumerate(keys):
        cache.put(key, {"v": index})
    assert len(fsyncs) == len(keys)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        key[:2] for key in keys
    )
    assert all(path.is_dir() for path in tmp_path.iterdir())


def _fail_fsync_with_enospc(monkeypatch):
    def full_disk(fd):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "fsync", full_disk)
    return OSError


def _fail_after_the_temp_is_written(monkeypatch):
    # The installed plan is module state; monkeypatch restores it.
    plan = FaultPlan((FaultEvent("cache.put.entry_written", 0, "error"),))
    monkeypatch.setattr(faults, "_PLAN", plan)
    return InjectedFault


@pytest.mark.parametrize(
    "fail", (_fail_fsync_with_enospc, _fail_after_the_temp_is_written)
)
def test_failed_put_removes_its_temp_and_a_retry_is_served(
    tmp_path, monkeypatch, fail
):
    # A put that raises after its temp exists (a full disk in fsync, an
    # injected error before the rename) unlinks the temp before the
    # error propagates; the key stays a clean miss that a retry fills.
    cache = ResultCache(tmp_path)
    key = "ab" + "0" * 62
    error = fail(monkeypatch)
    with pytest.raises(error):
        cache.put(key, {"v": 1})
    assert list(tmp_path.glob("*/*.tmp*")) == []
    assert cache.get(key) is None
    monkeypatch.undo()
    cache.put(key, {"v": 1})
    assert cache.get(key) == {"v": 1}
    assert list(tmp_path.glob("*/*.tmp*")) == []
    assert cache.stats["stores"] == 1 and cache.stats["corrupt"] == 0


def test_two_instances_same_pid_use_distinct_temp_names(tmp_path):
    first = ResultCache(tmp_path)
    second = ResultCache(tmp_path)
    # The per-instance token is what separates same-pid writers whose
    # counters align; identical tokens would recreate the collision.
    assert first._tmp_token != second._tmp_token


# ---------------------------------------------------------------------------
# Entry bytes
# ---------------------------------------------------------------------------


def _two_pass_entry_text(payload) -> str:
    """The reference entry: the payload dumped once for its CRC, then the
    whole entry dumped again (how puts wrote entries before they
    serialized the payload once)."""
    canonical = {"sort_keys": True, "separators": (",", ":")}
    crc_text = json.dumps(payload, **canonical)
    crc = format(zlib.crc32(crc_text.encode("utf-8")) & 0xFFFFFFFF, "08x")
    return json.dumps(
        {"format": ENTRY_FORMAT, "crc": crc, "payload": payload}, **canonical
    )


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=24,
)


@settings(max_examples=100, deadline=None)
@given(payload=JSON_VALUES)
def test_put_writes_the_two_pass_entry_bytes(payload):
    key = "cd" + "0" * 62
    with tempfile.TemporaryDirectory() as directory:
        cache = ResultCache(directory)
        cache.put(key, payload)
        written = cache.path_for(key).read_text(encoding="utf-8")
        assert written == _two_pass_entry_text(payload)
        assert cache.get(key) == payload


def test_put_writes_the_two_pass_entry_bytes_for_a_result_payload(tmp_path):
    from repro.benchgen import load_benchmark
    from repro.core.operators import EXPERIMENT_OPERATORS
    from repro.engine import wire
    from repro.engine.parallel import decompose_item, make_work_item

    f = load_benchmark("z4").outputs[0]
    item = make_work_item(
        "o0", wire.isf_to_payload(f), "AND", "expand-full", "spp", True,
        EXPERIMENT_OPERATORS,
    )
    payload = decompose_item(item)
    key = ResultCache.key_for(item["f"], "AND", "expand-full", "spp", True)
    cache = ResultCache(tmp_path)
    cache.put(key, payload)
    written = cache.path_for(key).read_text(encoding="utf-8")
    assert written == _two_pass_entry_text(payload)
    assert cache.get(key) == payload


# ---------------------------------------------------------------------------
# Stats accounting
# ---------------------------------------------------------------------------


def _stats(**overrides) -> dict:
    base = {
        "hits": 0,
        "misses": 0,
        "stores": 0,
        "corrupt": 0,
        "evictions": 0,
        "quarantined": 0,
    }
    base.update(overrides)
    return base


def test_corrupt_entry_counts_exactly_one_miss_and_one_corrupt(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ef" + "0" * 62

    assert cache.get(key) is None  # cold
    assert cache.stats == _stats(misses=1)

    cache.put(key, {"v": 1})
    assert cache.get(key) == {"v": 1}  # warm
    assert cache.stats == _stats(hits=1, misses=1, stores=1)

    cache.path_for(key).write_text("{not json", encoding="utf-8")
    assert cache.get(key) is None  # corrupt: counted AND quarantined
    assert cache.stats == _stats(
        hits=1, misses=2, stores=1, corrupt=1, quarantined=1
    )
    assert not cache.path_for(key).exists()

    # Repeat the whole sequence: counters advance linearly, no drift.
    cache.put(key, {"v": 2})
    assert cache.get(key) == {"v": 2}
    cache.path_for(key).write_text(
        json.dumps({"format": "alien/1", "payload": {}}), encoding="utf-8"
    )
    assert cache.get(key) is None
    assert cache.stats == _stats(
        hits=2, misses=3, stores=2, corrupt=2, quarantined=2
    )
    assert cache.hit_rate() == 2 / 5


def test_get_with_decode_counts_a_rejected_payload_as_one_corrupt_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = "ef" + "0" * 62
    cache.put(key, {"v": 1})

    def reject(payload):
        raise TypeError("stale field set")

    assert cache.get(key, reject) is None
    assert cache.stats == _stats(misses=1, stores=1, corrupt=1)
    # Not quarantined: the caller's next put replaces the entry.
    assert cache.path_for(key).exists()

    def reject_dump(payload):
        raise SerializationError("stale inner payload")

    assert cache.get(key, reject_dump) is None
    assert cache.stats == _stats(misses=2, stores=1, corrupt=2)

    assert cache.get(key, lambda payload: payload["v"] + 1) == 2
    assert cache.stats == _stats(hits=1, misses=2, stores=1, corrupt=2)


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


def test_key_for_ignores_operators_for_named_ops():
    payload = {"fake": "dump"}
    narrow = ResultCache.key_for(
        payload, "AND", "expand-full", "spp", True, operators=("AND",)
    )
    wide = ResultCache.key_for(
        payload, "AND", "expand-full", "spp", True,
        operators=("AND", "OR", "XOR"),
    )
    assert narrow == wide


def test_key_for_honors_operators_for_auto():
    payload = {"fake": "dump"}
    narrow = ResultCache.key_for(
        payload, "auto", "expand-full", "spp", True, operators=("AND",)
    )
    wide = ResultCache.key_for(
        payload, "auto", "expand-full", "spp", True,
        operators=("AND", "OR", "XOR"),
    )
    assert narrow != wide
    # And the search space is order-sensitive (it changes tie-breaking).
    reordered = ResultCache.key_for(
        payload, "auto", "expand-full", "spp", True,
        operators=("OR", "AND", "XOR"),
    )
    assert reordered != wide


def test_key_for_distinguishes_everything_else():
    payload = {"fake": "dump"}
    base = ResultCache.key_for(payload, "AND", "expand-full", "spp", True)
    assert base != ResultCache.key_for(payload, "OR", "expand-full", "spp", True)
    assert base != ResultCache.key_for(payload, "AND", "random:0.1", "spp", True)
    assert base != ResultCache.key_for(payload, "AND", "expand-full", "espresso", True)
    assert base != ResultCache.key_for(payload, "AND", "expand-full", "spp", False)
    assert base != ResultCache.key_for({"other": 1}, "AND", "expand-full", "spp", True)


# ---------------------------------------------------------------------------
# LRU eviction budgets
# ---------------------------------------------------------------------------


def _key(index: int) -> str:
    return f"{index:02x}" + "0" * 62


def _backdate(cache: ResultCache, key: str, seconds_ago: float) -> None:
    """Pin an entry's mtime into the past, and move it to its place in
    the in-memory recency order, as a reopen would."""
    then = time.time() - seconds_ago
    os.utime(cache.path_for(key), (then, then))
    cache._index = dict(
        sorted(
            cache._index.items(),
            key=lambda item: cache.path_for(item[0]).stat().st_mtime,
        )
    )


def test_max_entries_evicts_oldest_first(tmp_path):
    cache = ResultCache(tmp_path, max_entries=3)
    for index in range(3):
        cache.put(_key(index), {"v": index})
        _backdate(cache, _key(index), 100 - index)
    cache.put(_key(3), {"v": 3})
    assert len(cache) == 3
    assert cache.stats["evictions"] == 1
    assert cache.get(_key(0)) is None  # the oldest entry went
    assert cache.get(_key(3)) == {"v": 3}


def test_max_bytes_evicts_until_within_budget(tmp_path):
    probe = ResultCache(tmp_path / "probe")
    probe.put(_key(0), {"v": 0})
    entry_size = probe.path_for(_key(0)).stat().st_size

    cache = ResultCache(tmp_path / "real", max_bytes=3 * entry_size)
    for index in range(5):
        cache.put(_key(index), {"v": index})
        _backdate(cache, _key(index), 100 - index)
    assert len(cache) == 3
    assert cache.stats["evictions"] == 2
    # Survivors are the most recently written ones.
    assert cache.get(_key(0)) is None
    assert cache.get(_key(1)) is None
    assert cache.get(_key(4)) == {"v": 4}


def test_get_refreshes_recency(tmp_path):
    cache = ResultCache(tmp_path, max_entries=2)
    cache.put(_key(0), {"v": 0})
    _backdate(cache, _key(0), 200)
    cache.put(_key(1), {"v": 1})
    _backdate(cache, _key(1), 100)
    # Touch the older entry: it becomes the most recently used.
    assert cache.get(_key(0)) == {"v": 0}
    cache.put(_key(2), {"v": 2})
    assert cache.get(_key(0)) == {"v": 0}
    assert cache.get(_key(1)) is None  # LRU after the touch


def test_put_never_evicts_its_own_entry(tmp_path):
    cache = ResultCache(tmp_path, max_bytes=1)
    cache.put(_key(0), {"v": "x" * 100})
    assert cache.get(_key(0)) == {"v": "x" * 100}
    assert cache.stats["evictions"] == 0
    # The next write reclaims the over-budget predecessor.
    cache.put(_key(1), {"v": 1})
    assert cache.get(_key(0)) is None
    assert cache.stats["evictions"] >= 1


def test_budgets_govern_preexisting_entries_on_open(tmp_path):
    cache = ResultCache(tmp_path)
    for index in range(5):
        cache.put(_key(index), {"v": index})
        _backdate(cache, _key(index), 100 - index)
    bounded = ResultCache(tmp_path, max_entries=2)
    assert len(bounded) == 2
    assert bounded.stats["evictions"] == 3
    assert bounded.get(_key(4)) == {"v": 4}


def test_unbounded_cache_never_evicts(tmp_path):
    cache = ResultCache(tmp_path)
    for index in range(20):
        cache.put(_key(index), {"v": index})
    assert len(cache) == 20
    assert cache.stats["evictions"] == 0


def test_gets_and_puts_on_two_threads_keep_the_budgeted_index_exact(tmp_path):
    # One thread puts fresh keys (each put past the 8th evicts) while
    # getters read the most recent ones, with the interpreter switching
    # threads as often as it can: three getters, so more threads than
    # cores.  A lost update of the index or its byte total, an entry
    # refreshed back into the index after its eviction, or an eviction
    # iterating a dict a getter resizes all break the checks below.
    cache = ResultCache(tmp_path, max_entries=8)
    puts = 1200
    payloads = {
        f"{index:064x}": {"v": index, "pad": "x" * (index % 53)}
        for index in range(puts)
    }
    keys = list(payloads)
    written: list[str] = []
    reads = []
    errors = []
    done = threading.Event()

    def putter():
        try:
            for key in keys:
                cache.put(key, payloads[key])
                written.append(key)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)
        finally:
            done.set()

    def getter():
        try:
            while not done.is_set():
                for key in written[-8:]:
                    payload = cache.get(key)
                    if payload is not None:
                        reads.append((key, payload))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=putter)] + [
        threading.Thread(target=getter) for _ in range(3)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(written) == puts and reads
    assert all(payload == payloads[key] for key, payload in reads)
    on_disk = {path.stem: path.stat().st_size for path in tmp_path.glob("*/*.json")}
    assert len(cache._index) <= 8 and len(on_disk) <= 8
    assert cache._index == on_disk
    assert cache._index_bytes == sum(cache._index.values())
