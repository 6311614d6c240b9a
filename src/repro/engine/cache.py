"""Persistent on-disk result cache for batch decomposition.

A :class:`ResultCache` maps a canonical key — the SHA-256 of the
serialized function, operator, strategy specs, and verification flag —
to a JSON payload on disk.  It is the one result store of the program:
:meth:`~repro.engine.decomposer.Decomposer.decompose_many`, the harness,
network synthesis and the decomposition service all open it on the
same ``<dir>/<key[:2]>/<key>.json`` layout, so a directory any of them
warmed serves all the others.  The batch paths consult it before any
worker dispatch, so a warm re-run of a benchmark suite completes
without recomputing (or even forking) anything.

Robustness contract: a corrupted, truncated, or foreign file under the
cache directory is treated as a *miss* (and counted in
``stats["corrupt"]``), never as an error — a shared cache directory must
not be able to break a run.  Corrupt entries are additionally
*quarantined* (moved aside, counted in ``stats["quarantined"]``) so a
bad sector cannot re-trip the corruption path on every lookup.

Crash-safety contract: a writer may die — ``kill -9``, OOM, power —
at *any* instruction inside :meth:`put` and the store stays openable,
losing at most the entry that was in flight.  A put is one durable
write:

1. make the entry's shard directory;
2. serialize the entry with a CRC-32 of its payload;
3. write the text to a temp sibling whose name is unique to this write;
4. ``fsync`` the temp file;
5. ``os.replace`` it onto the entry's path, which is atomic.

A crash before step 5 loses the in-flight entry (the guaranteed worst
case) and leaves at most a temp file, which no lookup reads and the
next open sweeps once it is stale; a put that raises instead of dying
unlinks its own temp.  A crash after step 5 leaves the whole entry in
place.  A torn or foreign file fails its CRC on read and is
quarantined, never served.

The named ``cache.put.*`` fault-injection sites between those steps let
the chaos suite SIGKILL a sacrificial writer at every crash point and
assert the contract holds (see :mod:`repro.service.faults`).

Batch callers put synchronously.  The decomposition service answers
first and hands each put to its one cache-writer thread, so there the
store is shared by two threads: the event loop's :meth:`get` and the
writer's :meth:`put`.  One lock guards the budgeted store's LRU index
(its recency order, byte total and eviction), so the two interleave
safely; the entry files need no lock, since a put publishes its entry
with one atomic rename.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import threading
import time
import uuid
import zlib
from pathlib import Path

from repro.bdd.serialize import canonical_hash
from repro.obs.trace import span as _obs_span

#: On-disk entry wrapper identifier; bump on any incompatible change.
#: (Also folded into every cache *key*, so bumping it invalidates the
#: store — entries gaining an optional ``crc`` field did not need that.)
ENTRY_FORMAT = "repro-cache-entry/1"

#: Temp files older than this (seconds) are orphans from dead writers.
STALE_TEMP_AGE_S = 3600.0


def _fire(site: str, **context) -> None:
    """Fault-injection hook, zero-cost unless the chaos layer is loaded.

    The engine must not import :mod:`repro.service` (the dependency
    points the other way), so the hook looks the module up instead: if
    ``repro.service.faults`` was never imported, no plan can be
    installed and there is nothing to fire.
    """
    faults = sys.modules.get("repro.service.faults")
    if faults is not None:
        faults.fire(site, **context)


def _payload_crc(payload) -> str:
    """CRC-32 over the canonical JSON of a payload (order-independent)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return format(zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF, "08x")


def _write_durable(path: Path, text: str) -> None:
    """Write + flush + ``fsync``: the bytes survive a crash after return."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())


class ResultCache:
    """Content-addressed JSON store under one directory.

    Entries live at ``<cache_dir>/<key[:2]>/<key>.json`` wrapped as
    ``{"format": ENTRY_FORMAT, "payload": ...}``.  ``stats`` counts
    ``hits``, ``misses``, ``stores``, ``corrupt`` entries seen,
    ``evictions`` and ``quarantined`` files.

    ``max_bytes`` / ``max_entries`` bound the store: when either budget
    is exceeded after a write, the least-recently-used entries are
    removed until the store fits again.  A budgeted cache keeps an index
    of entry sizes in recency order: opening the directory inserts the
    entries found there by file mtime, and every put or hit moves its
    key to the end (a hit also touches the file's mtime, so the next
    open restores the same order).  Eviction takes keys from the front.
    Budgets are enforced per instance over everything found under the
    directory at open time plus this instance's writes; entries another
    process adds later are reclaimed by whichever budgeted instance
    opens the directory next.  ``None`` (the default) keeps the store
    unbounded.  The index is read and changed only under one lock, so
    threads sharing an instance may get and put concurrently.

    :meth:`get` and :meth:`put` open the ``cache.get`` (annotated
    ``hit``) and ``cache.put`` trace spans.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike,
        max_bytes: int | None = None,
        max_entries: int | None = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self.stats = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "corrupt": 0,
            "evictions": 0,
            "quarantined": 0,
        }
        # Distinguishes concurrent writers within one process (threads
        # sharing this instance) and across instances in one pid.
        self._tmp_counter = itertools.count()
        self._tmp_token = uuid.uuid4().hex[:8]
        self.swept_temps = self._sweep_stale_temps()
        #: key -> size of every governed entry, least recently used
        #: first; only maintained when a budget is set (the unbounded
        #: store never scans).  Guarded, with its byte total, by
        #: ``_lock``.
        self._index: dict[str, int] = {}
        self._index_bytes = 0
        self._lock = threading.Lock()
        if self._bounded:
            found = []
            for path in self.cache_dir.glob("*/*.json"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                found.append((stat.st_mtime, path.stem, stat.st_size))
            with self._lock:
                for _mtime, key, size in sorted(found):
                    self._index_entry(key, size)
                self._evict()

    @property
    def _bounded(self) -> bool:
        return self.max_bytes is not None or self.max_entries is not None

    # The index helpers below run with ``_lock`` held.

    def _index_entry(self, key: str, size: int) -> None:
        """(Re)insert ``key`` as the most recently used entry."""
        self._drop_entry(key)
        self._index[key] = size
        self._index_bytes += size

    def _drop_entry(self, key: str) -> None:
        old = self._index.pop(key, None)
        if old is not None:
            self._index_bytes -= old

    def _over_budget(self) -> bool:
        return (
            self.max_entries is not None and len(self._index) > self.max_entries
        ) or (self.max_bytes is not None and self._index_bytes > self.max_bytes)

    def _evict(self, keep: str | None = None) -> None:
        """Remove LRU entries until both budgets hold.

        ``keep`` — the key just written — is never evicted: a single
        entry larger than ``max_bytes`` stays (reclaimed by a later
        write), so a put can never silently discard its own result.
        """
        while self._over_budget():
            victim = next((key for key in self._index if key != keep), None)
            if victim is None:
                return
            self._drop_entry(victim)
            try:
                self.path_for(victim).unlink()
            except OSError:
                continue  # already gone (concurrent instance): no count
            self.stats["evictions"] += 1

    def _tmp_name(self, path: Path) -> Path:
        """A temp sibling unique per (pid, instance, write)."""
        return path.with_name(
            f"{path.name}.tmp{os.getpid()}-{self._tmp_token}"
            f"-{next(self._tmp_counter)}"
        )

    # -- crash recovery ---------------------------------------------------

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt file aside so it cannot re-trip every lookup.

        Quarantined files keep their name under ``quarantine/`` with a
        ``.bad`` suffix — outside every glob the cache scans — for
        post-mortem inspection; moving (not deleting) also preserves the
        evidence a corruption report needs.
        """
        target = self.cache_dir / "quarantine" / f"{path.name}.bad"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
        except OSError:
            return  # already gone (concurrent reader quarantined it)
        self.stats["quarantined"] += 1

    def _sweep_stale_temps(self, max_age_s: float = STALE_TEMP_AGE_S) -> int:
        """Remove orphaned ``*.tmp*`` files left by writers that died
        before their atomic ``os.replace``.

        Only temps older than ``max_age_s`` are touched: a younger temp
        may belong to a concurrent writer about to rename it.
        """
        cutoff = time.time() - max_age_s
        swept = 0
        for tmp in self.cache_dir.glob("*/*.tmp*"):
            try:
                if tmp.stat().st_mtime < cutoff:
                    tmp.unlink()
                    swept += 1
            except OSError:
                # Renamed or removed by a concurrent process: not ours.
                continue
        return swept

    # -- keys -------------------------------------------------------------

    @staticmethod
    def key_for(
        f_payload: dict,
        op: str,
        approximator: str,
        minimizer: str,
        verify: bool,
        operators: tuple[str, ...] = (),
    ) -> str:
        """Canonical cache key of one decomposition request.

        ``f_payload`` is the :func:`repro.engine.wire.isf_to_payload` dump
        of the (already transferred) function, so the key covers the
        declared variable slice along with the function semantics; ``op``
        is a canonical operator name or ``"auto"``.  ``operators`` — the
        engine's search space — participates only under ``"auto"``, where
        it determines which candidates were ranked; for a named operator
        it cannot affect the result.
        """
        return canonical_hash(
            {
                "format": ENTRY_FORMAT,
                "f": f_payload,
                "op": op,
                "approximator": approximator,
                "minimizer": minimizer,
                "verify": bool(verify),
                "operators": list(operators) if op == "auto" else None,
            }
        )

    @staticmethod
    def bench_key_for(benchmark: str, operators: tuple[str, ...]) -> str:
        """Canonical key of a full harness benchmark run."""
        return canonical_hash(
            {
                "format": ENTRY_FORMAT,
                "benchmark": benchmark,
                "operators": list(operators),
            }
        )

    @staticmethod
    def netsyn_key_for(
        output_fingerprints: list[str], config_payload: dict
    ) -> str:
        """Canonical key of a shared-network synthesis run.

        ``output_fingerprints`` are the canonical per-output ISF hashes
        (:func:`repro.engine.wire.isf_fingerprint`) in output order —
        they cover the functions *and* the declared variable slice —
        and ``config_payload`` is the synthesis policy
        (:meth:`repro.netsyn.synthesis.NetsynConfig.key_payload`).
        Backends never enter the key: a cache warmed under the BDD
        backend serves bitset runs and vice versa.
        """
        return canonical_hash(
            {
                "format": ENTRY_FORMAT,
                "netsyn": {
                    "outputs": list(output_fingerprints),
                    "config": config_payload,
                },
            }
        )

    def path_for(self, key: str) -> Path:
        """On-disk location of a key (two-level fan-out)."""
        return self.cache_dir / key[:2] / f"{key}.json"

    # -- access -----------------------------------------------------------

    def get(self, key: str, decode=None):
        """Return the stored payload, or ``None`` on miss/corruption.

        Entries carrying a ``crc`` (everything this version writes) are
        verified against it; a mismatch — bit rot, a torn foreign write
        — counts as corrupt and the file is quarantined so the next
        lookup is a clean miss a fresh ``put`` can fill.

        With ``decode``, return ``decode(payload)`` instead.  A payload
        the decoder rejects with ``ValueError`` (``SerializationError``
        included) or ``TypeError`` — a stale field set from an older or
        newer writer — counts as one corrupt miss and returns ``None``.
        That entry is not quarantined: the caller's next put replaces it.
        """
        with _obs_span("cache.get", key=key[:16]) as sp:
            payload = self._read(key)
            if payload is not None and decode is not None:
                try:
                    payload = decode(payload)
                except (ValueError, TypeError):
                    self.stats["corrupt"] += 1
                    payload = None
            sp.annotate(hit=payload is not None)
        if payload is None:
            self.stats["misses"] += 1
            return None
        self.stats["hits"] += 1
        if self._bounded:
            # Refresh recency so the LRU eviction order tracks *use*,
            # not just write time.  Under the lock, an entry a concurrent
            # put evicted after the read above fails the utime and stays
            # out of the index.
            path = self.path_for(key)
            now = time.time()
            with self._lock:
                try:
                    os.utime(path, (now, now))
                    self._index_entry(key, path.stat().st_size)
                except OSError:
                    pass
        return payload

    def _read(self, key: str):
        """The stored payload, or ``None`` when the entry is missing or
        corrupt (counted in ``stats["corrupt"]`` and quarantined)."""
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(entry, dict) or entry.get("format") != ENTRY_FORMAT:
                raise ValueError(f"unexpected entry format in {path}")
            payload = entry["payload"]
            crc = entry.get("crc")
            if crc is not None and crc != _payload_crc(payload):
                raise ValueError(f"entry failed its CRC in {path}")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError):
            self.stats["corrupt"] += 1
            self._quarantine(path)
            with self._lock:
                self._drop_entry(key)
            return None
        return payload

    def put(self, key: str, payload) -> None:
        """Store a JSON-ready payload under ``key``, crash-safely.

        One durable write (see the module docstring): the entry text,
        with its payload CRC, goes to a temp sibling that is ``fsync``ed
        and then renamed onto the entry's path.  A writer dying at any
        point loses at most this entry: before the rename the key holds
        its previous entry or none, after it the new entry is whole.  A
        write that raises instead (a full disk, a fault at
        ``cache.put.entry_written``) unlinks its temp before the error
        propagates, so only a killed writer leaves one for the sweep.

        The temp names are unique per (pid, instance, write): two
        threads sharing one cache — or two processes sharing one
        directory — never collide on the same temp file, so a concurrent
        writer can at worst waste work, never truncate another's entry.
        """
        with _obs_span("cache.put", key=key[:16]):
            path = self.path_for(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            text = json.dumps(
                {
                    "format": ENTRY_FORMAT,
                    "crc": _payload_crc(payload),
                    "payload": payload,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            _fire("cache.put.serialized", key=key)
            tmp = self._tmp_name(path)
            try:
                _write_durable(tmp, text)
                _fire("cache.put.entry_written", key=key)
                os.replace(tmp, path)
            except BaseException:
                # A failed write (say ENOSPC in fsync) must not leave its
                # temp behind: only the stale sweep on open would find it.
                with contextlib.suppress(OSError):
                    tmp.unlink()
                raise
            _fire("cache.put.renamed", key=key)
            self.stats["stores"] += 1
            if self._bounded:
                with self._lock:
                    self._index_entry(key, len(text.encode("utf-8")))
                    self._evict(keep=key)

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))

    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when none yet)."""
        total = self.stats["hits"] + self.stats["misses"]
        return self.stats["hits"] / total if total else 0.0

    def __repr__(self) -> str:
        return f"ResultCache({str(self.cache_dir)!r}, stats={self.stats})"


def as_result_cache(cache: "ResultCache | str | os.PathLike | None") -> ResultCache | None:
    """Normalize a cache argument (instance, directory path, or ``None``)."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)


__all__ = ["ENTRY_FORMAT", "ResultCache", "as_result_cache"]
