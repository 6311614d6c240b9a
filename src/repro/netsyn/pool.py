"""Cross-output divisor pool keyed by function handles.

The pool maps *functions already realized in the shared network* to
their node ids.  Every pooled function lives in the one manager of the
instance being synthesized, where a function's handle is canonical and
hashable (equal functions are equal handles, on either backend, and a
BDD handle keeps its hash across reorders), so the handle itself is the
key: a lookup serializes nothing.  Registration is polarity-aware —
both ``g`` and ``¬g`` are indexed at insert time — so a block needed in
the opposite phase costs one inverter instead of a second copy of the
logic.

For incompletely specified residual blocks the pool can also answer
*interval* queries: any pooled function (or its complement) that is a
completion of the block's ``[on, on ∪ dc]`` interval may realize it, so
an output can absorb a sibling's divisor instead of minimizing and
decomposing its own.

Pools also carry a *warm-cover* side table for cross-request sharing
(the decomposition service): minimized covers of blocks seen in earlier
synthesis runs, keyed by a caller-chosen canonical key (block ISF
fingerprint plus minimizer spec) and stored as wire payloads, so they
survive :meth:`DivisorPool.snapshot` / :meth:`DivisorPool.merge` across
process and request boundaries.  A warm hit replays exactly what the
deterministic minimizer would recompute — networks synthesized with a
warm pool are identical to cold ones, only faster.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bdd.serialize import SerializationError
from repro.boolfunc.isf import ISF

#: Snapshot payload identifier; bump on any incompatible layout change.
POOL_SNAPSHOT_FORMAT = "repro-pool/1"


@dataclass(frozen=True)
class PoolEntry:
    """One realized block: network node, its function, and provenance."""

    node: int
    function: object  # Function (either backend)
    label: str = ""


class DivisorPool:
    """Handle index of realized blocks in one shared network.

    ``stats`` counts lookups/hits by kind; :meth:`hit_rate` summarizes
    them for reports.
    """

    def __init__(
        self, match_intervals: bool = True, collect_covers: bool = False
    ) -> None:
        #: function handle -> (node id, realized-in-complement flag).
        self._by_hash: dict[object, tuple[int, bool]] = {}
        self.entries: list[PoolEntry] = []
        self.match_intervals = match_intervals
        #: Record minimized covers for snapshot/merge (the service sets
        #: this; the one-shot path skips the bookkeeping entirely).
        self.collect_covers = collect_covers
        #: warm key -> cover wire payload (see module docstring).
        self._warm_covers: dict[str, dict] = {}
        self.stats = {
            "lookups": 0,
            "hits": 0,
            "complement_hits": 0,
            "interval_lookups": 0,
            "interval_hits": 0,
            "registered": 0,
            "warm_lookups": 0,
            "warm_hits": 0,
            "warm_imported": 0,
        }

    def __len__(self) -> int:
        return len(self.entries)

    # -- queries ----------------------------------------------------------

    def lookup(self, function) -> tuple[int, bool] | None:
        """Find a node computing ``function`` (or its complement).

        Returns ``(node, complemented)`` — the caller adds an inverter
        when ``complemented`` is true — or ``None`` on a miss.
        """
        self.stats["lookups"] += 1
        hit = self._by_hash.get(function)
        if hit is None:
            return None
        self.stats["hits"] += 1
        if hit[1]:
            self.stats["complement_hits"] += 1
        return hit

    def lookup_completion(self, isf: ISF) -> tuple[int, bool, object] | None:
        """Find a pooled block realizing *some* completion of an ISF.

        Completely specified blocks go through the O(1) hash index; a
        block with flexibility scans the pool for an entry whose
        function (or complement) lies in ``[on, on ∪ dc]``.  Returns
        ``(node, complemented, realized_function)`` or ``None``.
        """
        if isf.dc.is_false:
            hit = self.lookup(isf.on)
            if hit is None:
                return None
            return hit[0], hit[1], isf.on
        if not self.match_intervals:
            return None
        self.stats["interval_lookups"] += 1
        for entry in self.entries:
            if isf.is_completion(entry.function):
                self.stats["interval_hits"] += 1
                return entry.node, False, entry.function
            complement = ~entry.function
            if isf.is_completion(complement):
                self.stats["interval_hits"] += 1
                return entry.node, True, complement
        return None

    # -- updates ----------------------------------------------------------

    def register(self, function, node: int, label: str = "") -> None:
        """Index a realized block under both polarities (first one wins)."""
        if function in self._by_hash:
            return
        self._by_hash[function] = (node, False)
        self._by_hash[~function] = (node, True)
        self.entries.append(PoolEntry(node, function, label))
        self.stats["registered"] += 1

    # -- cross-request sharing --------------------------------------------

    def remember_cover(self, warm_key: str, cover_payload: dict | None) -> None:
        """Record one minimized cover for future requests (first wins).

        No-op unless :attr:`collect_covers` is set, so the one-shot
        synthesis path never pays the serialization.
        """
        if not self.collect_covers or cover_payload is None:
            return
        self._warm_covers.setdefault(warm_key, cover_payload)

    def warm_cover(self, warm_key: str) -> dict | None:
        """Look up a cover remembered by an earlier (merged) request."""
        if not self._warm_covers:
            return None
        self.stats["warm_lookups"] += 1
        payload = self._warm_covers.get(warm_key)
        if payload is not None:
            self.stats["warm_hits"] += 1
        return payload

    def snapshot(self) -> dict:
        """Serializable warm-cover state of this pool (JSON-ready).

        Node ids never leave through here — they only mean something
        inside one network — so a snapshot carries exactly the state a
        *different* request can soundly reuse: deterministic minimizer
        outputs keyed by canonical block identity.
        """
        return {
            "format": POOL_SNAPSHOT_FORMAT,
            "covers": dict(self._warm_covers),
        }

    def merge(self, snapshot: dict | None) -> int:
        """Import another pool's snapshot (first wins); returns new count.

        Merging implies this pool participates in cross-request sharing,
        so :attr:`collect_covers` is switched on.
        """
        if snapshot is None:
            return 0
        if (
            not isinstance(snapshot, dict)
            or snapshot.get("format") != POOL_SNAPSHOT_FORMAT
            or not isinstance(snapshot.get("covers"), dict)
        ):
            raise SerializationError(
                f"not a {POOL_SNAPSHOT_FORMAT} pool snapshot:"
                f" {snapshot.get('format') if isinstance(snapshot, dict) else snapshot!r}"
            )
        self.collect_covers = True
        imported = 0
        for warm_key, payload in snapshot["covers"].items():
            if warm_key not in self._warm_covers:
                self._warm_covers[str(warm_key)] = payload
                imported += 1
        self.stats["warm_imported"] += imported
        return imported

    # -- reporting --------------------------------------------------------

    def hit_rate(self) -> float:
        """Fraction of lookups (hash + interval) served from the pool."""
        lookups = self.stats["lookups"] + self.stats["interval_lookups"]
        hits = self.stats["hits"] + self.stats["interval_hits"]
        return hits / lookups if lookups else 0.0

    def __repr__(self) -> str:
        return f"DivisorPool({len(self.entries)} entries, stats={self.stats})"


__all__ = ["DivisorPool", "POOL_SNAPSHOT_FORMAT", "PoolEntry"]
