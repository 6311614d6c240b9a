"""Canonical serialization of BDD functions (compact wire format).

Functions are dumped to a plain dict — JSON-ready, with no references to
the owning manager — so they can cross process boundaries (the worker
fleet) and be hashed into stable cache keys (the persistent
result cache).  The format, version ``repro-bdd/1``::

    {
        "format": "repro-bdd/1",
        "vars":   ["x1", "x2", ...],          # declared names, BDD order
        "nodes":  [[level, low, high], ...],  # internal nodes only
        "roots":  {"label": ref, ...},        # shared-DAG entry points
    }

A *ref* is ``0`` for the constant 0, ``1`` for the constant 1, and
``k >= 2`` for ``nodes[k - 2]``; node children always precede their
parents, so :func:`load` rebuilds bottom-up in one pass.

The node numbering is **stable**: nodes are emitted in post-order of a
depth-first walk that visits roots in dump order and low children before
high children.  It therefore depends only on the declared variables and
the functions themselves — never on manager history or node ids — so two
equal functions dumped from independently grown managers produce
byte-identical payloads, and :func:`canonical_hash` is a sound cache key.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterable

from repro.bdd.manager import BDD, Function

#: Wire-format identifier; bump on any incompatible layout change.
FORMAT = "repro-bdd/1"


class SerializationError(ValueError):
    """The payload is not a well-formed ``repro-bdd/1`` dump."""


def dump_many(functions: Iterable[tuple[str, Function]]) -> dict:
    """Serialize labeled functions from one manager into a shared-DAG dump.

    Backend-neutral: the walk below reads a BDD in declaration order, so
    functions of a reordered BDD or of a dense bitset manager are dumped
    through a declaration-order ``BDD`` shadow.  Equal functions
    therefore dump to byte-identical payloads whatever their manager.
    """
    labeled = list(functions)
    if not labeled:
        raise ValueError("dump_many needs at least one function")
    mgr = labeled[0][1].mgr
    for _, function in labeled:
        if function.mgr is not mgr:
            raise ValueError("all dumped functions must share one manager")

    if not (isinstance(mgr, BDD) and mgr._order_is_identity):
        # Node levels index into ``vars``: payloads, fingerprints, and
        # every cache key derived from them must not depend on the
        # manager's current order or representation.
        from repro.bdd.ops import transfer

        shadow = BDD(list(mgr.var_names))
        labeled = [
            (label, transfer(function, shadow)) for label, function in labeled
        ]
        mgr = shadow

    # The walk runs over *edges* (node, polarity pairs) — the manager
    # uses complemented edges internally, but the wire format stays the
    # complement-free expansion: each edge is one canonical subfunction,
    # exactly the node set of a plain ROBDD, in the same post-order.
    number: dict[int, int] = {0: 0, 1: 1}
    nodes: list[list[int]] = []
    level_of, low_of, high_of = mgr._level, mgr._low, mgr._high
    for _, function in labeled:
        stack: list[tuple[int, bool]] = [(function.node, False)]
        while stack:
            edge, emit = stack.pop()
            index = edge >> 1
            complement = edge & 1
            low_edge = low_of[index] ^ complement
            high_edge = high_of[index] ^ complement
            if emit:
                if edge not in number:
                    number[edge] = len(nodes) + 2
                    nodes.append(
                        [level_of[index], number[low_edge], number[high_edge]]
                    )
                continue
            if edge in number:
                continue
            # Children first (low before high), then the node itself.
            stack.append((edge, True))
            stack.append((high_edge, False))
            stack.append((low_edge, False))

    return {
        "format": FORMAT,
        "vars": list(mgr.var_names),
        "nodes": nodes,
        "roots": {label: number[function.node] for label, function in labeled},
    }


def dump(function: Function) -> dict:
    """Serialize one function (single root labeled ``"f"``)."""
    return dump_many([("f", function)])


def load_many(data: dict, mgr: BDD | None = None) -> dict[str, Function]:
    """Rebuild every root of a dump, returned as ``{label: Function}``.

    With ``mgr=None`` a fresh BDD manager declaring exactly the dumped
    variables is created.  An explicit ``mgr`` — of either backend —
    must declare every dumped variable with the same relative order
    (extra variables are fine), the same contract as
    :func:`repro.bdd.ops.transfer`.  Passing a
    :class:`~repro.backend.bitset.BitsetBDD` rebuilds the functions as
    dense truth tables: the serializer *is* the cross-backend converter.
    """
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        raise SerializationError(
            f"not a {FORMAT} payload: format={data.get('format')!r}"
            if isinstance(data, dict)
            else f"payload must be a dict, got {type(data).__name__}"
        )
    try:
        var_names = list(data["vars"])
        raw_nodes = data["nodes"]
        roots = dict(data["roots"])
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"malformed {FORMAT} payload: {exc}") from None

    if mgr is None:
        mgr = BDD(var_names)
        level_map = list(range(len(var_names)))
    else:
        from repro.bdd.ops import level_map_by_name

        try:
            level_map = level_map_by_name(var_names, mgr)
        except ValueError as exc:
            raise SerializationError(str(exc)) from None
    # A reordered BDD target yields non-monotonic current levels; the
    # bottom-up ``_mk`` rebuild needs monotonicity, so those targets
    # rebuild semantically through ``ite`` instead.
    structural = all(a < b for a, b in zip(level_map, level_map[1:]))

    # Both backends expose the same three hooks: constant raw values to
    # seed the ref list, a raw node constructor, and a handle wrapper.
    false_raw, true_raw = mgr._constant_raw()
    refs = [false_raw, true_raw]
    try:
        for level, low, high in raw_nodes:
            if not 0 <= level < len(var_names):
                raise SerializationError(f"node level {level} out of range")
            # Explicit bounds: a negative ref would silently pick a wrong
            # node through Python's negative indexing.
            if not (0 <= low < len(refs) and 0 <= high < len(refs)):
                raise SerializationError(
                    f"node ref out of range: ({low}, {high}) with"
                    f" {len(refs)} nodes built"
                )
            if structural:
                refs.append(mgr._mk(level_map[level], refs[low], refs[high]))
            else:
                refs.append(
                    mgr._ite(
                        mgr._mk(level_map[level], 0, 1), refs[high], refs[low]
                    )
                )
        result = {}
        for label, ref in roots.items():
            if not isinstance(ref, int) or not 0 <= ref < len(refs):
                raise SerializationError(f"root ref {ref!r} out of range")
            result[str(label)] = mgr._wrap(refs[ref])
        return result
    except (IndexError, TypeError, ValueError) as exc:
        if isinstance(exc, SerializationError):
            raise
        raise SerializationError(f"malformed {FORMAT} node list: {exc}") from None


def load(data: dict, mgr: BDD | None = None) -> Function:
    """Rebuild a single-root dump produced by :func:`dump`."""
    roots = load_many(data, mgr)
    if len(roots) != 1:
        raise SerializationError(
            f"expected a single root, got {sorted(roots)!r}"
        )
    return next(iter(roots.values()))


def dumps(function: Function) -> str:
    """JSON text form of :func:`dump` (compact, sorted keys)."""
    return json.dumps(dump(function), sort_keys=True, separators=(",", ":"))


def loads(text: str, mgr: BDD | None = None) -> Function:
    """Inverse of :func:`dumps`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON: {exc}") from None
    return load(data, mgr)


def canonical_hash(payload: object) -> str:
    """SHA-256 over the canonical JSON encoding of a payload.

    Stable across processes and sessions; the cache-key primitive for
    anything JSON-representable (dumps, strategy specs, request tuples).
    """
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def function_fingerprint(function: Function) -> str:
    """Canonical hash of one function (its dump under the declared vars)."""
    return canonical_hash(dump(function))


__all__ = [
    "FORMAT",
    "SerializationError",
    "canonical_hash",
    "dump",
    "dump_many",
    "dumps",
    "function_fingerprint",
    "load",
    "load_many",
    "loads",
]
