"""Wire format for decomposition requests and results.

The parallel executor ships work to ``multiprocessing`` workers as plain
dicts (no BDD managers cross the process boundary), and the persistent
result cache stores the same payloads on disk — one serialization layer,
two consumers.  Everything here round-trips through JSON.

Functions travel in the canonical :mod:`repro.bdd.serialize` form; covers
travel as their literal masks (``SppCover`` pseudocubes or plain ``Cover``
cubes), so a reassembled result carries the *same* covers and metrics the
in-process path would have produced.
"""

from __future__ import annotations

from repro.backend.protocol import BooleanManager, choose_backend, make_manager
from repro.bdd import serialize
from repro.boolfunc.isf import ISF
from repro.core.bidecomposition import BiDecomposition
from repro.core.operators import operator_by_name
from repro.cover.cover import Cover
from repro.cover.cube import Cube
from repro.engine.request import CandidateOutcome, DecomposeRequest, DecomposeResult
from repro.spp.pseudocube import Pseudocube, make_xor_factor
from repro.spp.spp_cover import SppCover

#: Result payload identifier; bump on any incompatible layout change.
RESULT_FORMAT = "repro-result/1"

#: Logic-network payload identifier.
NETWORK_FORMAT = "repro-network/1"

#: Network-synthesis result payload identifier.
NETSYN_RESULT_FORMAT = "repro-netsyn/1"

#: Service request/response envelope identifier (:mod:`repro.service`).
SVC_FORMAT = "repro-svc/1"

#: Request kinds the service protocol understands.
SVC_KINDS = (
    "decompose",
    "decompose_many",
    "netsyn",
    "status",
    "metrics",
    "trace",
    "resize",
    "shutdown",
)


# ---------------------------------------------------------------------------
# ISFs
# ---------------------------------------------------------------------------


def isf_to_payload(isf: ISF) -> dict:
    """Serialize an ISF as a two-root (on/dc) shared dump."""
    return serialize.dump_many([("on", isf.on), ("dc", isf.dc)])


def _support(payload: dict) -> set[str]:
    """Names of the variables a dump's nodes test."""
    try:
        names = payload["vars"]
        return {names[node[0]] for node in payload["nodes"]}
    except (KeyError, TypeError, IndexError) as exc:
        raise serialize.SerializationError(
            f"malformed {serialize.FORMAT} payload: {exc!r}"
        ) from None


def payload_backend(payload: dict, backend: str = "auto") -> str:
    """The backend a dump decodes into: the ingress rule of
    :func:`~repro.backend.protocol.choose_backend` over its declared
    variables and the variables its nodes test (its support)."""
    support = _support(payload)
    return choose_backend(len(payload["vars"]), len(support), backend)


def isfs_from_payloads(payloads: list[dict], backend: str = "auto") -> list[ISF]:
    """Rebuild ISFs into one fresh manager declaring the first dump's
    variables, of the backend the ingress rule picks for their joint
    support (``backend`` overrides ``"auto"``)."""
    support = set().union(*(_support(payload) for payload in payloads))
    names = payloads[0]["vars"]
    mgr = make_manager(choose_backend(len(names), len(support), backend), names)
    return [isf_from_payload(payload, mgr) for payload in payloads]


def isf_from_payload(
    payload: dict, mgr: BooleanManager | None = None, backend: str = "auto"
) -> ISF:
    """Rebuild an ISF into ``mgr``, or into a fresh manager of the backend
    :func:`payload_backend` picks (``backend`` overrides ``"auto"``)."""
    if mgr is None:
        return isfs_from_payloads([payload], backend)[0]
    roots = serialize.load_many(payload, mgr)
    return ISF(roots["on"], roots["dc"])


def isf_fingerprint(isf: ISF) -> str:
    """Canonical hash of an ISF (both sets, declared variables included)."""
    return serialize.canonical_hash(isf_to_payload(isf))


# ---------------------------------------------------------------------------
# Covers
# ---------------------------------------------------------------------------


def cover_to_payload(cover) -> dict | None:
    """Serialize a minimizer's cover (``SppCover``, ``Cover``, or ``None``)."""
    if cover is None:
        return None
    if isinstance(cover, SppCover):
        return {
            "kind": "spp",
            "n_vars": cover.n_vars,
            "pseudocubes": [
                [pc.pos, pc.neg, [[x.i, x.j, x.phase] for x in sorted(pc.xors)]]
                for pc in cover
            ],
        }
    if isinstance(cover, Cover):
        return {
            "kind": "sop",
            "n_vars": cover.n_vars,
            "cubes": [[cube.pos, cube.neg] for cube in cover],
        }
    raise TypeError(
        f"cannot serialize cover of type {type(cover).__name__}; parallel"
        f" and cached runs support SppCover, Cover, or None"
    )


def cover_from_payload(payload: dict | None):
    """Inverse of :func:`cover_to_payload`."""
    if payload is None:
        return None
    if payload["kind"] == "spp":
        return SppCover(
            payload["n_vars"],
            [
                Pseudocube(
                    payload["n_vars"],
                    pos,
                    neg,
                    frozenset(make_xor_factor(i, j, phase) for i, j, phase in xors),
                )
                for pos, neg, xors in payload["pseudocubes"]
            ],
        )
    if payload["kind"] == "sop":
        return Cover(
            payload["n_vars"],
            [Cube(payload["n_vars"], pos, neg) for pos, neg in payload["cubes"]],
        )
    raise serialize.SerializationError(
        f"unknown cover kind {payload.get('kind')!r}"
    )


# ---------------------------------------------------------------------------
# Logic networks (netsyn results)
# ---------------------------------------------------------------------------


def network_to_payload(network) -> dict:
    """Serialize a :class:`~repro.techmap.network.LogicNetwork`.

    Networks are already backend-free (primitive gates over named
    inputs), so the payload is a direct flattening: the input names,
    every node as ``[kind, [fanins...]]``, and the output map.
    """
    return {
        "format": NETWORK_FORMAT,
        "inputs": [
            node.name for node in network.nodes if node.kind == "input"
        ],
        "nodes": [
            [node.kind, list(node.fanins)] for node in network.nodes
        ],
        "outputs": dict(network.outputs),
    }


def network_from_payload(payload: dict):
    """Rebuild a :class:`~repro.techmap.network.LogicNetwork`.

    The node list is replayed through the network's own constructors,
    so the rebuilt DAG is strashed (and folded) exactly like one built
    natively; old node ids are mapped onto the new ones.
    """
    from repro.techmap.network import LogicNetwork

    if not isinstance(payload, dict) or payload.get("format") != NETWORK_FORMAT:
        raise serialize.SerializationError(
            f"not a {NETWORK_FORMAT} payload:"
            f" format={payload.get('format') if isinstance(payload, dict) else payload!r}"
        )
    try:
        inputs = list(payload["inputs"])
        nodes = payload["nodes"]
        outputs = dict(payload["outputs"])
    except (KeyError, TypeError) as exc:
        raise serialize.SerializationError(
            f"malformed {NETWORK_FORMAT} payload: {exc}"
        ) from None
    network = LogicNetwork(inputs)
    mapping: dict[int, int] = {}
    input_iter = iter(inputs)
    try:
        for old_id, (kind, fanins) in enumerate(nodes):
            if kind == "input":
                mapping[old_id] = network.input_id(next(input_iter))
            elif kind in ("const0", "const1"):
                mapping[old_id] = network.const(kind == "const1")
            elif kind == "not":
                mapping[old_id] = network.negate(mapping[fanins[0]])
            elif kind in ("and", "or", "xor"):
                mapping[old_id] = network.binary(
                    kind, mapping[fanins[0]], mapping[fanins[1]]
                )
            else:
                raise serialize.SerializationError(
                    f"unknown network node kind {kind!r}"
                )
        for name, root in outputs.items():
            network.set_output(str(name), mapping[root])
    except (KeyError, IndexError, TypeError, StopIteration) as exc:
        if isinstance(exc, serialize.SerializationError):
            raise
        raise serialize.SerializationError(
            f"malformed {NETWORK_FORMAT} node list: {exc}"
        ) from None
    return network


def netsyn_result_to_payload(result) -> dict:
    """Flatten a netsyn :class:`~repro.netsyn.synthesis.NetworkSynthesisResult`.

    Everything the result carries is representation-free (the network,
    per-output provenance, areas, pool counters), so — unlike
    :func:`result_to_payload` — the payload is self-contained: no live
    manager is needed to reassemble it.
    """
    return {
        "format": NETSYN_RESULT_FORMAT,
        "name": result.name,
        "network": network_to_payload(result.network),
        "output_names": list(result.output_names),
        "per_output": [dict(record) for record in result.per_output],
        "pool_stats": dict(result.pool_stats),
        "shared_area": result.shared_area,
        "isolated_area": result.isolated_area,
        "shared_gate_count": result.shared_gate_count,
        "isolated_gate_count": result.isolated_gate_count,
        "time_s": result.time_s,
        "engine_stats": result.engine_stats,
    }


def netsyn_result_from_payload(payload: dict):
    """Inverse of :func:`netsyn_result_to_payload`."""
    from repro.netsyn.synthesis import NetworkSynthesisResult

    if not isinstance(payload, dict) or payload.get("format") != NETSYN_RESULT_FORMAT:
        raise serialize.SerializationError(
            f"not a {NETSYN_RESULT_FORMAT} payload:"
            f" format={payload.get('format') if isinstance(payload, dict) else payload!r}"
        )
    try:
        return NetworkSynthesisResult(
            name=payload["name"],
            network=network_from_payload(payload["network"]),
            output_names=list(payload["output_names"]),
            per_output=[dict(record) for record in payload["per_output"]],
            pool_stats=dict(payload["pool_stats"]),
            shared_area=payload["shared_area"],
            isolated_area=payload["isolated_area"],
            shared_gate_count=payload["shared_gate_count"],
            isolated_gate_count=payload["isolated_gate_count"],
            time_s=payload["time_s"],
            engine_stats=payload.get("engine_stats"),
        )
    except (KeyError, TypeError) as exc:
        raise serialize.SerializationError(
            f"malformed {NETSYN_RESULT_FORMAT} payload: {exc}"
        ) from None


# ---------------------------------------------------------------------------
# Service envelopes (repro-svc/1)
# ---------------------------------------------------------------------------
#
# The decomposition service (:mod:`repro.service`) speaks newline-
# delimited JSON: every line is one envelope.  Requests name a kind and
# carry kind-specific params; responses echo the request id and carry
# either a result payload (in the existing wire formats above) plus
# per-request stats, or a structured error.  Everything below is pure
# dict shaping — no sockets, no managers — so both ends of the wire and
# the tests share one definition of "well-formed".


def svc_request(kind: str, params: dict | None = None, request_id: str | None = None) -> dict:
    """Build one service request envelope."""
    if kind not in SVC_KINDS:
        raise ValueError(f"unknown service request kind {kind!r}; known: {SVC_KINDS}")
    return {
        "format": SVC_FORMAT,
        "id": request_id,
        "kind": kind,
        "params": params if params is not None else {},
    }


def svc_response(request_id: str | None, result, stats: dict | None = None) -> dict:
    """Build a success response envelope.

    ``stats`` carries per-request service accounting (how the request
    was served, wall time, worker/cache/coalescer counters) — always
    informational, never part of the result's identity.
    """
    return {
        "format": SVC_FORMAT,
        "id": request_id,
        "ok": True,
        "result": result,
        "stats": stats if stats is not None else {},
    }


def svc_error(
    request_id: str | None, error_type: str, message: str, **extra
) -> dict:
    """Build an error response envelope.

    ``error_type`` is the server-side exception class name (or a
    protocol-level tag like ``"bad-request"``) so clients can
    distinguish e.g. a :class:`~repro.engine.decomposer.VerificationError`
    from a malformed request without parsing messages.  ``extra`` keys
    ride inside the error dict — e.g. ``retry_after_s`` on a
    ``rate-limited`` envelope tells the client exactly how long to back
    off before its bucket has a token again.
    """
    error = {"type": error_type, "message": message}
    error.update(extra)
    return {
        "format": SVC_FORMAT,
        "id": request_id,
        "ok": False,
        "error": error,
    }


def parse_svc_request(message) -> tuple[str, dict, str | None]:
    """Validate a request envelope; returns ``(kind, params, id)``."""
    if not isinstance(message, dict) or message.get("format") != SVC_FORMAT:
        raise serialize.SerializationError(
            f"not a {SVC_FORMAT} request:"
            f" format={message.get('format') if isinstance(message, dict) else message!r}"
        )
    kind = message.get("kind")
    if kind not in SVC_KINDS:
        raise serialize.SerializationError(
            f"unknown {SVC_FORMAT} request kind {kind!r}; known: {SVC_KINDS}"
        )
    params = message.get("params", {})
    if not isinstance(params, dict):
        raise serialize.SerializationError(
            f"{SVC_FORMAT} params must be a dict, got {type(params).__name__}"
        )
    return kind, params, message.get("id")


def parse_svc_response(message) -> dict:
    """Validate a response envelope (either outcome); returns it."""
    if not isinstance(message, dict) or message.get("format") != SVC_FORMAT:
        raise serialize.SerializationError(
            f"not a {SVC_FORMAT} response:"
            f" format={message.get('format') if isinstance(message, dict) else message!r}"
        )
    if "ok" not in message:
        raise serialize.SerializationError(f"{SVC_FORMAT} response missing 'ok'")
    if message["ok"]:
        if "result" not in message:
            raise serialize.SerializationError(
                f"{SVC_FORMAT} success response missing 'result'"
            )
    else:
        error = message.get("error")
        if not isinstance(error, dict) or "type" not in error or "message" not in error:
            raise serialize.SerializationError(
                f"{SVC_FORMAT} error response needs error.type and error.message"
            )
    return message


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def result_to_payload(result: DecomposeResult) -> dict:
    """Flatten a :class:`DecomposeResult` to a JSON-ready dict.

    The request itself is *not* serialized — the reassembling side (the
    batch parent, or a cache consumer) supplies its own request carrying
    the live ``f``; everything derived (``g``, ``h``, covers, metrics,
    candidate outcomes) travels in the payload.
    """
    decomposition = result.decomposition
    return {
        "format": RESULT_FORMAT,
        "op": result.op_name,
        "approximator": result.approximator_name,
        "minimizer": result.minimizer_name,
        "g": serialize.dump(decomposition.g),
        "h": isf_to_payload(decomposition.h),
        "g_cover": cover_to_payload(decomposition.g_cover),
        "h_cover": cover_to_payload(decomposition.h_cover),
        "metadata": dict(decomposition.metadata),
        "literal_cost": result.literal_cost,
        "error_rate": result.error_rate,
        "verified": result.verified,
        "timings": dict(result.timings),
        "candidates": [c.to_dict() for c in result.candidates],
        # Manager health counters of the computing side (informational;
        # never part of the result's identity or cache key).
        "bdd_stats": result.bdd_stats,
    }


def result_from_payload(payload: dict, request: DecomposeRequest) -> DecomposeResult:
    """Reassemble a :class:`DecomposeResult` against ``request.f``'s manager."""
    if not isinstance(payload, dict) or payload.get("format") != RESULT_FORMAT:
        raise serialize.SerializationError(
            f"not a {RESULT_FORMAT} payload:"
            f" format={payload.get('format') if isinstance(payload, dict) else payload!r}"
        )
    mgr = request.f.mgr
    try:
        op = operator_by_name(payload["op"])
        decomposition = BiDecomposition(
            f=request.f,
            op=op,
            g=serialize.load(payload["g"], mgr),
            h=isf_from_payload(payload["h"], mgr),
            g_cover=cover_from_payload(payload["g_cover"]),
            h_cover=cover_from_payload(payload["h_cover"]),
            metadata=dict(payload["metadata"]),
        )
        candidates = [
            CandidateOutcome(
                op_name=c["op"],
                verified=c["verified"],
                literal_cost=c["literal_cost"],
                error_rate=c["error_rate"],
                reason=c["reason"],
            )
            for c in payload["candidates"]
        ]
        return DecomposeResult(
            decomposition=decomposition,
            request=request,
            op_name=payload["op"],
            approximator_name=payload["approximator"],
            minimizer_name=payload["minimizer"],
            timings=dict(payload["timings"]),
            literal_cost=payload["literal_cost"],
            error_rate=payload["error_rate"],
            verified=payload["verified"],
            candidates=candidates,
            # Absent in payloads stored before the stats channel existed.
            bdd_stats=payload.get("bdd_stats"),
        )
    except (KeyError, TypeError) as exc:
        raise serialize.SerializationError(
            f"malformed {RESULT_FORMAT} payload: {exc}"
        ) from None


__all__ = [
    "NETSYN_RESULT_FORMAT",
    "NETWORK_FORMAT",
    "RESULT_FORMAT",
    "SVC_FORMAT",
    "SVC_KINDS",
    "cover_from_payload",
    "cover_to_payload",
    "isf_fingerprint",
    "isf_from_payload",
    "isf_to_payload",
    "isfs_from_payloads",
    "netsyn_result_from_payload",
    "netsyn_result_to_payload",
    "network_from_payload",
    "network_to_payload",
    "parse_svc_request",
    "parse_svc_response",
    "payload_backend",
    "result_from_payload",
    "result_to_payload",
    "svc_error",
    "svc_request",
    "svc_response",
]
