"""Decomposition-as-a-service: asyncio front end over the worker fleet.

Three layers, separable for testing:

* :class:`DecompositionService` — transport-free request handler.  One
  ``await service.handle(envelope)`` takes a ``repro-svc/1`` request
  dict and returns a response dict; tests drive it directly with
  ``asyncio.gather`` to exercise coalescing deterministically.
* :class:`ServiceServer` — newline-delimited-JSON asyncio socket server
  around a service.  Every received line becomes its own task, so one
  connection can pipeline requests and duplicates across connections
  coalesce.
* :class:`ServerThread` — runs a server (and its event loop) on a
  background thread for synchronous callers: tests, benchmarks, and the
  CLI.

Request flow for ``decompose``/``netsyn``: admission control →
canonical cache key → single-flight coalescer → sharded on-disk cache →
pre-warmed fleet.  The key is *backend-free* (strategies + operator +
canonical function hash), so requests differing only in backend — whose
results are identical by the engine's cross-backend guarantee — share
one flight and one cache entry.  ``netsyn`` requests additionally
thread the service-lifetime :class:`~repro.netsyn.pool.DivisorPool`
through the workers: each request is seeded with every warm cover the
service has seen and its new covers are merged back, so later requests
skip re-minimizing blocks earlier ones already solved — without ever
moving network node ids (or anything else identity-relevant) across
requests.

Hardening (the traffic layer):

* **timeouts** — every compute request resolves a deadline from its
  ``timeout_s`` param (falling back to the server-wide default); on
  expiry the fleet kills and respawns the slot's worker — real
  cancellation, a CPU-bound sweep cannot be interrupted cooperatively —
  and the waiter (plus every coalesced follower) gets a typed
  ``timeout`` error envelope.  The flight retires cleanly, so a later
  request on the same key recomputes.  With coalesced arrivals the
  *flight leader's* deadline governs the shared computation.
* **admission control** — ``max_inflight`` bounds concurrently admitted
  compute envelopes (``overloaded``), ``max_line_bytes`` bounds one
  request line (``too-large``), ``max_pending_per_conn`` bounds
  unanswered pipelined requests per connection (``overloaded``); every
  rejection is typed and counted instead of queueing unboundedly.
* **rate limiting** — an optional token bucket per peer host
  (``rate``/``burst``): a client that exceeds its refill rate gets a
  typed ``rate-limited`` envelope carrying ``retry_after_s`` — the exact
  wait until its bucket holds a token again — instead of queueing work.
  Probe kinds (``status``/``metrics``) are never throttled, so
  monitoring keeps working while a greedy client backs off.
* **resize / autoscale** — the ``resize`` request kind changes fleet
  capacity live (grow prewarms before admitting, shrink drains; zero
  in-flight requests dropped), and an optional queue-depth-driven
  autoscaler (``min_slots``/``max_slots``) does the same automatically:
  waiters in the checkout queue grow the fleet, sustained idleness
  shrinks it one slot at a time.
* **metrics** — the ``metrics`` request kind renders the ``status``
  counters in Prometheus text exposition format
  (:mod:`repro.service.metrics`).

Chaos sites: ``server.compute.start`` fires as a flight body enters
(before the cache lookup) and ``server.compute.computed`` after the
fleet replied ok but before the cache write — the two yield points where
killing a coalesced flight's leader must fail every follower with a
typed error *without* poisoning the key (see :mod:`repro.service.faults`).
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
from time import monotonic, perf_counter

from repro.bdd.serialize import SerializationError, canonical_hash
from repro.core.operators import EXPERIMENT_OPERATORS, operator_by_name
from repro.engine import wire
from repro.engine.cache import ResultCache
from repro.engine.parallel import make_work_item
from repro.engine.registry import APPROXIMATORS, MINIMIZERS
from repro.netsyn.pool import DivisorPool
from repro.obs import trace as _obs
from repro.obs.hist import LatencyHistograms
from repro.obs.store import ORDERS, TraceStore
from repro.service import faults
from repro.service.coalesce import Coalescer
from repro.service.fleet import (
    FleetTimeout,
    WorkerCrashed,
    WorkerFleet,
    _netsyn_config,
    service_decompose,
    service_netsyn,
)
from repro.service.metrics import CONTENT_TYPE, render_prometheus
from repro.service.shards import ShardedResultCache

#: Request kinds that occupy fleet/cache capacity (admission-controlled).
COMPUTE_KINDS = frozenset(("decompose", "decompose_many", "netsyn"))

#: Default per-line budget: generous for wire ISF payloads, small
#: enough that one abusive client cannot balloon the server's buffers.
DEFAULT_MAX_LINE_BYTES = 8 * 1024 * 1024

#: Per-kind parameter whitelists for the probe request kinds.  Compute
#: kinds validate their params structurally (work-item / config
#: builders); probes used to accept arbitrary junk silently — now an
#: unknown key is a typed ``bad-request``.
PROBE_PARAMS: dict[str, frozenset] = {
    "status": frozenset(),
    "metrics": frozenset(),
    "shutdown": frozenset(),
    "resize": frozenset({"size"}),
    "trace": frozenset({"n", "order", "min_duration_s"}),
}

#: Threshold-gated slow-request log (the trace layer's third output
#: next to the ``trace`` kind and the Prometheus histograms).
_SLOW_LOG = logging.getLogger("repro.obs.slow")


class WorkerError(Exception):
    """A worker-side failure, re-raised server-side with its type tag."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(message)
        self.error_type = error_type


class RateLimiter:
    """Per-peer token buckets: ``rate`` tokens/s refill, ``burst`` cap.

    Buckets are lazy (created on a peer's first request, pre-filled to
    the burst) and touched only from the event loop, so no lock is
    needed.  :meth:`admit` returns ``0.0`` when a token was taken and
    otherwise the exact seconds until the peer's bucket refills to one
    token — the ``retry_after_s`` the error envelope carries.  The
    ``clock`` is injectable so tests can step time deterministically.
    """

    def __init__(self, rate: float, burst: float, clock=monotonic) -> None:
        if rate <= 0 or burst < 1:
            raise ValueError(
                f"need rate > 0 and burst >= 1, got rate={rate} burst={burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self._buckets: dict[str, list[float]] = {}

    def admit(self, peer: str) -> float:
        now = self.clock()
        bucket = self._buckets.get(peer)
        if bucket is None:
            bucket = [self.burst, now]
            self._buckets[peer] = bucket
        tokens, last = bucket
        tokens = min(self.burst, tokens + (now - last) * self.rate)
        if tokens >= 1.0:
            bucket[0] = tokens - 1.0
            bucket[1] = now
            return 0.0
        bucket[0] = tokens
        bucket[1] = now
        return (1.0 - tokens) / self.rate


def _check_strategy_names(operators, approximator, minimizer) -> None:
    """Raise ``SerializationError`` (a ``bad-request``) for a name that
    neither the operator table nor the strategy registries know."""
    try:
        for name in operators:
            operator_by_name(str(name))
        APPROXIMATORS.resolve(str(approximator))
        MINIMIZERS.resolve(str(minimizer))
    except KeyError as exc:  # UnknownStrategyError included
        raise SerializationError(exc.args[0]) from None


class DecompositionService:
    """Transport-free request handler: admission + coalescer + cache + fleet."""

    def __init__(
        self,
        fleet: WorkerFleet | None = None,
        jobs: int | None = None,
        cache_dir=None,
        cache_shards: int = 4,
        cache_max_bytes: int | None = None,
        cache_max_entries: int | None = None,
        prewarm: bool = True,
        timeout_s: float | None = None,
        max_inflight: int | None = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
        max_pending_per_conn: int | None = None,
        rate: float | None = None,
        burst: float | None = None,
        min_slots: int | None = None,
        max_slots: int | None = None,
        autoscale_interval_s: float = 0.25,
        trace_capacity: int = 256,
        slow_request_s: float | None = None,
    ) -> None:
        self.fleet = fleet if fleet is not None else WorkerFleet(jobs, prewarm=prewarm)
        self._owns_fleet = fleet is None
        self.cache = (
            ShardedResultCache(
                cache_dir,
                shards=cache_shards,
                max_bytes=cache_max_bytes,
                max_entries=cache_max_entries,
            )
            if cache_dir is not None
            else None
        )
        self.coalescer = Coalescer()
        #: Service-lifetime warm-cover pool, merged from every netsyn run.
        self.pool = DivisorPool(collect_covers=True)
        #: Server-wide default deadline; a request's ``timeout_s`` wins.
        self.timeout_s = timeout_s
        self.max_inflight = max_inflight
        self.max_line_bytes = max_line_bytes
        self.max_pending_per_conn = max_pending_per_conn
        #: Per-peer token buckets (None = no throttling).
        self.limiter = (
            RateLimiter(rate, burst if burst is not None else max(rate, 1.0))
            if rate is not None
            else None
        )
        self.min_slots = min_slots
        self.max_slots = max_slots
        self.autoscale_interval_s = autoscale_interval_s
        self._idle_ticks = 0
        self.started = monotonic()
        self.stats = {
            "requests": 0,
            "errors": 0,
            "computed": 0,
            "cache_hits": 0,
            "timeouts": 0,
        }
        #: Typed-rejection counters (admission control).
        self.admission = {"overloaded": 0, "too_large": 0, "rate_limited": 0}
        #: Compute envelopes currently admitted (gauge, not a counter).
        self.inflight = 0
        #: Reassembled span trees, one per traced request (bounded ring).
        self.traces = TraceStore(capacity=trace_capacity)
        #: Fixed-bucket per-site latency histograms with trace exemplars.
        self.latency = LatencyHistograms()
        #: Requests slower than this (seconds) go to the slow-request
        #: log with a per-site breakdown; ``None`` disables the log.
        self.slow_request_s = slow_request_s
        self.slow_logged = 0
        self.shutdown_event = asyncio.Event()

    # -- request handling -------------------------------------------------

    async def handle(self, message, peer: str = "local") -> dict:
        """Serve one ``repro-svc/1`` request; always returns an envelope.

        ``peer`` identifies the client for rate limiting (the socket
        server passes the connection's host; direct callers share one
        ``"local"`` bucket).

        When a tracer is installed (:func:`repro.obs.install`), every
        request runs under a ``server.request`` root span; on return the
        finished span tree — including worker-side spans absorbed across
        the fleet pipe — is reassembled into :attr:`traces`, folded into
        the latency histograms, and slow requests are logged.  Without a
        tracer this wrapper is a single module-global read.
        """
        if _obs.active() is None:
            return await self._handle(message, peer)
        kind = message.get("kind") if isinstance(message, dict) else None
        request_id = message.get("id") if isinstance(message, dict) else None
        with _obs.span("server.request", kind=str(kind), peer=peer) as root:
            response = await self._handle(message, peer)
            if isinstance(response, dict) and not response.get("ok", False):
                error = response.get("error") or {}
                error_type = error.get("type")
                root.annotate(error=error_type)
                root.set_status("timeout" if error_type == "timeout" else "error")
        self._finish_trace(root, str(kind), request_id)
        return response

    async def _handle(self, message, peer: str) -> dict:
        # Malformed traffic is traffic: count it before rejecting, so
        # admission monitoring sees bad requests in requests/errors.
        self.stats["requests"] += 1
        try:
            kind, params, request_id = wire.parse_svc_request(message)
        except SerializationError as exc:
            self.stats["errors"] += 1
            raw_id = message.get("id") if isinstance(message, dict) else None
            return wire.svc_error(raw_id, "bad-request", str(exc))
        admitted = kind in COMPUTE_KINDS
        with _obs.span("server.admission", kind=kind) as admission_span:
            if admitted and self.limiter is not None:
                retry_after_s = self.limiter.admit(peer)
                if retry_after_s > 0.0:
                    admission_span.annotate(outcome="rate-limited")
                    self.admission["rate_limited"] += 1
                    self.stats["errors"] += 1
                    return wire.svc_error(
                        request_id,
                        "rate-limited",
                        f"peer {peer} exceeded {self.limiter.rate} req/s"
                        f" (burst {self.limiter.burst});"
                        f" retry after {retry_after_s:.3f}s",
                        retry_after_s=round(retry_after_s, 6),
                    )
            if (
                admitted
                and self.max_inflight is not None
                and self.inflight >= self.max_inflight
            ):
                admission_span.annotate(outcome="overloaded")
                self.admission["overloaded"] += 1
                self.stats["errors"] += 1
                return wire.svc_error(
                    request_id,
                    "overloaded",
                    f"{self.inflight} requests in flight (limit"
                    f" {self.max_inflight}); retry later",
                )
            admission_span.annotate(outcome="admitted" if admitted else "probe")
        if admitted:
            self.inflight += 1
        t0 = perf_counter()
        try:
            if kind in PROBE_PARAMS:
                self._check_probe_params(kind, params)
            if kind == "decompose":
                result, stats = await self._decompose(params)
            elif kind == "decompose_many":
                result, stats = await self._decompose_many(params)
            elif kind == "netsyn":
                result, stats = await self._netsyn(params)
            elif kind == "status":
                result, stats = self.status(), {}
            elif kind == "metrics":
                result = {
                    "content_type": CONTENT_TYPE,
                    "text": render_prometheus(
                        self.status(), histograms=self.latency.snapshot()
                    ),
                }
                stats = {}
            elif kind == "trace":
                result, stats = self._trace(params), {}
            elif kind == "resize":
                result, stats = await self._resize(params), {}
            else:  # "shutdown" — parse_svc_request rejects anything else
                self.shutdown_event.set()
                result, stats = {"stopping": True}, {}
        except WorkerError as exc:
            self.stats["errors"] += 1
            return wire.svc_error(request_id, exc.error_type, str(exc))
        except SerializationError as exc:
            self.stats["errors"] += 1
            return wire.svc_error(request_id, "bad-request", str(exc))
        except Exception as exc:  # noqa: BLE001 — a reply, never a crash
            self.stats["errors"] += 1
            return wire.svc_error(request_id, type(exc).__name__, str(exc))
        finally:
            if admitted:
                self.inflight -= 1
        stats["wall_s"] = round(perf_counter() - t0, 6)
        return wire.svc_response(request_id, result, stats)

    def _timeout_for(self, params: dict) -> float | None:
        """Resolve a request's deadline (param beats server default)."""
        raw = params.get("timeout_s")
        if raw is None:
            return self.timeout_s
        if not isinstance(raw, (int, float)) or isinstance(raw, bool) or raw <= 0:
            raise SerializationError(
                f"timeout_s must be a positive number, got {raw!r}"
            )
        return float(raw)

    @staticmethod
    def _check_probe_params(kind: str, params: dict) -> None:
        """Reject unknown params on probe kinds with a typed bad-request."""
        allowed = PROBE_PARAMS[kind]
        unknown = set(params) - set(allowed)
        if unknown:
            raise SerializationError(
                f"unknown {kind} params {sorted(unknown)};"
                f" allowed: {sorted(allowed) or 'none'}"
            )

    # -- tracing ----------------------------------------------------------

    def _trace(self, params: dict) -> dict:
        """Serve the ``trace`` kind: query the reassembled span trees."""
        n = params.get("n", 20)
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise SerializationError(
                f"trace param 'n' must be a positive integer, got {n!r}"
            )
        order = params.get("order", "recent")
        if order not in ORDERS:
            raise SerializationError(
                f"trace param 'order' must be one of {list(ORDERS)}, got {order!r}"
            )
        min_duration = params.get("min_duration_s", 0)
        if (
            not isinstance(min_duration, (int, float))
            or isinstance(min_duration, bool)
            or min_duration < 0
        ):
            raise SerializationError(
                f"trace param 'min_duration_s' must be a non-negative number,"
                f" got {min_duration!r}"
            )
        return {
            "enabled": _obs.active() is not None,
            "slow_logged": self.slow_logged,
            **self.traces.stats(),
            "traces": self.traces.query(
                n=n, order=order, min_duration_s=float(min_duration)
            ),
        }

    def _finish_trace(self, root, kind: str, request_id) -> None:
        """Reassemble one request's span tree and record it.

        ``root`` is the just-closed ``server.request`` span; every span
        of its trace — the server-side ones plus any worker-side spans
        :meth:`WorkerFleet._dispatch` absorbed from reply envelopes — is
        popped from the tracer, stored as one record, folded into the
        latency histograms, and (past the threshold) slow-logged with a
        per-site breakdown.
        """
        tracer = _obs.active()
        if tracer is None:
            return
        spans = tracer.pop_trace(root.trace_id)
        if not spans:
            return
        root_span = next(
            (s for s in spans if s["span_id"] == root.span_id), None
        )
        t0 = root_span["t0"] if root_span else min(s["t0"] for s in spans)
        t1 = root_span["t1"] if root_span else max(s["t1"] for s in spans)
        record = {
            "trace_id": root.trace_id,
            "kind": kind,
            "id": request_id,
            "status": root_span["status"] if root_span else "ok",
            "t0": t0,
            "duration_s": max(0.0, t1 - t0),
            "spans": spans,
        }
        self.traces.add(record)
        self.latency.observe_trace(record)
        if (
            self.slow_request_s is not None
            and record["duration_s"] >= self.slow_request_s
        ):
            self.slow_logged += 1
            per_site: dict[str, float] = {}
            for span in spans:
                per_site[span["site"]] = per_site.get(span["site"], 0.0) + max(
                    0.0, span["t1"] - span["t0"]
                )
            breakdown = ", ".join(
                f"{site}={duration * 1000:.1f}ms"
                for site, duration in sorted(
                    per_site.items(), key=lambda kv: -kv[1]
                )[:6]
            )
            _SLOW_LOG.warning(
                "slow request %s kind=%s status=%s wall=%.1fms (%s)",
                record["trace_id"],
                kind,
                record["status"],
                record["duration_s"] * 1000,
                breakdown,
            )

    async def _serve_keyed(
        self, key: str, worker_func, work: dict, timeout_s: float | None
    ):
        """Coalesce → cache → fleet for one canonically keyed task.

        Returns ``(reply_value, per_request_stats)`` where the reply
        value is the flight's ``{"payload", "served_by", ...}`` dict —
        shared verbatim with every coalesced follower.
        """

        async def compute() -> dict:
            # Chaos window: the flight exists, nothing has run yet — a
            # leader failing here must fail every follower with a typed
            # error and retire the key cleanly.
            faults.fire("server.compute.start", key=key)
            if self.cache is not None:
                hit = self.cache.get(key)
                if hit is not None:
                    self.stats["cache_hits"] += 1
                    return {"payload": hit, "served_by": "cache", "worker": None}
            try:
                reply = await self.fleet.run(worker_func, work, timeout_s)
            except FleetTimeout as exc:
                self.stats["timeouts"] += 1
                raise WorkerError("timeout", str(exc)) from None
            except WorkerCrashed as exc:
                raise WorkerError("worker-crashed", str(exc)) from None
            if not reply["ok"]:
                error = reply["error"]
                raise WorkerError(error["type"], error["message"])
            self.stats["computed"] += 1
            # Chaos window: the fleet replied ok but nothing reached the
            # cache — a failure here must not leave a partial entry.
            faults.fire("server.compute.computed", key=key)
            if worker_func is service_netsyn:
                self.pool.merge(reply.get("pool"))
            if self.cache is not None:
                self.cache.put(key, reply["payload"])
            return {
                "payload": reply["payload"],
                "served_by": "fleet",
                "worker": reply.get("worker"),
            }

        value, coalesced = await self.coalescer.run(key, compute)
        stats = {
            "key": key,
            "coalesced": coalesced,
            "served_by": value["served_by"],
            "worker": value["worker"],
        }
        return value["payload"], stats

    async def _decompose(self, params: dict):
        timeout_s = self._timeout_for(params)
        item = self._work_item(params)
        key = ResultCache.key_for(
            item["f"],
            item["op"],
            item["approximator"],
            item["minimizer"],
            item["verify"],
            tuple(item["operators"]),
        )
        return await self._serve_keyed(key, service_decompose, item, timeout_s)

    async def _decompose_many(self, params: dict):
        raw_items = params.get("items")
        if not isinstance(raw_items, list) or not raw_items:
            raise SerializationError(
                "decompose_many params need a non-empty 'items' list"
            )
        defaults = {
            name: value for name, value in params.items() if name != "items"
        }
        outcomes = await asyncio.gather(
            *(
                self._decompose({**defaults, **item})
                for item in raw_items
            ),
            return_exceptions=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        stats = {
            "items": len(outcomes),
            "coalesced": sum(1 for _, s in outcomes if s["coalesced"]),
            "cache_hits": sum(
                1 for _, s in outcomes if s["served_by"] == "cache"
            ),
        }
        return {"results": [payload for payload, _ in outcomes]}, stats

    async def _netsyn(self, params: dict):
        """Serve a ``netsyn`` request.  An unknown benchmark, operator,
        approximator or minimizer name is a bad request here, before any
        worker sees it; names are kept as sent, so keys do not change."""
        timeout_s = self._timeout_for(params)
        # Building the config server-side validates the request *and*
        # pins the identity key to NetsynConfig.key_payload(), which is
        # backend-free by construction.
        config = _netsyn_config(params.get("config") or {})
        task = {"config": params.get("config") or {}}
        if params.get("benchmark") is not None:
            task["benchmark"] = str(params["benchmark"])
            # Imported here: the registry is not needed to start serving.
            from repro.benchgen.registry import BENCHMARKS

            if task["benchmark"] not in BENCHMARKS:
                raise SerializationError(
                    f"unknown benchmark {task['benchmark']!r};"
                    f" known: {sorted(BENCHMARKS)}"
                )
        elif params.get("outputs"):
            task["outputs"] = params["outputs"]
            task["name"] = str(params.get("name", ""))
        else:
            raise SerializationError(
                "netsyn params need 'benchmark' or a non-empty 'outputs' list"
            )
        _check_strategy_names(
            config.operators, config.approximator, config.minimizer
        )
        key = canonical_hash(
            {
                "format": wire.SVC_FORMAT,
                "netsyn": {
                    "benchmark": task.get("benchmark"),
                    "outputs": task.get("outputs"),
                    "config": config.key_payload(),
                },
            }
        )
        task["pool_seed"] = self.pool.snapshot()
        return await self._serve_keyed(key, service_netsyn, task, timeout_s)

    async def _resize(self, params: dict) -> dict:
        """Serve a ``resize`` request: retarget the fleet off-loop.

        Growth forks and identifies workers (blocking), so the actual
        resize runs in an executor thread — the event loop keeps serving
        while new slots warm up.
        """
        raw = params.get("size")
        if not isinstance(raw, int) or isinstance(raw, bool) or raw < 1:
            raise SerializationError(
                f"resize params need 'size', a positive integer; got {raw!r}"
            )
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.fleet.resize, raw)

    def autoscale_decision(self) -> int | None:
        """The size the autoscaler wants next, or ``None`` to hold.

        Pure policy, queue-depth driven: dispatches waiting for a slot
        grow the fleet toward ``max_slots`` (one slot per waiter, at
        least one); a fleet that has been idle — empty queue, fewer
        admitted requests than slots — for three consecutive ticks
        shrinks one slot toward ``min_slots``.  Out-of-bounds sizes
        (e.g. after a manual ``resize``) are pulled back into range.
        The caller executes the returned resize off-loop.
        """
        if self.min_slots is None and self.max_slots is None:
            return None
        size = self.fleet.size
        lo = self.min_slots if self.min_slots is not None else 1
        hi = self.max_slots if self.max_slots is not None else max(lo, size)
        if size < lo:
            return lo
        if size > hi:
            return hi
        depth = self.fleet.queue_depth()
        if depth > 0 and size < hi:
            self._idle_ticks = 0
            return min(hi, size + max(1, depth))
        if depth == 0 and self.inflight < size and size > lo:
            self._idle_ticks += 1
            if self._idle_ticks >= 3:
                self._idle_ticks = 0
                return size - 1
            return None
        self._idle_ticks = 0
        return None

    def _work_item(self, params: dict) -> dict:
        """A decompose work item; an unknown name is a bad request here,
        before any worker sees it.  Names are kept as sent, so the item
        and its cache key do not depend on the check."""
        if not isinstance(params.get("f"), dict):
            raise SerializationError(
                "decompose params need 'f' (a repro-bdd/1 ISF payload)"
            )
        item = make_work_item(
            name=str(params.get("name", "")),
            f_payload=params["f"],
            op=str(params.get("op", "auto")),
            approximator=str(params.get("approximator", "expand-full")),
            minimizer=str(params.get("minimizer", "spp")),
            verify=bool(params.get("verify", True)),
            operators=tuple(params.get("operators", EXPERIMENT_OPERATORS)),
            backend=str(params.get("backend", "auto")),
        )
        operators = item["operators"]
        if item["op"].lower() != "auto":
            operators = (item["op"], *operators)
        _check_strategy_names(
            operators, item["approximator"], item["minimizer"]
        )
        return item

    # -- introspection / lifecycle ----------------------------------------

    def status(self) -> dict:
        """Service counters: server, requests, fleet, coalescer, cache,
        pool, admission, trace."""
        cache_stats = None
        if self.cache is not None:
            cache_stats = dict(self.cache.stats)
            cache_stats["entries"] = len(self.cache)
            cache_stats["shards"] = self.cache.n_shards
        return {
            "server": {
                "uptime_s": round(monotonic() - self.started, 3),
                "min_slots": self.min_slots,
                "max_slots": self.max_slots,
            },
            "requests": dict(self.stats),
            "fleet": {
                "size": self.fleet.size,
                "slots_target": self.fleet.size,
                "slots_live": self.fleet.slots_live,
                "draining": self.fleet.draining,
                "queue_depth": self.fleet.queue_depth(),
                **self.fleet.stats,
                "pids": self.fleet.pids(),
            },
            "coalesce": {
                "rate": round(self.coalescer.coalesce_rate(), 4),
                **self.coalescer.stats,
            },
            "cache": cache_stats,
            "pool": {
                "warm_covers": len(self.pool.snapshot()["covers"]),
                **{
                    name: self.pool.stats[name]
                    for name in ("warm_lookups", "warm_hits", "warm_imported")
                },
            },
            "admission": {
                "inflight": self.inflight,
                "max_inflight": self.max_inflight,
                "max_line_bytes": self.max_line_bytes,
                "max_pending_per_conn": self.max_pending_per_conn,
                "default_timeout_s": self.timeout_s,
                "rate": self.limiter.rate if self.limiter else None,
                "burst": self.limiter.burst if self.limiter else None,
                **self.admission,
            },
            "trace": {
                "enabled": _obs.active() is not None,
                "slow_logged": self.slow_logged,
                **self.traces.stats(),
            },
        }

    def close(self) -> None:
        """Shut the fleet down (only if this service created it)."""
        if self._owns_fleet:
            self.fleet.shutdown()


class ServiceServer:
    """Newline-delimited-JSON asyncio server around one service."""

    def __init__(
        self,
        service: DecompositionService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        #: Live per-connection handler tasks; awaited (after cancel) in
        #: :meth:`stop` so no coroutine is destroyed while suspended.
        self._connections: set[asyncio.Task] = set()
        self._autoscale_task: asyncio.Task | None = None

    async def start(self) -> None:
        """Bind and start accepting; resolves ``port=0`` to the real one."""
        self._server = await asyncio.start_server(
            self._serve_client,
            self.host,
            self.port,
            limit=self.service.max_line_bytes,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if (
            self.service.min_slots is not None
            or self.service.max_slots is not None
        ):
            self._autoscale_task = asyncio.create_task(self._autoscale())

    async def _autoscale(self) -> None:
        """Background policy loop: tick, decide, resize off-loop.

        The decision is pure (:meth:`DecompositionService.autoscale_decision`);
        the resize itself forks workers, so it runs in an executor thread
        and the loop keeps serving while the fleet warms.
        """
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.service.autoscale_interval_s)
            target = self.service.autoscale_decision()
            if target is not None and target != self.service.fleet.size:
                await loop.run_in_executor(
                    None, self.service.fleet.resize, target
                )

    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        peername = writer.get_extra_info("peername")
        peer = (
            str(peername[0])
            if isinstance(peername, tuple) and peername
            else "unknown"
        )
        # One writer lock per connection: responses are whole lines, and
        # pipelined requests may finish out of order (ids match them up).
        lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The stream buffer overran ``max_line_bytes``; the
                    # connection is desynced beyond repair (part of the
                    # oversized line is already consumed), so reject and
                    # hang up instead of buffering without bound.
                    self.service.admission["too_large"] += 1
                    await self._send(
                        writer,
                        lock,
                        wire.svc_error(
                            None,
                            "too-large",
                            f"request line exceeds"
                            f" {self.service.max_line_bytes} bytes",
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                cap = self.service.max_pending_per_conn
                if cap is not None and len(pending) >= cap:
                    # Unanswered pipelined requests on this connection
                    # hit the cap: typed rejection, no task created.
                    self.service.admission["overloaded"] += 1
                    await self._send(
                        writer,
                        lock,
                        wire.svc_error(
                            _peek_request_id(line),
                            "overloaded",
                            f"{len(pending)} unanswered requests on this"
                            f" connection (limit {cap}); read replies"
                            f" before pipelining more",
                        ),
                    )
                    continue
                task = asyncio.create_task(
                    self._answer(line, writer, lock, peer)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
        ):
            # Cancellation comes from stop(): treat it like a client
            # hangup so the task finishes (and cleans up) normally.
            pass
        finally:
            try:
                if pending:
                    await asyncio.gather(*pending, return_exceptions=True)
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Loop teardown (asyncio.run cancelling this handler) or
                # a client that vanished mid-close: either way the
                # connection is gone and there is nothing left to do.
                pass

    async def _answer(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        peer: str = "local",
    ) -> None:
        try:
            message = json.loads(line)
        except ValueError as exc:
            # Unparseable traffic is still traffic: count it where the
            # admission monitoring looks.
            self.service.stats["requests"] += 1
            self.service.stats["errors"] += 1
            response = wire.svc_error(None, "bad-json", str(exc))
        else:
            response = await self.service.handle(message, peer=peer)
        await self._send(writer, lock, response)

    async def _send(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, response: dict
    ) -> None:
        data = json.dumps(
            response, sort_keys=True, separators=(",", ":")
        ).encode("utf-8") + b"\n"
        try:
            async with lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError):
            pass  # client went away mid-reply; nothing to salvage

    async def stop(self) -> None:
        if self._autoscale_task is not None:
            self._autoscale_task.cancel()
            try:
                await self._autoscale_task
            except asyncio.CancelledError:
                pass
            self._autoscale_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            # Handlers parked on readline never wake on their own once
            # we stop reading; cancel and collect them so the loop can
            # close without destroying suspended coroutines.
            for task in list(self._connections):
                task.cancel()
            await asyncio.gather(*self._connections, return_exceptions=True)

    async def serve_until_shutdown(self) -> None:
        """Run until a ``shutdown`` request (or external event set)."""
        await self.service.shutdown_event.wait()
        await self.stop()


def _peek_request_id(line: bytes) -> str | None:
    """Best-effort id extraction for errors sent without full handling."""
    try:
        message = json.loads(line)
    except ValueError:
        return None
    if isinstance(message, dict):
        request_id = message.get("id")
        if request_id is None or isinstance(request_id, str):
            return request_id
    return None


class ServerThread:
    """A service server on a background thread, for synchronous callers.

    The service (and its fleet) is constructed in the *calling* thread —
    worker processes fork before the loop thread exists — then the
    asyncio server runs on a daemon thread until :meth:`stop`.
    """

    def __init__(
        self,
        service: DecompositionService | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_kwargs,
    ) -> None:
        self._external_service = service
        self._service_kwargs = service_kwargs
        self.host = host
        self.port = port
        self.service: DecompositionService | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def start(self) -> "ServerThread":
        self.service = self._external_service or DecompositionService(
            **self._service_kwargs
        )
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=120)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():
            raise TimeoutError("service server failed to start in time")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._main())
        finally:
            asyncio.set_event_loop(None)
            loop.close()

    async def _main(self) -> None:
        server = ServiceServer(self.service, self.host, self.port)
        try:
            await server.start()
        except BaseException as exc:  # bind failure etc.
            self._startup_error = exc
            self._ready.set()
            return
        self.port = server.port
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await server.serve_until_shutdown()

    def stop(self) -> None:
        """Signal shutdown, join the loop thread, release the fleet.

        Idempotent, and safe after a wire-level ``shutdown`` request has
        already stopped the loop.
        """
        if self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self.service.shutdown_event.set)
            except RuntimeError:
                pass  # loop already closed by a shutdown request
        if self._thread is not None:
            self._thread.join(timeout=120)
        if self._external_service is None and self.service is not None:
            self.service.close()

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


__all__ = [
    "COMPUTE_KINDS",
    "DEFAULT_MAX_LINE_BYTES",
    "DecompositionService",
    "RateLimiter",
    "ServerThread",
    "ServiceServer",
    "WorkerError",
]
