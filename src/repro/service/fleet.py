"""The worker fleet: the program's one pool of worker processes.

A :class:`WorkerFleet` owns a set of **slot processes**, one process and
one pipe each.  The service keeps a fleet alive for its lifetime and
dispatches warm entry points to it (:meth:`WorkerFleet.run`).  Batch
work — :func:`repro.engine.parallel.run_parallel` and
:func:`repro.harness.experiment.run_benchmarks` with ``jobs > 1`` — runs
plain functions cold through :meth:`WorkerFleet.map`, on a fleet that
lives for one batch.  The service's entry points hold *warm* state in
module globals:

* managers keyed by backend and the exact declared variable slice: a
  request's payload picks its backend once, as it is decoded
  (:func:`repro.engine.wire.payload_backend`), and a function over known
  variables skips manager construction and reloads into a table that
  already contains most of its nodes;
* :class:`~repro.engine.decomposer.Decomposer` engines keyed by
  :func:`~repro.engine.parallel.engine_spec_key`, so divisor/cover
  memos survive across requests;
* :class:`~repro.netsyn.synthesis.NetworkSynthesizer` instances keyed
  by their (hashable, frozen) :class:`~repro.netsyn.synthesis.NetsynConfig`,
  plus loaded benchmark instances by name and backend.

Warm state is a pure accelerator: every strategy is deterministic and
memo hits return exactly what recomputation would, so a warm worker's
payload is byte-identical to a cold run's (informational counters like
``bdd_stats`` aside).  When the accumulated node tables cross
``NODE_LIMIT`` the worker drops *all* warm state and rebuilds on demand
— the same correctness-by-reconstruction move the engine's own gc makes,
applied at fleet scope.

Why slot processes instead of a :class:`~concurrent.futures.ProcessPoolExecutor`:
an executor hides *which* process runs a task, so a hung CPU-bound
computation cannot be interrupted (cooperative cancellation never runs)
and a crashed worker breaks the whole pool.  Each :class:`_Slot` here
owns exactly one process and one duplex pipe, which buys the service's
hardening guarantees directly:

* **real cancellation** — a per-call ``timeout_s`` deadline on the
  reply pipe; on expiry the slot's process is SIGKILLed and respawned,
  and the caller gets :class:`FleetTimeout` (the server turns it into a
  typed ``timeout`` error envelope).  Only the victim slot is touched.
* **self-healing** — a dead worker (OOM kill, crash, external SIGKILL)
  surfaces as pipe EOF on the very next interaction; the slot respawns
  transparently and the request is retried once on the fresh worker
  before :class:`WorkerCrashed` escapes.  ``restarts``/``kills``/
  ``retries``/``timeouts`` counters surface every such event.
* **exact prewarm accounting** — one process per slot means
  :meth:`WorkerFleet.prewarm` identifies every worker over its own
  pipe; ``stats["prewarmed"]`` counts each slot exactly once by
  construction (no shared task queue for a fast worker to drain).

Worker entry points return ``{"ok": ..., ...}`` envelopes instead of
raising: a failed decomposition is a *result* the server turns into an
error response, not a reason to lose the worker.
"""

from __future__ import annotations

import asyncio
import contextvars
import itertools
import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait

from repro.engine.parallel import build_engine, decompose_item, engine_spec_key
from repro.obs import trace as _obs
from repro.service import faults

#: Combined live-node budget across one worker's warm managers; crossing
#: it drops all warm state (managers, engines, synthesizers, instances).
NODE_LIMIT = 500_000


class FleetTimeout(Exception):
    """A dispatched call missed its deadline; the worker was killed."""


class WorkerCrashed(Exception):
    """The worker died mid-request and the one retry died too."""


# ---------------------------------------------------------------------------
# Worker-side warm state (module globals; one copy per worker process)
# ---------------------------------------------------------------------------

_WARM = {
    "managers": {},  # (backend, var-name tuple) -> manager
    "engines": {},  # engine_spec_key -> Decomposer
    "synths": {},  # NetsynConfig -> NetworkSynthesizer
    "instances": {},  # (benchmark name, backend) -> BenchmarkInstance
    "computed": 0,
    "refreshes": 0,
}


def _worker_ident(_arg: dict) -> dict:
    """Prewarm entry point: identify a slot's worker, pull in heavy modules.

    Under ``fork`` the parent's imports are inherited and the imports are
    nearly free; under a spawn fallback they move the import cost from
    the first request to fleet startup — that is what "pre-warmed" means
    here.  A fleet that skips prewarm (batch work) loads only what its
    calls use.
    """
    import repro.benchgen.registry  # noqa: F401
    import repro.engine.decomposer  # noqa: F401
    import repro.netsyn.synthesis  # noqa: F401

    return {"ok": True, "pid": os.getpid(), "worker": _worker_stats()}


def service_sleep(arg: dict) -> dict:
    """Fault-injection entry point: hold the slot busy for ``seconds``.

    Stands in for a hung CPU-bound computation in tests and the
    fault-injection benchmark rows — a real BDD sweep cannot be made to
    hang on demand, but the timeout/kill/respawn path it exercises is
    identical.
    """
    time.sleep(float(arg.get("seconds", 0.0)))
    return {
        "ok": True,
        "payload": {"slept": float(arg.get("seconds", 0.0))},
        "worker": _worker_stats(),
    }


def _worker_stats() -> dict:
    return {
        "pid": os.getpid(),
        "computed": _WARM["computed"],
        "warm_managers": len(_WARM["managers"]),
        "warm_engines": len(_WARM["engines"]),
        "warm_synths": len(_WARM["synths"]),
        "refreshes": _WARM["refreshes"],
    }


def _maybe_refresh() -> None:
    """Bound the warm node tables: gc + reorder first, drop as last resort.

    Once the combined live-node count outgrows ``NODE_LIMIT`` the warm
    managers are first collected and sifted in place
    (:meth:`repro.bdd.manager.BDD.gc` then
    :meth:`~repro.bdd.manager.BDD.reorder` — neither is observable in
    results, dumps, or cache keys).  Only if the total *still* exceeds
    the limit is all warm state dropped.  Engines and synthesizers hold
    memo entries rooted in the warm managers, so managers and consumers
    are dropped *together* — a memo outliving its manager would pin the
    whole table in memory.
    """
    total = sum(mgr.node_count() for mgr in _WARM["managers"].values())
    total += sum(
        inst.mgr.node_count() for inst in _WARM["instances"].values()
    )
    if total <= NODE_LIMIT:
        return
    for mgr in _WARM["managers"].values():
        mgr.gc()
        mgr.reorder()
    total = sum(mgr.node_count() for mgr in _WARM["managers"].values())
    total += sum(
        inst.mgr.node_count() for inst in _WARM["instances"].values()
    )
    if total <= NODE_LIMIT:
        return
    _WARM["managers"].clear()
    _WARM["engines"].clear()
    _WARM["synths"].clear()
    _WARM["instances"].clear()
    _WARM["refreshes"] += 1


def _warm_manager(backend: str, var_names: tuple[str, ...]):
    """A warm manager of ``backend`` declaring exactly ``var_names``."""
    key = (backend, var_names)
    mgr = _WARM["managers"].get(key)
    if mgr is None:
        from repro.backend.protocol import make_manager

        mgr = make_manager(backend, list(var_names))
        _WARM["managers"][key] = mgr
    return mgr


def _warm_engine(item: dict):
    """A warm engine matching the item's spec (memos persist)."""
    key = engine_spec_key(item)
    engine = _WARM["engines"].get(key)
    if engine is None:
        engine = build_engine(item)
        _WARM["engines"][key] = engine
    return engine


def _error_envelope(exc: Exception) -> dict:
    return {
        "ok": False,
        "error": {"type": type(exc).__name__, "message": str(exc)},
        "worker": _worker_stats(),
    }


def service_decompose(item: dict) -> dict:
    """Fleet entry point: one decompose work item on warm state.

    ``item`` is a :func:`repro.engine.parallel.make_work_item` dict.
    Returns ``{"ok": True, "payload": <repro-result/1>, "worker": ...}``
    or an ``ok: False`` envelope carrying the exception type/message.
    """
    from repro.engine import wire

    try:
        faults.fire("worker.compute", entry="decompose")
        with _obs.span("worker.compute", entry="decompose"):
            _maybe_refresh()
            backend = wire.payload_backend(item["f"], item.get("backend", "auto"))
            mgr = _warm_manager(backend, tuple(item["f"]["vars"]))
            engine = _warm_engine(item)
            payload = decompose_item(item, mgr=mgr, engine=engine)
    except Exception as exc:  # noqa: BLE001 — every failure is a reply
        return _error_envelope(exc)
    _WARM["computed"] += 1
    return {"ok": True, "payload": payload, "worker": _worker_stats()}


def _netsyn_config(config_payload: dict):
    """Build a :class:`NetsynConfig` from request params (whitelisted).

    ``backend`` is accepted beside the config fields but is not one: it
    picks the representation the task's instance is loaded or decoded
    into (:func:`_task_instance`).
    """
    from repro.bdd.serialize import SerializationError
    from repro.netsyn.synthesis import NetsynConfig

    allowed = {
        "operators",
        "approximator",
        "minimizer",
        "literal_threshold",
        "max_depth",
        "match_intervals",
        "verify",
        "backend",
    }
    unknown = set(config_payload) - allowed
    if unknown:
        raise SerializationError(
            f"unknown netsyn config fields: {sorted(unknown)}"
        )
    kwargs = dict(config_payload)
    kwargs.pop("backend", None)
    if "operators" in kwargs:
        kwargs["operators"] = tuple(kwargs["operators"])
    return NetsynConfig(**kwargs)


def _task_instance(task: dict):
    """Resolve the benchmark instance a netsyn task names or carries.

    The config's ``backend`` (default ``"auto"``) feeds the ingress
    choice: a named benchmark is loaded with it, and wire outputs are
    decoded into one manager whose backend the rule picks from all of
    them together.
    """
    from repro.bdd.serialize import SerializationError

    backend = str((task.get("config") or {}).get("backend", "auto"))
    benchmark = task.get("benchmark")
    if benchmark is not None:
        key = (benchmark, backend)
        instance = _WARM["instances"].get(key)
        if instance is None:
            from repro.benchgen.registry import load_benchmark

            instance = load_benchmark(benchmark, backend)
            _WARM["instances"][key] = instance
        return instance
    outputs_payload = task.get("outputs")
    if not outputs_payload:
        raise SerializationError(
            "netsyn task needs 'benchmark' or a non-empty 'outputs' list"
        )
    from repro.engine import wire

    outputs = wire.isfs_from_payloads(outputs_payload, backend)
    return WireInstance(str(task.get("name", "")), outputs[0].mgr, outputs)


class WireInstance:
    """Benchmark-instance stand-in rebuilt from wire output payloads."""

    def __init__(self, name: str, mgr, outputs: list) -> None:
        self.name = name
        self.mgr = mgr
        self.outputs = outputs


def service_netsyn(task: dict) -> dict:
    """Fleet entry point: one shared-network synthesis on warm state.

    ``task`` carries ``benchmark`` (registry name) *or* ``outputs``
    (wire ISF payloads), an optional ``config`` dict, and an optional
    ``pool_seed`` snapshot from the server's service-lifetime pool.
    Synthesis runs serially inside the worker (``jobs=1``) — the fleet
    itself is the parallelism — and replies with the result payload plus
    the run's warm-cover snapshot for the server to merge back.
    """
    from repro.engine import wire

    try:
        faults.fire("worker.compute", entry="netsyn")
        with _obs.span("worker.compute", entry="netsyn"):
            _maybe_refresh()
            config = _netsyn_config(task.get("config") or {})
            synthesizer = _WARM["synths"].get(config)
            if synthesizer is None:
                from repro.netsyn.synthesis import NetworkSynthesizer

                synthesizer = NetworkSynthesizer(config)
                _WARM["synths"][config] = synthesizer
            instance = _task_instance(task)
            result = synthesizer.synthesize(
                instance,
                pool_seed=task.get("pool_seed"),
                collect_covers=True,
            )
            payload = wire.netsyn_result_to_payload(result)
            pool = synthesizer.last_pool
    except Exception as exc:  # noqa: BLE001 — every failure is a reply
        return _error_envelope(exc)
    _WARM["computed"] += 1
    return {
        "ok": True,
        "payload": payload,
        "pool": pool.snapshot() if pool is not None else None,
        "worker": _worker_stats(),
    }


def _batch_call(task: tuple) -> dict:
    """Entry point behind :meth:`WorkerFleet.map`: one plain call.

    No warm state: ``func`` gets the argument alone.  Its exception is
    returned on the envelope rather than raised, so that ``map`` can
    raise it in the caller with its own type.
    """
    func, arg = task
    try:
        return {"ok": True, "payload": func(arg)}
    except Exception as exc:  # noqa: BLE001 — raised again by map
        return {"ok": False, "exception": exc}


def _slot_main(conn) -> None:
    """Worker process body: serve ``(func, arg, trace_ctx)`` calls over one pipe.

    Entry points never raise (they return envelopes); anything that
    still escapes — a pickling failure, a corrupted message — becomes an
    ``ok: False`` envelope so the slot survives.  EOF (parent gone) or a
    ``None`` sentinel ends the loop.

    ``trace_ctx`` is the parent's span context (or ``None``): when a
    tracer is installed (inherited across the fork, exactly like a
    fault plan), the compute runs grafted under the parent's
    ``fleet.roundtrip`` span and the finished worker-side spans ride
    back on the reply envelope's ``trace`` key — never inside
    ``payload``, so decomposition payloads stay byte-identical.
    """
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message is None:
            break
        func, arg, trace_ctx = message
        tracer = _obs.active()
        try:
            if tracer is not None and trace_ctx is not None:
                with tracer.remote(trace_ctx):
                    reply = func(arg)
                if isinstance(reply, dict):
                    reply["trace"] = tracer.pop_trace(trace_ctx["trace_id"])
            else:
                reply = func(arg)
        except BaseException as exc:  # noqa: BLE001 — slot must survive
            reply = {
                "ok": False,
                "error": {"type": type(exc).__name__, "message": str(exc)},
                "worker": None,
            }
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


# ---------------------------------------------------------------------------
# Parent-side fleet handle
# ---------------------------------------------------------------------------


def pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, POSIX) and fall back to the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class _Slot:
    """One worker process plus the duplex pipe that addresses it.

    The pipe is the liveness oracle: a worker that dies — killed by us
    on timeout, or by anything else — closes its end, so the parent's
    next ``poll``/``recv``/``send`` observes EOF instead of hanging.
    """

    def __init__(self, index: int, ctx) -> None:
        self.index = index
        self._ctx = ctx
        self.process = None
        self.conn = None
        self.spawn()

    def spawn(self) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        self.process = self._ctx.Process(
            target=_slot_main,
            args=(child_conn,),
            name=f"repro-fleet-{self.index}",
            daemon=True,
        )
        self.process.start()
        # The parent's copy of the child end must close so the child's
        # death is observable as EOF on ``parent_conn``.
        child_conn.close()
        self.conn = parent_conn

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def call(self, func, arg: dict, timeout_s: float | None):
        """Blocking round-trip; never raises for worker-side trouble.

        Returns ``("ok", reply)``, ``("timeout", None)`` when no reply
        arrived within ``timeout_s`` of the send, or ``("dead", detail)``
        when the worker process is gone (EOF / broken pipe).
        """
        # The deadline runs from the send: time this thread spends
        # waiting for the interpreter lock before it polls (a switch
        # interval is 5 ms) must not extend it.
        if timeout_s is not None:
            deadline = time.monotonic() + timeout_s
        try:
            self.conn.send((func, arg, _obs.current_context()))
        except (BrokenPipeError, OSError):
            return ("dead", f"slot {self.index}: send failed, worker is gone")
        # Chaos window: the request is written, the reply is not read —
        # the installed plan may kill this worker or drop this pipe here.
        faults.fire("fleet.call.sent", slot=self)
        if timeout_s is not None:
            timeout_s = max(0.0, deadline - time.monotonic())
        try:
            if not self.conn.poll(timeout_s):
                return ("timeout", None)
            reply = self.conn.recv()
        except (EOFError, OSError):
            return (
                "dead",
                f"slot {self.index}: worker pid {self.pid} died mid-request",
            )
        return ("ok", reply)

    def kill(self) -> None:
        """SIGKILL the worker (the only interrupt a busy loop obeys)."""
        if self.process is not None:
            try:
                self.process.kill()
            except (OSError, AttributeError, ValueError):
                pass
            self.process.join(timeout=30)
        self._close_conn()

    def stop(self) -> None:
        """Cooperative shutdown: sentinel, short grace, then kill."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        if self.process is not None:
            self.process.join(timeout=5)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=30)
        self._close_conn()

    def _close_conn(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass


class WorkerFleet:
    """A resizable fleet of pre-warmed decomposition slot processes.

    ``prewarm=True`` (the default) identifies every slot's worker over
    its own pipe at construction, so the first real request never pays
    fork + init latency and ``stats["prewarmed"]`` counts each slot
    exactly once.

    Dispatch (:meth:`run` / :meth:`run_sync` / :meth:`map`) is
    slot-addressed: a call checks out a free slot, in arrival order,
    does the pipe round-trip on a worker thread (the asyncio loop never
    blocks), and heals the slot before releasing it — kill + respawn on
    timeout, respawn + one retry on a dead worker.  ``stats`` surfaces
    every event: ``timeouts``, ``kills``, ``restarts``, ``retries`` on
    top of the dispatch counters.

    :meth:`resize` changes capacity **without dropping a single
    in-flight request**: growth spawns and identifies new slots before
    they are admitted to the free pool (a request never lands on a
    worker that is still importing), and shrinkage *drains* — a victim
    slot takes no new work, finishes what it is running, and only then
    retires.  ``size`` is the target; :attr:`slots_live` trails it
    while drains complete.  ``stats`` gains ``resizes`` / ``grown`` /
    ``shrunk``, and :attr:`queue_depth` (dispatches waiting for a free
    slot) is the signal the server's autoscaler steers by.
    """

    def __init__(
        self, size: int | None = None, prewarm: bool = True
    ) -> None:
        if size is None:
            size = max(2, min(8, os.cpu_count() or 2))
        if size < 1:
            raise ValueError(f"fleet size must be >= 1, got {size}")
        self.size = size
        self._ctx = pool_context()
        self._slot_seq = itertools.count()
        self._slots = [
            _Slot(next(self._slot_seq), self._ctx) for _ in range(size)
        ]
        self._free: deque[_Slot] = deque(self._slots)
        self._retiring: set[_Slot] = set()
        self._slot_ready = threading.Condition()
        #: Checkout tickets in arrival order (guarded by ``_slot_ready``).
        self._tickets = itertools.count()
        self._queue: deque[int] = deque()
        self._resize_lock = threading.Lock()
        #: Dispatches currently blocked waiting for a free slot.
        self.waiting = 0
        self._threads = ThreadPoolExecutor(
            max_workers=max(size, 4), thread_name_prefix="repro-fleet-io"
        )
        self._closed = False
        self.stats = {
            "dispatched": 0,
            "failures": 0,
            "prewarmed": 0,
            "timeouts": 0,
            "kills": 0,
            "restarts": 0,
            "retries": 0,
            "resizes": 0,
            "grown": 0,
            "shrunk": 0,
        }
        if prewarm:
            self.prewarm()

    # -- dispatch ----------------------------------------------------------

    async def run(self, func, arg: dict, timeout_s: float | None = None) -> dict:
        """Dispatch one worker entry point without blocking the loop.

        Raises :class:`FleetTimeout` when the call misses ``timeout_s``
        (the slot's worker has already been killed and respawned) and
        :class:`WorkerCrashed` when the worker died and the one retry
        died too.  Either way the slot is healthy again on return.
        """
        loop = asyncio.get_running_loop()
        self.stats["dispatched"] += 1
        if _obs.active() is not None:
            # run_in_executor does not propagate contextvars (unlike
            # asyncio.to_thread), so the caller's span context must ride
            # to the dispatch thread explicitly for worker spans to nest
            # under the request's trace.
            ctx = contextvars.copy_context()
            reply = await loop.run_in_executor(
                self._threads, ctx.run, self._dispatch, func, arg, timeout_s
            )
        else:
            reply = await loop.run_in_executor(
                self._threads, self._dispatch, func, arg, timeout_s
            )
        if not reply.get("ok", False):
            self.stats["failures"] += 1
        return reply

    def run_sync(self, func, arg: dict, timeout_s: float | None = None) -> dict:
        """Blocking dispatch (CLI one-shots and tests without a loop)."""
        self.stats["dispatched"] += 1
        reply = self._dispatch(func, arg, timeout_s)
        if not reply.get("ok", False):
            self.stats["failures"] += 1
        return reply

    def map(self, func, args: list) -> list:
        """``[func(arg) for arg in args]`` on the slots, like ``Pool.map``.

        ``func`` is a plain module-level function; nothing warm is kept
        for it.  Each call takes the dispatch path of :meth:`run` on a
        dispatch thread, under a copy of the caller's span context, so
        worker spans join the caller's trace.  Results come back in the
        order of ``args``.  Once every call has finished, the first
        failed call's exception is raised here with its own type.
        """
        self.stats["dispatched"] += len(args)
        futures = [
            # One context copy per call: a context runs on one thread at a time.
            self._threads.submit(
                contextvars.copy_context().run,
                self._dispatch,
                _batch_call,
                (func, arg),
                None,
            )
            for arg in args
        ]
        wait(futures)
        replies = [future.result() for future in futures]
        failed = [reply for reply in replies if not reply["ok"]]
        self.stats["failures"] += len(failed)
        if failed:
            # Only an exception _batch_call could not catch lacks one.
            raise failed[0].get("exception") or RuntimeError(failed[0]["error"])
        return [reply["payload"] for reply in replies]

    def _dispatch(self, func, arg: dict, timeout_s: float | None) -> dict:
        """Checkout → call → heal → release, on the calling thread."""
        with _obs.span("fleet.checkout") as sp:
            slot = self._checkout()
            sp.annotate(slot=slot.index)
        try:
            faults.fire("fleet.checkout", slot=slot)
            with _obs.span("fleet.roundtrip", slot=slot.index) as sp:
                sp.annotate(pid=slot.pid)
                outcome, detail = slot.call(func, arg, timeout_s)
                if outcome == "dead":
                    # The worker died under this request (or an earlier kill
                    # raced shutdown): respawn and retry once on the fresh
                    # worker — warm state is gone but results are identical
                    # by the cold-equals-warm guarantee.
                    self._respawn(slot)
                    self.stats["retries"] += 1
                    sp.annotate(retried=True, pid=slot.pid)
                    outcome, detail = slot.call(func, arg, timeout_s)
                if outcome == "timeout":
                    sp.set_status("timeout")
                    slot.kill()
                    self.stats["kills"] += 1
                    self.stats["timeouts"] += 1
                    self._respawn(slot)
                    raise FleetTimeout(
                        f"no reply within {timeout_s}s; worker killed and"
                        f" slot {slot.index} respawned"
                    )
                if outcome == "dead":
                    self._respawn(slot)
                    raise WorkerCrashed(str(detail))
                if isinstance(detail, dict):
                    # Worker-side spans ride the reply envelope; merge
                    # them into the live trace before the caller sees it.
                    _obs.absorb(detail.pop("trace", None))
                return detail
        finally:
            self._release(slot)

    def _checkout(self) -> _Slot:
        """Take a free slot, first come first served.

        Only the oldest ticket may take a free slot, so a thread that
        arrives just after a release (a batch thread picking its next
        item) cannot overtake a dispatch that is already waiting.
        """
        with self._slot_ready:
            ticket = next(self._tickets)
            self._queue.append(ticket)
            self.waiting += 1
            try:
                while self._queue[0] != ticket or not self._free:
                    self._slot_ready.wait()
                return self._free.popleft()
            finally:
                self._queue.remove(ticket)
                self.waiting -= 1
                if self._queue and self._free:
                    # The next ticket may have woken while this one was
                    # still ahead of it, and gone back to waiting.
                    self._slot_ready.notify_all()

    def _release(self, slot: _Slot) -> None:
        """Return a slot to the pool — or retire it if it is draining.

        Retirement is why shrink never drops a request: a draining slot
        reaches here only after its in-flight call fully resolved (the
        reply is already on its way back to the caller), so stopping the
        worker now loses nothing.  The process join runs on a detached
        thread so the caller's response is not delayed by it.
        """
        with self._slot_ready:
            if slot in self._retiring:
                self._retiring.discard(slot)
                if slot in self._slots:
                    self._slots.remove(slot)
                self.stats["shrunk"] += 1
            else:
                self._free.append(slot)
                # Every waiter re-checks; only the oldest ticket proceeds.
                self._slot_ready.notify_all()
                return
        threading.Thread(
            target=slot.stop, name="repro-fleet-retire", daemon=True
        ).start()

    def _respawn(self, slot: _Slot) -> None:
        slot.spawn()
        self.stats["restarts"] += 1

    # -- resize ------------------------------------------------------------

    @property
    def slots_live(self) -> int:
        """Slots that currently own a worker (draining ones included)."""
        return len(self._slots)

    @property
    def draining(self) -> int:
        """Busy slots marked no-new-work, finishing their last request."""
        return len(self._retiring)

    def queue_depth(self) -> int:
        """Dispatches blocked waiting for a free slot (autoscale signal)."""
        return self.waiting

    def resize(self, n: int) -> dict:
        """Change fleet capacity to ``n`` without dropping a request.

        Growing admits a slot to the free pool only after its worker is
        spawned *and* identified over its own pipe (prewarm-before-
        admit); draining slots are reclaimed first — they are already
        warm, so cancelling their retirement is the cheapest grow there
        is.  Shrinking retires idle slots immediately and marks busy
        ones as draining: no new work, finish the in-flight call, then
        retire (see :meth:`_release`).  Returns a summary dict; the
        target takes effect immediately in :attr:`size` while
        :attr:`slots_live` converges as drains complete.
        """
        if n < 1:
            raise ValueError(f"fleet size must be >= 1, got {n}")
        with self._resize_lock:
            if self._closed:
                raise RuntimeError("fleet is shut down")
            grown = 0
            shrunk_now = 0
            idle_victims: list[_Slot] = []
            with self._slot_ready:
                previous = self.size
                # Grow, phase 1: cancel retirements — a draining slot is
                # warm and busy; un-marking it returns it to the pool as
                # soon as its current call releases.
                while self.size < n and self._retiring:
                    self._retiring.pop()
                    self.size += 1
                    grown += 1
                need = n - self.size
                if need < 0:
                    # Shrink: retire idle slots now, mark busy ones.
                    excess = -need
                    while excess and self._free:
                        victim = self._free.pop()
                        self._slots.remove(victim)
                        idle_victims.append(victim)
                        excess -= 1
                        shrunk_now += 1
                    if excess:
                        busy = [
                            slot
                            for slot in reversed(self._slots)
                            if slot not in self._retiring
                            and slot not in self._free
                        ]
                        for victim in busy[:excess]:
                            self._retiring.add(victim)
                    self.size = n
            if need > 0:
                # Grow, phase 2: spawn + identify outside the lock, so
                # in-flight dispatch never waits on a fork, then admit.
                fresh = [
                    _Slot(next(self._slot_seq), self._ctx)
                    for _ in range(need)
                ]
                warmed = 0
                for slot in fresh:
                    outcome, reply = slot.call(_worker_ident, {}, None)
                    if outcome == "ok" and reply.get("ok"):
                        warmed += 1
                self._threads._max_workers = max(
                    self._threads._max_workers, n
                )
                with self._slot_ready:
                    self._slots.extend(fresh)
                    self._free.extend(fresh)
                    self.size += need
                    grown += need
                    self._slot_ready.notify_all()
                self.stats["prewarmed"] += warmed
            if n != previous:
                self.stats["resizes"] += 1
            self.stats["grown"] += grown
            self.stats["shrunk"] += shrunk_now
            summary = {
                "size": self.size,
                "previous": previous,
                "grown": grown,
                "shrunk": shrunk_now,
                "draining": len(self._retiring),
                "slots_live": len(self._slots),
            }
        for victim in idle_victims:
            threading.Thread(
                target=victim.stop, name="repro-fleet-retire", daemon=True
            ).start()
        return summary

    # -- lifecycle / introspection ----------------------------------------

    def prewarm(self) -> list[int]:
        """Identify every slot's worker; returns the (distinct) pids.

        Each slot has its own process and pipe, so every worker is
        counted exactly once — there is no shared queue for one fast
        worker to drain (the ``ProcessPoolExecutor`` flake this fleet
        design retired).
        """
        futures = [
            self._threads.submit(slot.call, _worker_ident, {}, None)
            for slot in self._slots
        ]
        pids = []
        for future in futures:
            outcome, reply = future.result()
            if outcome == "ok" and reply.get("ok"):
                pids.append(reply["pid"])
        self.stats["prewarmed"] = len(set(pids))
        return sorted(pids)

    def pids(self) -> list[int]:
        """Current worker pids, one per slot (kill targets for tests)."""
        return [slot.pid for slot in self._slots if slot.pid is not None]

    def shutdown(self) -> None:
        """Terminate the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            slot.stop()
        self._threads.shutdown(wait=True)

    def __enter__(self) -> "WorkerFleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return f"WorkerFleet(size={self.size}, stats={self.stats})"


__all__ = [
    "NODE_LIMIT",
    "FleetTimeout",
    "WireInstance",
    "WorkerCrashed",
    "WorkerFleet",
    "service_decompose",
    "service_netsyn",
    "service_sleep",
]
