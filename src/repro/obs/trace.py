"""Contextvar-scoped span tracing with fork/pipe-crossing support.

One :class:`Tracer` is installed process-wide (:func:`install`), exactly
like :func:`repro.service.faults.install`: forked fleet workers inherit
it, and when none is installed every instrumented site degrades to a
shared no-op singleton whose entire cost is a module-global read.

Spans form trees: the first span opened in a context starts a new
trace; nested spans (same task, thread, or ``contextvars`` copy) become
children.  Timing uses :data:`CLOCK` (``time.perf_counter`` —
``CLOCK_MONOTONIC``, shared by parent and forked children on Linux);
finished spans are serialized immediately to plain JSON-safe dicts with
epoch timestamps via the tracer's ``(epoch, clock)`` anchor, so worker
and server spans align on one host timeline.

Crossing process boundaries:

* the parent captures :func:`current_context` — a small
  ``{"trace_id", "span_id"}`` dict — and ships it over the fleet pipe;
* the worker wraps its compute in :meth:`Tracer.remote`, which grafts
  new spans under the shipped parent, then returns
  :meth:`Tracer.pop_trace` payloads on the reply envelope;
* the server calls :func:`absorb` to merge them back into the live
  trace before the request's root span closes.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextvars import ContextVar
from typing import Any, Callable, Iterable

#: The span clock.  ``time.perf_counter`` is CLOCK_MONOTONIC on Linux:
#: system-wide, unaffected by clock steps, and valid across ``fork()``
#: — which is what lets worker spans share the server's timeline.
CLOCK: Callable[[], float] = time.perf_counter

#: Span statuses a site may report.
STATUSES = ("ok", "error", "timeout")

#: Every named site instrumented across the stack (mirrors and extends
#: the ``repro.service.faults.KNOWN_SITES`` failure sites); ``cache.put``
#: covers the whole durable write, ``fsync`` included, and in the
#: service runs under a ``cache.write`` root on the cache-writer thread,
#: after the reply.  Purely documentation — :func:`span` accepts any
#: name so new sites never need a registry edit.
SPAN_SITES = (
    "server.request",
    "server.admission",
    "coalesce.leader",
    "coalesce.follower",
    "cache.get",
    "cache.write",
    "cache.put",
    "fleet.checkout",
    "fleet.roundtrip",
    "worker.compute",
    "engine.dispatch",
    "engine.approximate",
    "engine.quotient",
    "engine.minimize",
    "engine.verify",
    "bdd.reorder",
    "netsyn.synthesize",
    "netsyn.cover",
)

_CURRENT: ContextVar[Any] = ContextVar("repro_obs_current_span", default=None)


class _NullSpan:
    """Shared do-nothing span returned when no tracer is installed."""

    __slots__ = ()

    trace_id = None
    span_id = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **attrs: object) -> None:
        pass

    def set_status(self, status: str) -> None:
        pass


_NULL = _NullSpan()


class _RemoteParent:
    """Stand-in parent for spans grafted under a shipped context."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str) -> None:
        self.trace_id = trace_id
        self.span_id = span_id


class _ActiveSpan:
    """A live span; also the context manager returned by :func:`span`."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "site",
        "attrs",
        "status",
        "_start",
        "_tracer",
        "_token",
    )

    def __init__(self, tracer: "Tracer", site: str, attrs: dict) -> None:
        parent = _CURRENT.get()
        if parent is None:
            self.trace_id = tracer._new_id("t")
            self.parent_id = None
        else:
            self.trace_id = parent.trace_id
            self.parent_id = parent.span_id
        self.span_id = tracer._new_id("s")
        self.site = site
        self.attrs = attrs
        self.status: str | None = None
        self._tracer = tracer
        self._start = CLOCK()
        self._token = _CURRENT.set(self)

    def __enter__(self) -> "_ActiveSpan":
        return self

    def annotate(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    def set_status(self, status: str) -> None:
        self.status = status

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        end = CLOCK()
        _CURRENT.reset(self._token)
        if self.status is None:
            self.status = "error" if exc_type is not None else "ok"
        self._tracer._finish(self, end)
        return False


class Tracer:
    """Process-wide span collector with a bounded per-trace buffer.

    Finished spans are serialized to plain dicts immediately and grouped
    by ``trace_id`` until someone (the service's request wrapper, or a
    worker's reply path) pops the whole trace.  Traces that are never
    popped — orphan spans from detached flight tasks, in-process engine
    use — are evicted oldest-first once ``capacity`` traces are
    buffered, so an installed-but-unharvested tracer cannot grow without
    bound.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self.capacity = max(1, int(capacity))
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self._by_trace: dict[str, list[dict]] = {}
        self.spans_finished = 0
        self.traces_dropped = 0
        # Epoch anchor: perf_counter deltas are rebased onto time.time()
        # at construction, so serialized spans carry epoch seconds that
        # agree between the server and its forked workers.
        self.anchor_epoch = time.time()
        self.anchor_clock = CLOCK()

    # -- span lifecycle -------------------------------------------------

    def span(self, site: str, **attrs: object) -> _ActiveSpan:
        return _ActiveSpan(self, site, attrs)

    def _new_id(self, prefix: str) -> str:
        return f"{prefix}{os.getpid():x}-{next(self._seq):x}"

    def to_epoch(self, clock_t: float) -> float:
        return self.anchor_epoch + (clock_t - self.anchor_clock)

    def _finish(self, span: _ActiveSpan, end: float) -> None:
        payload = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "site": span.site,
            "t0": self.to_epoch(span._start),
            "t1": self.to_epoch(end),
            "status": span.status,
            "pid": os.getpid(),
            "attrs": span.attrs,
        }
        with self._lock:
            self.spans_finished += 1
            bucket = self._by_trace.get(span.trace_id)
            if bucket is None:
                while len(self._by_trace) >= self.capacity:
                    oldest = next(iter(self._by_trace))
                    del self._by_trace[oldest]
                    self.traces_dropped += 1
                bucket = self._by_trace[span.trace_id] = []
            bucket.append(payload)

    # -- harvesting -----------------------------------------------------

    def pop_trace(self, trace_id: str) -> list[dict]:
        """Remove and return every finished span of ``trace_id``."""
        with self._lock:
            return self._by_trace.pop(trace_id, [])

    def absorb(self, spans: Iterable[dict]) -> None:
        """Merge spans serialized by another process into the buffer."""
        with self._lock:
            for payload in spans:
                trace_id = payload.get("trace_id")
                if not isinstance(trace_id, str):
                    continue
                self.spans_finished += 1
                self._by_trace.setdefault(trace_id, []).append(payload)

    def remote(self, ctx: dict) -> "_RemoteScope":
        """Graft spans opened inside the scope under a shipped parent.

        ``ctx`` is the dict produced by :func:`current_context` on the
        other side of a pipe.  Used by fleet workers so their
        ``worker.compute`` / engine spans become children of the
        server's ``fleet.roundtrip`` span.
        """
        return _RemoteScope(ctx)

    # -- bookkeeping ----------------------------------------------------

    def stats(self) -> dict:
        with self._lock:
            return {
                "spans_finished": self.spans_finished,
                "traces_buffered": len(self._by_trace),
                "traces_dropped": self.traces_dropped,
            }

    def _after_fork(self) -> None:
        # Locks and buffered spans belong to the parent; a freshly
        # forked worker starts clean (its contextvar slate is wiped too
        # so prewarm-time spans don't attach to a stale parent trace).
        self._lock = threading.Lock()
        self._by_trace = {}
        self.spans_finished = 0
        self.traces_dropped = 0
        _CURRENT.set(None)


class _RemoteScope:
    __slots__ = ("_ctx", "_token")

    def __init__(self, ctx: dict) -> None:
        self._ctx = ctx
        self._token = None

    def __enter__(self) -> "_RemoteScope":
        parent = _RemoteParent(str(self._ctx["trace_id"]), str(self._ctx["span_id"]))
        self._token = _CURRENT.set(parent)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        if self._token is not None:
            _CURRENT.reset(self._token)
            self._token = None
        return False


# -- process-wide installation (mirrors repro.service.faults) -----------

_TRACER: Tracer | None = None


def install(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (or a fresh one) process-wide and return it."""
    global _TRACER
    _TRACER = tracer if tracer is not None else Tracer()
    return _TRACER


def uninstall() -> None:
    """Remove the installed tracer; every site reverts to a no-op."""
    global _TRACER
    _TRACER = None


def active() -> Tracer | None:
    """Return the installed tracer, or ``None``."""
    return _TRACER


class installed:
    """Context manager: install a tracer, uninstall on exit.

    ::

        with obs.installed(Tracer()) as tracer:
            ...  # every span site records into `tracer`
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()

    def __enter__(self) -> Tracer:
        install(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info: object) -> bool:
        uninstall()
        return False


def span(site: str, **attrs: object):
    """Open a span at ``site`` (the no-op singleton when tracing is off)."""
    tracer = _TRACER
    if tracer is None:
        return _NULL
    return tracer.span(site, **attrs)


def current_context() -> dict | None:
    """The ``{"trace_id", "span_id"}`` of the current span, for shipping."""
    if _TRACER is None:
        return None
    current = _CURRENT.get()
    if current is None:
        return None
    return {"trace_id": current.trace_id, "span_id": current.span_id}


def current_trace_id() -> str | None:
    current = _CURRENT.get()
    return None if current is None else current.trace_id


def absorb(spans: Iterable[dict] | None) -> None:
    """Merge remotely-serialized spans into the installed tracer."""
    if spans and _TRACER is not None:
        _TRACER.absorb(spans)


def _reset_after_fork() -> None:
    if _TRACER is not None:
        _TRACER._after_fork()


os.register_at_fork(after_in_child=_reset_after_fork)
