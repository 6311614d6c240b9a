"""Deterministic fault injection for the serving stack.

The service's failure handling — worker kill + respawn, pipe-EOF
self-healing, coalesced-flight error sharing, crash-safe cache writes —
was pinned by hand-scripted kills in the tests and the benchmark.  That
covers the faults someone thought to script, at the moments they thought
to script them.  A :class:`FaultPlan` turns the failure space into a
*seeded, replayable schedule*: named **sites** in the serving stack call
:func:`fire` as they pass, and the installed plan decides — purely from
its seed and per-site hit counters — whether that particular passage
dies, hangs, or errors.  Replaying the same plan replays the same
faults at the same points, so a chaos failure reproduces from nothing
but its seed.

Sites (the stable names the stack exposes; grep for ``faults.fire``):

========================== ==================================================
``fleet.call.sent``         parent side, request written, reply not yet read
                            (``slot`` in context — kill / drop targets)
``fleet.checkout``          a dispatch acquired a slot
``worker.compute``          worker side, inside an entry point, before work
``coalesce.flight``         a new flight task is being created (leader path)
``server.compute.start``    flight body entered, before the cache lookup
``server.compute.computed`` fleet replied ok, before the cache write
``cache.put.serialized``    entry text built, nothing on disk yet
``cache.put.entry_written`` entry temp written + fsynced, not yet renamed
``cache.put.renamed``       entry renamed into place: the put is durable
========================== ==================================================

In the service the ``cache.put.*`` sites fire on the cache-writer
thread, after the request was answered: a ``sleep`` there holds the
write, not the reply, and an ``error`` fails no request (the service
counts it in ``status()["cache"]["put_failures"]`` and the key's next
request recomputes).

Actions:

* ``kill-worker`` — SIGKILL the slot's worker process (needs ``slot``
  in context; a no-op elsewhere).  Exercises the pipe-EOF retry path.
* ``drop-pipe`` — close the parent's pipe end (needs ``slot``).  The
  in-flight reply is lost; the fleet must respawn and retry.
* ``sleep`` — block for ``param`` seconds where fired.  At
  ``worker.compute`` this is a genuinely slow worker: the parent's
  deadline machinery must kill and respawn it.
* ``error`` — raise :class:`InjectedFault`.  Surfaces as a typed error
  envelope; used to fail coalesced flights at chosen yield points.
* ``crash`` — SIGKILL the *current* process.  Only meaningful in a
  sacrificial child process (the cache crash-safety tests); guarded by
  :func:`FaultPlan.arm_crashes` so an accidentally installed plan can
  never kill a test runner or server.

The hook is zero-cost when off: :func:`fire` reads one module global
and returns.  Plans install process-wide (:func:`install`), so a fleet
forked *after* install carries the plan into its workers — that is how
``worker.compute`` events reach the other side of the pipe.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field

#: Sites a generated plan may target (hand-built plans can name others).
KNOWN_SITES = (
    "fleet.call.sent",
    "fleet.checkout",
    "worker.compute",
    "coalesce.flight",
    "server.compute.start",
    "server.compute.computed",
    "cache.put.serialized",
    "cache.put.entry_written",
    "cache.put.renamed",
)

#: Actions :meth:`FaultPlan.generate` draws from (no ``crash`` — killing
#: the current process is opt-in via an explicit event + arm_crashes).
GENERATED_ACTIONS = ("kill-worker", "sleep", "error", "drop-pipe")


class InjectedFault(Exception):
    """A fault deliberately raised by the installed :class:`FaultPlan`."""


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: at the ``hit``-th arrival at ``site``, act.

    ``hit`` counts arrivals at that site (0-based) in the process where
    the counter lives; ``param`` parameterizes the action (sleep
    seconds).  Events are one-shot: each fires at most once per plan
    installation.
    """

    site: str
    hit: int
    action: str
    param: float = 0.0


class FaultPlan:
    """A deterministic, thread-safe schedule of injected faults.

    Counters are per-site and per-process: a plan inherited over fork
    counts the worker's own arrivals, so ``worker.compute`` events are
    deterministic per worker regardless of parent traffic.
    """

    def __init__(self, events: tuple[FaultEvent, ...] = (), seed: int | None = None) -> None:
        self.events = tuple(events)
        self.seed = seed
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: set[int] = set()
        self._crashes_armed = False
        #: Every fault actually delivered, for assertions and reports.
        self.log: list[tuple[str, int, str]] = []

    @classmethod
    def generate(
        cls,
        seed: int,
        sites: tuple[str, ...] = KNOWN_SITES,
        n_events: int = 4,
        max_hit: int = 6,
        sleep_s: float = 0.05,
    ) -> "FaultPlan":
        """A seeded random schedule — same seed, same schedule, always.

        Only sensible (site, action) pairs are drawn: slot-targeting
        actions go to fleet sites, sleeps to the worker, errors to the
        flight/serve sites.  ``crash`` is never generated (see module
        docstring).
        """
        rng = random.Random(f"repro-fault-plan:{seed}")
        pairs = []
        for site in sites:
            if site in ("fleet.call.sent",):
                pairs += [(site, "kill-worker"), (site, "drop-pipe")]
            if site == "worker.compute":
                pairs += [(site, "sleep"), (site, "error")]
            if site in ("coalesce.flight", "server.compute.start", "server.compute.computed"):
                pairs += [(site, "error")]
        if not pairs:
            raise ValueError(f"no injectable (site, action) pairs in {sites}")
        events = []
        for _ in range(n_events):
            site, action = rng.choice(pairs)
            events.append(
                FaultEvent(
                    site=site,
                    hit=rng.randrange(max_hit),
                    action=action,
                    param=sleep_s if action == "sleep" else 0.0,
                )
            )
        return cls(tuple(events), seed=seed)

    def arm_crashes(self) -> "FaultPlan":
        """Allow ``crash`` events to SIGKILL this process (sacrificial
        children only — never arm in a process you want back)."""
        self._crashes_armed = True
        return self

    def fire(self, site: str, **context) -> None:
        """Deliver any event scheduled for this arrival at ``site``."""
        with self._lock:
            hit = self._hits.get(site, 0)
            self._hits[site] = hit + 1
            due = [
                (index, event)
                for index, event in enumerate(self.events)
                if event.site == site
                and event.hit == hit
                and index not in self._fired
            ]
            for index, _ in due:
                self._fired.add(index)
            for index, event in due:
                self.log.append((site, hit, event.action))
        for _, event in due:
            self._act(event, context)

    def _act(self, event: FaultEvent, context: dict) -> None:
        if event.action == "sleep":
            time.sleep(event.param)
        elif event.action == "error":
            raise InjectedFault(
                f"injected fault at {event.site} (hit {event.hit})"
            )
        elif event.action == "kill-worker":
            slot = context.get("slot")
            if slot is not None and slot.process is not None:
                try:
                    slot.process.kill()
                except (OSError, AttributeError, ValueError):
                    pass
        elif event.action == "drop-pipe":
            slot = context.get("slot")
            if slot is not None and slot.conn is not None:
                try:
                    slot.conn.close()
                except OSError:
                    pass
        elif event.action == "crash":
            if self._crashes_armed:
                os.kill(os.getpid(), signal.SIGKILL)
        else:
            raise ValueError(f"unknown fault action {event.action!r}")

    def fired(self) -> int:
        """How many scheduled events have been delivered so far."""
        with self._lock:
            return len(self._fired)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, events={len(self.events)},"
            f" fired={self.fired()})"
        )


#: The process-wide installed plan (None = injection off everywhere).
_PLAN: FaultPlan | None = None


def install(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide; returns the previous plan.

    Install *before* constructing a fleet so forked workers inherit it
    (their ``worker.compute`` counters start at zero).
    """
    global _PLAN
    previous = _PLAN
    _PLAN = plan
    return previous


def uninstall() -> None:
    """Remove any installed plan (idempotent)."""
    install(None)


def active() -> FaultPlan | None:
    """The currently installed plan, if any."""
    return _PLAN


def fire(site: str, **context) -> None:
    """Injection hook: a no-op unless a plan is installed."""
    plan = _PLAN
    if plan is not None:
        plan.fire(site, **context)


class installed:
    """Context manager: install a plan, restore the previous on exit.

    The chaos tests' idiom::

        with faults.installed(FaultPlan.generate(seed=1)):
            ... drive the service ...
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan:
        self._previous = install(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        install(self._previous)


__all__ = [
    "GENERATED_ACTIONS",
    "KNOWN_SITES",
    "FaultEvent",
    "FaultPlan",
    "InjectedFault",
    "active",
    "fire",
    "install",
    "installed",
    "uninstall",
]
