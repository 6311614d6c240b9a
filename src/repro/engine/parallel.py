"""Multiprocessing worker pool for batch decomposition.

Work items cross the process boundary as plain dicts: the function in
canonical :mod:`repro.bdd.serialize` form plus registry-name strategy
specs.  Each worker rebuilds the function in a fresh manager that
declares exactly the variables of the parent's shared manager — of the
backend the item names — runs a fresh
:class:`~repro.engine.decomposer.Decomposer`, and returns the result as
a :mod:`repro.engine.wire` payload.  Because every strategy is
deterministic (seeded RNGs, deterministic heuristics) and the managers
agree on the variable slice, a worker's payload is identical to what the
in-process path would produce — ``jobs=1`` and ``jobs=N`` runs yield the
same covers and metrics, in the same input order.

The bootstrap is split so long-lived workers (the service fleet of
:mod:`repro.service`) can reuse it with *warm* state:
:func:`build_engine` constructs the engine an item asks for, and
:func:`decompose_item` accepts an existing manager/engine pair — a
pre-warmed worker skips manager construction and keeps the engine's
divisor/cover memos across requests.  :class:`WorkerPool` keeps one
``multiprocessing`` pool alive across :func:`run_parallel` calls, so
repeated batches stop paying fork + import warmup every time.

Worker exceptions (e.g. :class:`~repro.engine.decomposer.VerificationError`)
propagate to the parent and fail the batch, matching the serial path.
"""

from __future__ import annotations

import multiprocessing


def make_work_item(
    name: str,
    f_payload: dict,
    op: str,
    approximator: str,
    minimizer: str,
    verify: bool,
    operators: tuple[str, ...],
    backend: str = "auto",
    reorder_threshold: int | None = None,
) -> dict:
    """Bundle one request as a picklable work item.

    ``operators`` is the parent engine's search space (canonical names),
    forwarded so a worker's ``op="auto"`` ranks the same candidate set.
    ``backend`` is what the worker decodes ``f_payload`` into
    (:func:`repro.engine.wire.isf_from_payload`): ``"bdd"`` or
    ``"bitset"`` to keep the parent's choice, ``"auto"`` to let the
    payload's support pick — the service's ``backend`` request param.
    It never changes the result, only how fast it is computed.
    ``reorder_threshold`` forwards the parent's reorder policy so warm
    workers (the service fleet) bound their managers the same way; it
    never affects results, only worker memory.
    """
    return {
        "name": name,
        "f": f_payload,
        "op": op,
        "approximator": approximator,
        "minimizer": minimizer,
        "verify": verify,
        "operators": list(operators),
        "backend": backend,
        "reorder_threshold": reorder_threshold,
    }


def engine_spec_key(item: dict) -> tuple:
    """Hashable identity of the engine a work item needs.

    Two items with the same key can share one warm
    :class:`~repro.engine.decomposer.Decomposer` (and its memos) without
    changing either result.
    """
    return (
        item["approximator"],
        item["minimizer"],
        tuple(item["operators"]),
        bool(item["verify"]),
        item.get("reorder_threshold"),
    )


def build_engine(item: dict):
    """Construct the engine one work item asks for (the bootstrap)."""
    from repro.engine.decomposer import Decomposer

    return Decomposer(
        approximator=item["approximator"],
        minimizer=item["minimizer"],
        operators=item["operators"],
        verify=item["verify"],
        reorder_threshold=item.get("reorder_threshold"),
    )


def decompose_item(item: dict, mgr=None, engine=None) -> dict:
    """Run one work item and return its wire payload.

    ``mgr`` rebuilds the function into an existing (warm) manager
    instead of a fresh one of the item's ``backend`` — it must declare
    the item's variables in the same relative order; ``engine`` reuses
    an existing engine whose configuration matches
    :func:`engine_spec_key` of the item.  Both
    default to fresh construction (the one-shot pool path).  Warm or
    cold, the payload is identical: strategies are deterministic and
    memo hits return exactly what recomputation would.
    """
    from repro.engine import wire

    f = wire.isf_from_payload(item["f"], mgr, item.get("backend", "auto"))
    if engine is None:
        engine = build_engine(item)
    result = engine.decompose(f, item["op"], name=item["name"])
    return wire.result_to_payload(result)


def decompose_work_item(item: dict) -> dict:
    """Worker entry point: one item, fresh manager and engine."""
    return decompose_item(item)


def pool_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap, POSIX) and fall back to the platform default."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else None)


class WorkerPool:
    """A persistent ``multiprocessing`` pool for repeated batches.

    ``run_parallel`` (and therefore
    :meth:`~repro.engine.decomposer.Decomposer.decompose_many`) creates
    and tears down a pool per call; callers that dispatch many batches —
    benchmark sweeps, the service layer — pass one of these instead and
    pay fork + import warmup once.  The underlying pool is created
    lazily on first use and survives until :meth:`close` (or context
    exit).  Results are unchanged either way: the pool only affects
    where work runs, never what it computes.
    """

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self._pool = None
        #: Batches dispatched through this pool (reuse observability).
        self.batches = 0

    def map(self, func, items: list) -> list:
        """Ordered map over the persistent pool (created on first use)."""
        if self._pool is None:
            self._pool = pool_context().Pool(processes=self.jobs)
        self.batches += 1
        return self._pool.map(func, items, chunksize=1)

    def close(self) -> None:
        """Terminate the worker processes (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "idle"
        return f"WorkerPool(jobs={self.jobs}, {state}, batches={self.batches})"


def run_parallel(
    items: list[dict], jobs: int, pool: WorkerPool | None = None
) -> list[dict]:
    """Execute work items on a pool of ``jobs`` workers.

    ``Pool.map`` returns results in submission order regardless of
    worker scheduling, so reassembly is deterministic by construction.
    With ``pool`` given, the batch runs on that persistent pool (its
    ``jobs`` count applies) instead of a fresh fork-per-call pool.
    """
    if not items:
        return []
    if pool is not None:
        return pool.map(decompose_work_item, items)
    jobs = min(jobs, len(items))
    with pool_context().Pool(processes=jobs) as mp_pool:
        return mp_pool.map(decompose_work_item, items, chunksize=1)


__all__ = [
    "WorkerPool",
    "build_engine",
    "decompose_item",
    "decompose_work_item",
    "engine_spec_key",
    "make_work_item",
    "pool_context",
    "run_parallel",
]
