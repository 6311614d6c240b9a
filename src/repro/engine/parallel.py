"""Batch work items and their dispatch to worker processes.

Work items cross the process boundary as plain dicts: the function in
canonical :mod:`repro.bdd.serialize` form plus registry-name strategy
specs.  Each batch item runs *cold*: the worker rebuilds the function in
a fresh manager that declares exactly the variables of the parent's
shared manager — of the backend the item names — runs a fresh
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
divisor/cover memos across requests.

Batches run on the one process pool of the program,
:class:`repro.service.fleet.WorkerFleet` (:func:`run_parallel`).  A
worker's exception (e.g.
:class:`~repro.engine.decomposer.VerificationError`) is raised in the
parent with its own type and fails the batch, matching the serial path.
"""

from __future__ import annotations


def make_work_item(
    name: str,
    f_payload: dict,
    op: str,
    approximator: str,
    minimizer: str,
    verify: bool,
    operators: tuple[str, ...],
    backend: str = "auto",
) -> dict:
    """Bundle one request as a picklable work item.

    ``operators`` is the parent engine's search space (canonical names),
    forwarded so a worker's ``op="auto"`` ranks the same candidate set.
    ``backend`` is what the worker decodes ``f_payload`` into
    (:func:`repro.engine.wire.isf_from_payload`): ``"bdd"`` or
    ``"bitset"`` to keep the parent's choice, ``"auto"`` to let the
    payload's support pick — the service's ``backend`` request param.
    It never changes the result, only how fast it is computed.
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
    )


def build_engine(item: dict):
    """Construct the engine one work item asks for (the bootstrap)."""
    from repro.engine.decomposer import Decomposer

    return Decomposer(
        approximator=item["approximator"],
        minimizer=item["minimizer"],
        operators=item["operators"],
        verify=item["verify"],
    )


def decompose_item(item: dict, mgr=None, engine=None) -> dict:
    """Run one work item and return its wire payload.

    ``mgr`` rebuilds the function into an existing (warm) manager
    instead of a fresh one of the item's ``backend`` — it must declare
    the item's variables in the same relative order; ``engine`` reuses
    an existing engine whose configuration matches
    :func:`engine_spec_key` of the item.  Both default to fresh
    construction: the cold entry point that batch items run through.
    Warm or cold, the payload is identical: strategies are deterministic
    and memo hits return exactly what recomputation would.
    """
    from repro.engine import wire

    f = wire.isf_from_payload(item["f"], mgr, item.get("backend", "auto"))
    if engine is None:
        engine = build_engine(item)
    result = engine.decompose(f, item["op"], name=item["name"])
    return wire.result_to_payload(result)


def run_parallel(items: list[dict], jobs: int, pool=None) -> list[dict]:
    """Run work items cold on worker processes; payloads in item order.

    ``pool`` is a live :class:`~repro.service.fleet.WorkerFleet` to run
    the batch on (its size applies, and it stays up afterwards).
    Without one, the batch runs on a fleet of ``min(jobs, len(items))``
    slots that is shut down before this returns.
    """
    if not items:
        return []
    if pool is not None:
        return pool.map(decompose_item, items)
    from repro.service.fleet import WorkerFleet

    with WorkerFleet(min(jobs, len(items)), prewarm=False) as fleet:
        return fleet.map(decompose_item, items)


__all__ = [
    "build_engine",
    "decompose_item",
    "engine_spec_key",
    "make_work_item",
    "run_parallel",
]
