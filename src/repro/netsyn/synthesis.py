"""Shared-network synthesis of multi-output benchmarks.

:class:`NetworkSynthesizer` turns a multi-output
:class:`~repro.benchgen.registry.BenchmarkInstance` into one strashed
:class:`~repro.techmap.network.LogicNetwork` in two steps per output,
taken in support-overlap order
(:func:`~repro.netsyn.scheduler.schedule_by_overlap`):

1. **plan** — the output's block tree is derived without the divisor
   pool: the tree holds the output's minimized cover, and every block
   whose cover is above ``literal_threshold`` (and below ``max_depth``)
   holds its ``op="auto"`` bi-decomposition through the strategy engine
   (:class:`~repro.engine.Decomposer`) plus the trees of its divisor
   ``g`` and residual quotient ``h``; a block whose auto search fails,
   or whose decomposition does not strictly reduce the literal cost,
   keeps its cover instead;
2. **merge** — the tree is walked through the
   :class:`~repro.netsyn.pool.DivisorPool`: a pooled block (either
   polarity, or any pooled completion of an incompletely specified
   block) is reused and its subtree skipped; the others are
   instantiated into the shared network, where structural hashing
   materializes identical gates once.

A plan depends only on the output, never on the pool, so planning can
run anywhere: ``jobs=1`` plans in process and merges each output as
soon as it is planned; ``jobs > 1`` plans every output on that many
worker processes of the batch fleet (:class:`~repro.service.fleet.WorkerFleet`,
one cold task per output) and the parent only merges.  The merge makes
the same pool lookups, registrations and checks in the same order
either way, so the synthesized network is byte-identical for every
``jobs`` value.  A :class:`~repro.engine.cache.ResultCache` directory
persists finished networks keyed by the benchmark's canonical output
fingerprints and the synthesis configuration; keys are backend-free, so
a cache warmed under one backend serves the other.  Synthesis computes
in the instance's own manager, whose backend was chosen when the
instance was loaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.boolfunc.isf import ISF
from repro.core.operators import EXPERIMENT_OPERATORS, operator_by_name
from repro.engine.cache import ResultCache, as_result_cache
from repro.engine.decomposer import (
    AutoSearchError,
    Decomposer,
    VerificationError,
)
from repro.engine.request import DecomposeRequest, DecomposeResult
from repro.engine.registry import MINIMIZERS
from repro.netsyn.pool import DivisorPool
from repro.obs.trace import span as _obs_span
from repro.netsyn.scheduler import schedule_by_overlap
from repro.techmap.area import map_network
from repro.techmap.genlib import GateLibrary
from repro.techmap.network import LogicNetwork


@dataclass(frozen=True)
class NetsynConfig:
    """Synthesis policy: strategies, recursion bounds, pool behaviour.

    Strategies must be registry names (the cache and the worker pool
    ship them by name); ``operators`` bounds the per-block auto search —
    the default is the paper's experimental pair, which keeps suite runs
    comparable with the per-output harness.  The function representation
    is not part of the policy: it is chosen when the instance is loaded
    (:func:`~repro.benchgen.registry.load_benchmark`), and networks are
    identical whichever representation computes them.
    """

    operators: tuple[str, ...] = EXPERIMENT_OPERATORS
    approximator: str = "expand-full"
    minimizer: str = "spp"
    #: Blocks at or below this 2-SPP/SOP literal cost are instantiated
    #: directly; larger blocks are bi-decomposed recursively.
    literal_threshold: int = 10
    #: Maximum bi-decomposition nesting depth per output.
    max_depth: int = 2
    #: Allow incompletely specified blocks to match pooled completions.
    match_intervals: bool = True
    #: Check every realized block against its interval (cheap; on by
    #: default — a shared network that silently diverges is worthless).
    verify: bool = True

    def key_payload(self) -> dict:
        """Identity-relevant fields for cache keys."""
        return {
            "operators": list(self.operators),
            "approximator": self.approximator,
            "minimizer": self.minimizer,
            "literal_threshold": self.literal_threshold,
            "max_depth": self.max_depth,
            "match_intervals": self.match_intervals,
            "verify": self.verify,
        }


@dataclass
class NetworkSynthesisResult:
    """A synthesized shared network plus its accounting.

    ``isolated_area``/``isolated_gate_count`` re-map every output's cone
    as its own network — the per-output sum the old harness flow
    reports — so ``shared_area <= isolated_area`` quantifies what
    cross-output sharing bought.
    """

    name: str
    network: LogicNetwork
    output_names: list[str]
    per_output: list[dict]
    pool_stats: dict
    shared_area: float
    isolated_area: float
    shared_gate_count: int
    isolated_gate_count: int
    time_s: float
    engine_stats: dict | None = None
    cached: bool = False

    @property
    def saving_pct(self) -> float:
        """Area saved by sharing, in percent of the isolated sum."""
        if not self.isolated_area:
            return 0.0
        return 100.0 * (self.isolated_area - self.shared_area) / self.isolated_area

    @property
    def pool_hit_rate(self) -> float:
        """Pool lookups served from previously realized blocks."""
        lookups = self.pool_stats.get("lookups", 0) + self.pool_stats.get(
            "interval_lookups", 0
        )
        hits = self.pool_stats.get("hits", 0) + self.pool_stats.get(
            "interval_hits", 0
        )
        return hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-ready metrics (the CLI ``--json`` payload; no network)."""
        return {
            "name": self.name,
            "outputs": len(self.output_names),
            "shared_area": self.shared_area,
            "isolated_area": self.isolated_area,
            "saving_pct": round(self.saving_pct, 4),
            "shared_gate_count": self.shared_gate_count,
            "isolated_gate_count": self.isolated_gate_count,
            "pool_stats": dict(self.pool_stats),
            "pool_hit_rate": round(self.pool_hit_rate, 4),
            "per_output": list(self.per_output),
            "time_s": round(self.time_s, 6),
            "cached": self.cached,
        }


@dataclass
class BlockPlan:
    """One block of an output's tree, planned without the divisor pool.

    ``cover`` is the block's minimized cover.  Where the block is
    bi-decomposed, ``result`` is its ``op="auto"`` result and ``g`` /
    ``h`` are the plans of its divisor and residual quotient, whose
    covers are the decomposition's; elsewhere all three are ``None``.
    """

    isf: ISF
    cover: object
    result: DecomposeResult | None = None
    g: "BlockPlan | None" = None
    h: "BlockPlan | None" = None


class NetworkSynthesizer:
    """Drives shared-network synthesis over one benchmark instance."""

    def __init__(
        self,
        config: NetsynConfig | None = None,
        engine: Decomposer | None = None,
        library: GateLibrary | None = None,
    ) -> None:
        self.config = config or NetsynConfig()
        self.library = library
        self.engine = engine or Decomposer(
            approximator=self.config.approximator,
            minimizer=self.config.minimizer,
            operators=self.config.operators,
        )
        self._minimizer = MINIMIZERS.resolve(self.config.minimizer)
        if self._minimizer.name.partition(":")[0] == "none":
            raise ValueError(
                "network synthesis needs a cover-producing minimizer;"
                " 'none' cannot instantiate blocks"
            )
        #: The pool of the most recent :meth:`synthesize` run (``None``
        #: after a cache-served run) — the service snapshots it to carry
        #: warm covers into later requests.
        self.last_pool: DivisorPool | None = None

    # -- public API -------------------------------------------------------

    def synthesize(
        self,
        instance,
        jobs: int = 1,
        cache: "ResultCache | str | None" = None,
        pool_seed: dict | None = None,
        collect_covers: bool = False,
    ) -> NetworkSynthesisResult:
        """Synthesize one shared network for a benchmark instance.

        ``jobs > 1`` plans the outputs' block trees on that many worker
        processes (see the module docstring); the network is the same
        for every ``jobs``.  ``pool_seed`` — a
        :meth:`~repro.netsyn.pool.DivisorPool.snapshot` from an earlier
        run — pre-warms this run's pool with remembered minimized output
        covers; ``collect_covers`` records this run's output covers so
        :attr:`last_pool` can be snapshotted afterwards.  Both are pure
        work-savers: the minimizer is deterministic, so a warm replay
        instantiates exactly the cover a cold run would compute and the
        synthesized network is identical either way.
        """
        with _obs_span("netsyn.synthesize", name=getattr(instance, "name", "")) as sp:
            result = self._synthesize(instance, jobs, cache, pool_seed, collect_covers)
            sp.annotate(
                cached=bool(getattr(result, "cached", False)),
                outputs=len(result.output_names),
            )
        return result

    def _synthesize(
        self,
        instance,
        jobs: int,
        cache: "ResultCache | str | None",
        pool_seed: dict | None,
        collect_covers: bool,
    ) -> NetworkSynthesisResult:
        from repro.engine import wire

        config = self.config
        self.last_pool = None
        result_cache = as_result_cache(cache) if self.library is None else None
        key = None
        if result_cache is not None:
            fingerprints = [
                wire.isf_fingerprint(isf) for isf in instance.outputs
            ]
            key = ResultCache.netsyn_key_for(fingerprints, config.key_payload())
            cached = result_cache.get(key, wire.netsyn_result_from_payload)
            if cached is not None:
                cached.cached = True
                return cached

        t0 = perf_counter()
        network = LogicNetwork(list(instance.mgr.var_names))
        pool = DivisorPool(
            config.match_intervals,
            collect_covers=collect_covers or pool_seed is not None,
        )
        pool.merge(pool_seed)
        self.last_pool = pool
        order = schedule_by_overlap(instance.outputs)

        records: dict[int, dict] = {}
        plans = (
            self._plan_on_fleet(instance, order, jobs, pool)
            if jobs > 1 and order
            else self._plan_in_process(instance.outputs, order, pool)
        )
        for index, plan in zip(order, plans):
            name = f"o{index}"
            node, _function, source, op_name = self._merge(
                plan, network, pool, name
            )
            network.set_output(name, node)
            records[index] = {"name": name, "source": source, "op": op_name}
        output_names = [f"o{index}" for index in range(len(instance.outputs))]
        per_output = [records[index] for index in range(len(instance.outputs))]

        shared = map_network(network, self.library)
        isolated_area = 0.0
        isolated_gates = 0
        for name in output_names:
            cone = network.extract_cone(name)
            isolated_area += map_network(cone, self.library).area
            isolated_gates += cone.gate_count()

        result = NetworkSynthesisResult(
            name=getattr(instance, "name", ""),
            network=network,
            output_names=output_names,
            per_output=per_output,
            pool_stats=dict(pool.stats),
            shared_area=shared.area,
            isolated_area=isolated_area,
            shared_gate_count=network.gate_count(),
            isolated_gate_count=isolated_gates,
            time_s=perf_counter() - t0,
            engine_stats=dict(self.engine.stats),
        )
        if key is not None:
            result_cache.put(key, wire.netsyn_result_to_payload(result))
        return result

    # -- planning ---------------------------------------------------------

    def _plan_in_process(self, outputs, order, pool: DivisorPool):
        """Plan each output here, lazily: the caller merges each tree
        before the next output is planned."""
        from repro.engine import wire

        for index in order:
            isf = outputs[index]
            warm_key = None
            if pool.collect_covers:
                warm_key = self._warm_key(wire.isf_to_payload(isf))
            warm = pool.warm_cover(warm_key) if warm_key else None
            cover = self._cover_of(isf, warm)
            if warm_key is not None:
                pool.remember_cover(warm_key, wire.cover_to_payload(cover))
            yield self._plan(isf, cover, 0, f"o{index}")

    def _plan_on_fleet(self, instance, order, jobs: int, pool: DivisorPool):
        """Plan every output on a fleet of ``jobs`` workers, one cold task
        per output, then yield the trees in ``order``."""
        from repro.backend.protocol import backend_of
        from repro.engine import wire
        from repro.service.fleet import WorkerFleet

        engine = self.engine
        if not (
            isinstance(engine.default_approximator, str)
            and isinstance(engine.default_minimizer, str)
        ):
            raise ValueError(
                "synthesize(jobs>1) needs registry-name engine strategies;"
                " callables cannot cross process boundaries"
            )
        engine_spec = {
            "approximator": engine.default_approximator,
            "minimizer": engine.default_minimizer,
            "operators": [op.name for op in engine.operators],
            "verify": engine.verify,
        }
        backend = backend_of(instance.mgr)
        tasks, warm_keys = [], []
        for index in order:
            f_payload = wire.isf_to_payload(instance.outputs[index])
            warm_key = self._warm_key(f_payload) if pool.collect_covers else None
            warm_keys.append(warm_key)
            tasks.append(
                {
                    "name": f"o{index}",
                    "f": f_payload,
                    "backend": backend,
                    "config": self.config,
                    "engine": engine_spec,
                    "cover": pool.warm_cover(warm_key) if warm_key else None,
                }
            )
        with _obs_span("parallel.run", items=len(tasks), forks=True):
            with WorkerFleet(min(jobs, len(tasks)), prewarm=False) as fleet:
                payloads = fleet.map(plan_output, tasks)
        for index, warm_key, payload in zip(order, warm_keys, payloads):
            if warm_key is not None:
                pool.remember_cover(warm_key, payload["cover"])
            yield _plan_from_payload(
                payload,
                instance.outputs[index],
                wire.cover_from_payload(payload["cover"]),
                f"o{index}",
            )

    def _warm_key(self, f_payload: dict) -> str:
        """Warm-cover key of a block: the minimizer is part of it, since
        warm covers replay a *specific* deterministic minimization."""
        from repro.bdd.serialize import canonical_hash

        return f"{self.config.minimizer}|{canonical_hash(f_payload)}"

    def _cover_of(self, isf: ISF, warm: dict | None = None):
        """The block's cover, through the engine's cover memo.

        Filling the memo (rather than one of the synthesizer's own) lets
        the engine seed the expansion of this block with the same cover
        when the block is decomposed.  ``warm`` — a remembered cover
        payload — stands in for the minimizer on a memo miss.
        """
        return self.engine._minimize(
            isf, self._minimizer, lambda isf: self._minimized(isf, warm)
        )

    def _minimized(self, isf: ISF, warm: dict | None):
        with _obs_span("netsyn.cover", minimizer=self.config.minimizer) as sp:
            if warm is not None:
                from repro.engine import wire

                sp.annotate(source="warm")
                return wire.cover_from_payload(warm)
            cover = self._minimizer.func(isf)
            sp.annotate(source="minimized")
        if cover is None:
            raise ValueError(
                f"minimizer {self.config.minimizer!r} produced no cover"
            )
        return cover

    def _plan(self, isf: ISF, cover, depth: int, label: str) -> BlockPlan:
        """Plan one block and, where it is decomposed, its subtrees.

        A block is decomposed when its cover's literal cost is above the
        threshold, the depth is below ``max_depth``, the auto search and
        its verification succeed, and ``g`` and ``h`` together cost
        strictly fewer literals; otherwise it keeps its cover (the guard
        also bounds the recursion).
        """
        config = self.config
        plan = BlockPlan(isf, cover)
        cost = cover.literal_count()
        if cost <= config.literal_threshold or depth >= config.max_depth:
            return plan
        try:
            result = self.engine.decompose(isf, "auto", name=label)
        except (AutoSearchError, VerificationError):
            return plan
        decomposition = result.decomposition
        g_cover = decomposition.g_cover
        h_cover = decomposition.h_cover
        if (
            g_cover is None
            or h_cover is None
            or g_cover.literal_count() + h_cover.literal_count() >= cost
        ):
            return plan
        plan.result = result
        plan.g = self._plan(
            ISF.completely_specified(decomposition.g),
            g_cover,
            depth + 1,
            f"{label}.g",
        )
        plan.h = self._plan(decomposition.h, h_cover, depth + 1, f"{label}.h")
        return plan

    # -- merging ----------------------------------------------------------

    def _instantiate(self, cover, isf: ISF, network, pool, label: str):
        root = network.any_cover_root(cover)
        function = cover.to_function(isf.mgr)
        if self.config.verify and not isf.is_completion(function):
            raise AssertionError(
                f"netsyn: cover of {label or 'block'} is not a completion"
            )
        pool.register(function, root, label)
        return root, function, "cover", ""

    def _merge(self, plan: BlockPlan, network, pool: DivisorPool, label: str):
        """Realize one planned block; returns ``(node, function, source, op)``.

        The function returned is the exact function the network node
        computes — a completion of the block's ISF — so callers can
        register and combine it soundly.  A pool hit skips the block's
        subtrees.
        """
        isf = plan.isf
        hit = pool.lookup_completion(isf)
        if hit is not None:
            node, complemented, function = hit
            if complemented:
                node = network.negate(node)
            return node, function, "pool", ""
        if plan.result is None:
            return self._instantiate(plan.cover, isf, network, pool, label)

        g_node, g_function, _source, _op = self._merge(
            plan.g, network, pool, f"{label}.g"
        )
        h_node, h_function, _source, _op = self._merge(
            plan.h, network, pool, f"{label}.h"
        )
        op = operator_by_name(plan.result.op_name)
        node = network.operator_root(op.truth_row(), g_node, h_node)
        # Any completion of the full quotient recombines to a completion
        # of f (the paper's Lemmas 1-5) — verified here because the h
        # block may have been served from the pool as a *different*
        # completion than the one the engine checked.
        function = op.apply(g_function, h_function)
        if self.config.verify and not isf.is_completion(function):
            raise AssertionError(
                f"netsyn: {op.name} recombination of {label or 'block'}"
                " is not a completion"
            )
        pool.register(function, node, label)
        return node, function, "decomposition", op.name


def plan_output(task: dict) -> dict:
    """Fleet entry point: plan one output's block tree cold.

    ``task`` carries the output as a ``repro-bdd/1`` ISF payload, the
    backend and the synthesis config of the parent, its engine's
    registry-name strategies, and the output's warm cover payload (or
    ``None``).  The output is rebuilt in a fresh manager declaring the
    parent's variables, so covers and functions come back in terms the
    parent's manager reads.  Returns the output's cover payload beside
    its decompositions as nested ``repro-result/1`` payloads.
    """
    from repro.engine import wire
    from repro.engine.parallel import build_engine

    isf = wire.isf_from_payload(task["f"], backend=task["backend"])
    synthesizer = NetworkSynthesizer(
        task["config"], engine=build_engine(task["engine"])
    )
    cover = synthesizer._cover_of(isf, task["cover"])
    plan = synthesizer._plan(isf, cover, 0, task["name"])
    return {"cover": wire.cover_to_payload(cover), **_plan_payload(plan)}


def _plan_payload(plan: BlockPlan) -> dict:
    """A plan's decompositions as nested result payloads."""
    from repro.engine import wire

    if plan.result is None:
        return {"result": None}
    return {
        "result": wire.result_to_payload(plan.result),
        "g": _plan_payload(plan.g),
        "h": _plan_payload(plan.h),
    }


def _plan_from_payload(payload: dict, isf: ISF, cover, label: str) -> BlockPlan:
    """Inverse of :func:`_plan_payload` against the parent's ``isf``."""
    from repro.engine import wire

    if payload["result"] is None:
        return BlockPlan(isf, cover)
    result = wire.result_from_payload(
        payload["result"], DecomposeRequest(f=isf, op="auto", name=label)
    )
    decomposition = result.decomposition
    return BlockPlan(
        isf,
        cover,
        result,
        _plan_from_payload(
            payload["g"],
            ISF.completely_specified(decomposition.g),
            decomposition.g_cover,
            f"{label}.g",
        ),
        _plan_from_payload(
            payload["h"], decomposition.h, decomposition.h_cover, f"{label}.h"
        ),
    )


def synthesize_instance(
    instance,
    config: NetsynConfig | None = None,
    jobs: int = 1,
    cache: "ResultCache | str | None" = None,
    library: GateLibrary | None = None,
) -> NetworkSynthesisResult:
    """One-shot synthesis with a fresh engine (the harness entry point)."""
    config = config or NetsynConfig()
    synthesizer = NetworkSynthesizer(config, library=library)
    return synthesizer.synthesize(instance, jobs=jobs, cache=cache)


__all__ = [
    "NetsynConfig",
    "NetworkSynthesisResult",
    "NetworkSynthesizer",
    "synthesize_instance",
]
