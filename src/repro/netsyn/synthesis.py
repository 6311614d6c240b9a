"""Shared-network synthesis of multi-output benchmarks.

:class:`NetworkSynthesizer` turns a multi-output
:class:`~repro.benchgen.registry.BenchmarkInstance` into one strashed
:class:`~repro.techmap.network.LogicNetwork`:

1. outputs are ordered by support overlap
   (:func:`~repro.netsyn.scheduler.schedule_by_overlap`);
2. every block — an output, a divisor ``g``, or a residual quotient
   ``h`` — first consults the :class:`~repro.netsyn.pool.DivisorPool`;
   a pooled block (either polarity, or any pooled completion of an
   incompletely specified block) is reused instead of re-derived;
3. blocks whose minimized cover is above ``literal_threshold`` are
   bi-decomposed through the strategy engine
   (:class:`~repro.engine.Decomposer`) and their ``g``/``h`` parts
   realized recursively, down to ``max_depth``; a decomposition that
   does not strictly reduce the literal cost falls back to the cover;
4. surviving covers are instantiated into the shared network, where
   structural hashing materializes identical gates once.

``jobs > 1`` prefetches the top-level decompositions through
:meth:`~repro.engine.Decomposer.decompose_many`'s process pool and then
merges the results into the shared network through the pool — the
synthesized network is byte-identical to a serial run.  A
:class:`~repro.engine.cache.ResultCache` directory persists finished
networks keyed by the benchmark's canonical output fingerprints and the
synthesis configuration; keys are backend-free, so a cache warmed under
one backend serves the other.  Synthesis computes in the instance's own
manager, whose backend was chosen when the instance was loaded.
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
        resolved = MINIMIZERS.resolve(self.config.minimizer)
        if resolved.name.partition(":")[0] == "none":
            raise ValueError(
                "network synthesis needs a cover-producing minimizer;"
                " 'none' cannot instantiate blocks"
            )
        self._minimize = resolved.func
        self._cover_memo: dict[ISF, object] = {}
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

        ``pool_seed`` — a :meth:`~repro.netsyn.pool.DivisorPool.snapshot`
        from an earlier run — pre-warms this run's pool with remembered
        minimized covers; ``collect_covers`` records this run's covers so
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
        from repro.bdd.serialize import SerializationError
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
            hit = result_cache.get(key)
            if hit is not None:
                try:
                    cached = wire.netsyn_result_from_payload(hit)
                    cached.cached = True
                    return cached
                except SerializationError:
                    result_cache.stats["hits"] -= 1
                    result_cache.stats["misses"] += 1
                    result_cache.stats["corrupt"] += 1

        t0 = perf_counter()
        network = LogicNetwork(list(instance.mgr.var_names))
        pool = DivisorPool(
            config.match_intervals,
            collect_covers=collect_covers or pool_seed is not None,
        )
        pool.merge(pool_seed)
        self.last_pool = pool
        order = schedule_by_overlap(instance.outputs)

        prefetched: dict[str, object] = {}
        if jobs > 1 and config.max_depth > 0:
            # Prefetch only the outputs the serial path would actually
            # decompose: covers at or below the literal threshold are
            # instantiated directly, so shipping them to workers would
            # be pure wasted auto-search.
            labeled = [
                (f"o{index}", instance.outputs[index])
                for index in order
                if self._cover_of(instance.outputs[index], pool).literal_count()
                > config.literal_threshold
            ]
            try:
                for result in self.engine.decompose_many(
                    labeled, "auto", jobs=jobs
                ):
                    prefetched[result.request.name] = result
            except (AutoSearchError, VerificationError):
                # A worker's whole batch fails on the first undecomposable
                # output; the serial path recovers per block (cover
                # fallback), so just realize without the prefetch — the
                # resulting network is identical either way.
                prefetched = {}

        per_output: list[dict] = []
        output_names: list[str] = []
        records: dict[int, dict] = {}
        for index in order:
            name = f"o{index}"
            node, _function, source, op_name = self._realize(
                instance.outputs[index],
                None,
                0,
                network,
                pool,
                ready=prefetched.get(name),
                label=name,
            )
            network.set_output(name, node)
            records[index] = {"name": name, "source": source, "op": op_name}
        for index in range(len(instance.outputs)):
            output_names.append(f"o{index}")
            per_output.append(records[index])

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

    # -- realization ------------------------------------------------------

    def _cover_of(self, isf: ISF, pool: DivisorPool | None = None):
        cover = self._cover_memo.get(isf)
        if cover is not None:
            return cover
        with _obs_span("netsyn.cover", minimizer=self.config.minimizer) as sp:
            warm_key = None
            if pool is not None and pool.collect_covers:
                from repro.engine import wire

                # The minimizer is part of the key: warm covers replay a
                # *specific* deterministic minimization, not just the block.
                warm_key = f"{self.config.minimizer}|{wire.isf_fingerprint(isf)}"
                payload = pool.warm_cover(warm_key)
                if payload is not None:
                    cover = wire.cover_from_payload(payload)
                    self._cover_memo[isf] = cover
                    sp.annotate(source="warm")
                    return cover
            cover = self._minimize(isf)
            sp.annotate(source="minimized")
        if cover is None:
            raise ValueError(
                f"minimizer {self.config.minimizer!r} produced no cover"
            )
        self._cover_memo[isf] = cover
        if warm_key is not None:
            from repro.engine import wire

            pool.remember_cover(warm_key, wire.cover_to_payload(cover))
        return cover

    def _instantiate(self, cover, isf: ISF, network, pool, label: str):
        root = network.any_cover_root(cover)
        function = cover.to_function(isf.mgr)
        if self.config.verify and not isf.is_completion(function):
            raise AssertionError(
                f"netsyn: cover of {label or 'block'} is not a completion"
            )
        pool.register(function, root, label)
        return root, function, "cover", ""

    def _realize(
        self,
        isf: ISF,
        cover,
        depth: int,
        network,
        pool: DivisorPool,
        ready=None,
        label: str = "",
    ):
        """Realize one block; returns ``(node, function, source, op)``.

        The function returned is the exact function the network node
        computes — a completion of ``isf`` — so callers can register and
        combine it soundly.
        """
        config = self.config
        hit = pool.lookup_completion(isf)
        if hit is not None:
            node, complemented, function = hit
            if complemented:
                node = network.negate(node)
            return node, function, "pool", ""

        if cover is None:
            cover = self._cover_of(isf, pool)
        cost = cover.literal_count()
        if cost <= config.literal_threshold or depth >= config.max_depth:
            return self._instantiate(cover, isf, network, pool, label)

        result = ready
        if result is None:
            try:
                result = self.engine.decompose(isf, "auto", name=label)
            except (AutoSearchError, VerificationError):
                return self._instantiate(cover, isf, network, pool, label)
        decomposition = result.decomposition
        g_cover = decomposition.g_cover
        h_cover = decomposition.h_cover
        if (
            g_cover is None
            or h_cover is None
            or g_cover.literal_count() + h_cover.literal_count() >= cost
        ):
            # No strict literal progress: the block's own cover is the
            # better realization (and the guard bounds the recursion).
            return self._instantiate(cover, isf, network, pool, label)

        g_node, g_function, _source, _op = self._realize(
            ISF.completely_specified(decomposition.g),
            g_cover,
            depth + 1,
            network,
            pool,
            label=f"{label}.g" if label else "g",
        )
        h_node, h_function, _source, _op = self._realize(
            decomposition.h,
            h_cover,
            depth + 1,
            network,
            pool,
            label=f"{label}.h" if label else "h",
        )
        op = operator_by_name(result.op_name)
        node = network.operator_root(op.truth_row(), g_node, h_node)
        # Any completion of the full quotient recombines to a completion
        # of f (the paper's Lemmas 1-5) — verified here because the h
        # block may have been served from the pool as a *different*
        # completion than the one the engine checked.
        function = op.apply(g_function, h_function)
        if config.verify and not isf.is_completion(function):
            raise AssertionError(
                f"netsyn: {op.name} recombination of {label or 'block'}"
                " is not a completion"
            )
        pool.register(function, node, label)
        return node, function, "decomposition", op.name


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
