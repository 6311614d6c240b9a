"""Per-benchmark experiment flow (paper Section IV-B).

For every output of a benchmark:

1. minimize ``f`` in 2-SPP form;
2. compute the 0→1 approximation ``g`` by full pseudoproduct expansion
   (Section IV-A) and minimize it in 2-SPP form;
3. compute the on/dc sets of the full quotient ``h`` for AND and 6⇒ with
   the Table II formulas (OBDD operations);
4. minimize ``h`` in 2-SPP form;
5. map the three-level forms of ``f``, ``g`` and the bi-decompositions
   onto the gate library and report areas and gains.

Steps 3–4 (and verification) run through the strategy-driven engine
(:class:`repro.engine.Decomposer`), with the expansion of step 2 handed
over as a ready :class:`~repro.engine.request.Divisor` so its minimized
cover is reused.  Every decomposition is verified (``f = g op h`` on the
care set) before areas are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.approx.error import output_error_rate
from repro.approx.expansion import approximate_expand_full
from repro.benchgen.registry import BenchmarkInstance, load_benchmark
from repro.boolfunc.isf import ISF
from repro.engine.decomposer import Decomposer, VerificationError
from repro.engine.request import Divisor
from repro.spp.spp_cover import SppCover
from repro.spp.synthesis import minimize_spp
from repro.techmap.area import (
    area_of_bidecomposition,
    area_of_spp_covers,
    isolated_area_of_bidecomposition,
    isolated_area_of_spp_covers,
)
from repro.techmap.genlib import GateLibrary
from repro.utils.timing import Stopwatch

#: The operators of the paper's experimental section.
DEFAULT_OPERATORS = ("AND", "NOT_IMPLIES")


@dataclass
class OutputArtifacts:
    """Synthesis artifacts of a single output."""

    f: ISF
    f_cover: SppCover
    g: object  # Function
    g_cover: SppCover
    h_covers: dict[str, SppCover] = field(default_factory=dict)


@dataclass
class BenchmarkResult:
    """One row of Table III / IV (our measurement).

    The ``area_*`` columns are *network-aware*: each is the mapped area
    of one multi-output network, so a gate two outputs share is counted
    once.  The ``*_isolated`` columns map every output's cover as its
    own network and sum the areas — the per-output accounting — kept
    alongside for comparison (``None`` on rows reassembled from older
    cached payloads).
    """

    name: str
    n_inputs: int
    n_outputs: int
    time_s: float
    area_f: float
    area_g: float
    pct_errors: float
    pct_reduction: float
    op_areas: dict[str, float]
    op_gains: dict[str, float]
    area_f_isolated: float | None = None
    op_areas_isolated: dict[str, float] | None = None
    artifacts: list[OutputArtifacts] | None = None

    @property
    def area_and(self) -> float:
        """Area of the (g AND h) realization."""
        return self.op_areas["AND"]

    @property
    def gain_and(self) -> float:
        """Gain of AND bi-decomposition over f, in percent."""
        return self.op_gains["AND"]

    @property
    def area_nimp(self) -> float:
        """Area of the (g 6⇒ h) realization."""
        return self.op_areas["NOT_IMPLIES"]

    @property
    def gain_nimp(self) -> float:
        """Gain of 6⇒ bi-decomposition over f, in percent."""
        return self.op_gains["NOT_IMPLIES"]


def run_benchmark(
    benchmark: str | BenchmarkInstance,
    operators: tuple[str, ...] = DEFAULT_OPERATORS,
    library: GateLibrary | None = None,
    keep_artifacts: bool = False,
) -> BenchmarkResult:
    """Run the full experiment flow on one benchmark."""
    instance = (
        load_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    )
    mgr = instance.mgr
    names = mgr.var_names
    watch = Stopwatch()
    engine = Decomposer(minimizer="spp")

    f_covers: list[SppCover] = []
    g_covers: list[SppCover] = []
    error_pairs = []
    artifacts: list[OutputArtifacts] = []
    pairs_by_op: dict[str, list[tuple[SppCover, SppCover]]] = {
        op: [] for op in operators
    }

    # Expansion regime: the paper's structured control-logic benchmarks
    # land in the low-error regime naturally; the synthetic stand-ins
    # need the conservative policy to recreate it (DESIGN.md).  Two
    # expansion rounds on arithmetic instances reproduce the deep
    # collapse of g (Table IV's 85-99% area reductions).
    arithmetic = instance.spec.kind == "arithmetic"
    policy = "aggressive" if arithmetic else "conservative"
    rounds = 2 if arithmetic else 1

    for f in instance.outputs:
        f_cover = minimize_spp(f)
        f_covers.append(f_cover)
        with watch:
            approx = approximate_expand_full(
                f, initial=f_cover, policy=policy, rounds=rounds
            )
            g = approx.g
            divisor = Divisor(g=g, g_cover=approx.g_cover, name="expand-full")
            per_output = OutputArtifacts(f, f_cover, g, approx.g_cover)
            for op_name in operators:
                # The engine recomputes the quotient, minimizes h, and
                # verifies f = g op h (Lemmas 1-5) with the realized covers.
                try:
                    result = engine.decompose(f, op_name, approximator=divisor)
                except VerificationError as exc:
                    raise AssertionError(
                        f"{instance.name}: {op_name} bi-decomposition failed"
                        " verification"
                    ) from exc
                h_cover = result.decomposition.h_cover
                per_output.h_covers[op_name] = h_cover
                pairs_by_op[op_name].append((approx.g_cover, h_cover))
        g_covers.append(approx.g_cover)
        error_pairs.append((f, g))
        artifacts.append(per_output)

    area_f = area_of_spp_covers(f_covers, names, library)
    area_g = area_of_spp_covers(g_covers, names, library)
    area_f_isolated = isolated_area_of_spp_covers(f_covers, names, library)
    pct_errors = 100.0 * output_error_rate(error_pairs)
    pct_reduction = 100.0 * (area_f - area_g) / area_f if area_f else 0.0

    op_areas: dict[str, float] = {}
    op_gains: dict[str, float] = {}
    op_areas_isolated: dict[str, float] = {}
    for op_name in operators:
        area_op = area_of_bidecomposition(pairs_by_op[op_name], op_name, names, library)
        op_areas[op_name] = area_op
        op_gains[op_name] = (
            100.0 * (area_f - area_op) / area_f if area_f else 0.0
        )
        op_areas_isolated[op_name] = isolated_area_of_bidecomposition(
            pairs_by_op[op_name], op_name, names, library
        )

    return BenchmarkResult(
        name=instance.name,
        n_inputs=instance.spec.n_inputs,
        n_outputs=instance.spec.n_outputs,
        time_s=watch.elapsed,
        area_f=area_f,
        area_g=area_g,
        pct_errors=pct_errors,
        pct_reduction=pct_reduction,
        op_areas=op_areas,
        op_gains=op_gains,
        area_f_isolated=area_f_isolated,
        op_areas_isolated=op_areas_isolated,
        artifacts=artifacts if keep_artifacts else None,
    )


def decompose_suite(
    benchmarks: list[str | BenchmarkInstance],
    op: str = "auto",
    approximator: str = "expand-full",
    minimizer: str = "spp",
    engine: Decomposer | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
):
    """Decompose every output of the given benchmarks in one batch.

    Loads each named benchmark (instances are used as given), labels its
    outputs ``<bench>/o<i>``, and hands the whole suite to
    :meth:`Decomposer.decompose_many`, which merges the per-benchmark
    managers into one shared manager and memoizes
    approximation/minimization sub-results across outputs.  ``jobs``
    fans the batch out to a worker pool; ``cache_dir`` persists results
    on disk across runs.  Load instances with
    ``load_benchmark(name, backend)`` to pick their representation.
    Returns the list of :class:`~repro.engine.request.DecomposeResult`.

    When ``engine`` is given, its configured strategies are used and the
    ``approximator``/``minimizer`` arguments are ignored.
    """
    engine = engine or Decomposer(approximator=approximator, minimizer=minimizer)
    labeled = []
    for benchmark in benchmarks:
        instance = (
            load_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
        )
        for index, f in enumerate(instance.outputs):
            labeled.append((f"{instance.name}/o{index}", f))
    return engine.decompose_many(labeled, op, jobs=jobs, cache=cache_dir)


def synthesize_network(
    benchmark: str | BenchmarkInstance,
    config=None,
    jobs: int = 1,
    cache_dir: str | None = None,
    library: GateLibrary | None = None,
):
    """Synthesize one shared multi-output network for a benchmark.

    The netsyn counterpart of :func:`run_benchmark`: instead of
    decomposing every output in isolation, the whole instance becomes a
    single :class:`~repro.techmap.network.LogicNetwork` with divisors
    and residual blocks shared across outputs through a canonical-hash
    pool (see :mod:`repro.netsyn`).  ``jobs`` prefetches the top-level
    decompositions through the engine's worker pool; ``cache_dir``
    persists finished networks (keys are backend-free, so a cache
    warmed under one backend serves the other).  Returns a
    :class:`~repro.netsyn.synthesis.NetworkSynthesisResult`.
    """
    from repro.netsyn.synthesis import synthesize_instance

    instance = (
        load_benchmark(benchmark) if isinstance(benchmark, str) else benchmark
    )
    return synthesize_instance(
        instance,
        config=config,
        jobs=jobs,
        cache=cache_dir,
        library=library,
    )


def _benchmark_result_payload(result: BenchmarkResult) -> dict:
    """JSON-ready form of a result (artifacts are never cached/shipped)."""
    return {
        "name": result.name,
        "n_inputs": result.n_inputs,
        "n_outputs": result.n_outputs,
        "time_s": result.time_s,
        "area_f": result.area_f,
        "area_g": result.area_g,
        "pct_errors": result.pct_errors,
        "pct_reduction": result.pct_reduction,
        "op_areas": dict(result.op_areas),
        "op_gains": dict(result.op_gains),
        "area_f_isolated": result.area_f_isolated,
        "op_areas_isolated": (
            dict(result.op_areas_isolated)
            if result.op_areas_isolated is not None
            else None
        ),
    }


def _run_benchmark_payload(task: tuple[str, tuple[str, ...]]) -> dict:
    """Worker entry point for parallel benchmark runs."""
    name, operators = task
    return _benchmark_result_payload(run_benchmark(name, operators))


def run_benchmarks(
    names: list[str],
    operators: tuple[str, ...] = DEFAULT_OPERATORS,
    library: GateLibrary | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> list[BenchmarkResult]:
    """Run several benchmarks, optionally in parallel and/or cached.

    Results come back in the order of ``names``.  With ``cache_dir``
    set, finished rows are stored on disk keyed by ``(benchmark,
    operators)`` and a warm re-run is served entirely from the cache
    (the cached ``time_s`` is the original measurement).  A custom
    ``library`` disables both the cache and the worker pool: the row
    keys would not describe it, and it may not cross process boundaries.
    """
    from repro.engine.cache import ResultCache

    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if library is not None:
        return [run_benchmark(name, operators, library) for name in names]

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    results: list[BenchmarkResult | None] = [None] * len(names)
    keys: list[str | None] = [None] * len(names)
    pending: list[int] = []
    for index, name in enumerate(names):
        if cache is not None:
            keys[index] = cache.bench_key_for(name, operators)
            payload = cache.get(keys[index])
            if payload is not None:
                try:
                    results[index] = BenchmarkResult(**payload)
                    continue
                except TypeError:
                    # Stale field set (older/newer writer): recompute.
                    cache.stats["hits"] -= 1
                    cache.stats["misses"] += 1
                    cache.stats["corrupt"] += 1
        pending.append(index)

    if pending:
        tasks = [(names[index], tuple(operators)) for index in pending]
        if jobs > 1:
            from repro.engine.parallel import pool_context

            with pool_context().Pool(processes=min(jobs, len(tasks))) as pool:
                payloads = pool.map(_run_benchmark_payload, tasks, chunksize=1)
        else:
            payloads = [_run_benchmark_payload(task) for task in tasks]
        for index, payload in zip(pending, payloads):
            results[index] = BenchmarkResult(**payload)
            if cache is not None:
                cache.put(keys[index], payload)
    return results


def run_table(
    table: str,
    operators: tuple[str, ...] = DEFAULT_OPERATORS,
    library: GateLibrary | None = None,
    names: list[str] | None = None,
) -> list[BenchmarkResult]:
    """Run all benchmarks of paper Table III or IV (optionally a subset)."""
    from repro.benchgen.registry import table_benchmarks

    results = []
    for spec in table_benchmarks(table):
        if names is not None and spec.name not in names:
            continue
        results.append(run_benchmark(spec.name, operators, library))
    return results
