"""Parallel batch execution and the persistent result cache.

The contract under test: ``jobs=1`` and ``jobs>1`` produce identical
ordered results; a warm cache run is served entirely from disk (no
worker dispatch); and a corrupted cache entry is a miss, never an error.
"""

import json

import pytest

import repro.engine.parallel as parallel_mod
from repro.boolfunc.isf import ISF
from repro.cli import main
from repro.engine import Decomposer, ResultCache
from repro.engine.cache import as_result_cache
from repro.utils.rng import make_rng
from tests.conftest import fresh_manager


def _batch(count=6, n_vars=4):
    """A deterministic batch of random ISFs over one manager."""
    mgr = fresh_manager(n_vars)
    rng = make_rng("engine-parallel-batch")
    return [(f"r{i}", ISF.random(mgr, rng)) for i in range(count)]


def _signature(results):
    """Everything that must agree between execution modes.

    Functions are compared by canonical fingerprint (manager-independent),
    covers structurally (pseudocube/cube lists).
    """
    from repro.bdd.serialize import function_fingerprint
    from repro.engine.wire import isf_fingerprint

    return [
        (
            r.name,
            r.op_name,
            r.approximator_name,
            r.minimizer_name,
            r.literal_cost,
            r.error_rate,
            r.verified,
            r.request.metadata.get("n_vars"),
            function_fingerprint(r.decomposition.g),
            isf_fingerprint(r.decomposition.h),
            None
            if r.decomposition.g_cover is None
            else list(r.decomposition.g_cover),
            None
            if r.decomposition.h_cover is None
            else list(r.decomposition.h_cover),
            [c.to_dict() for c in r.candidates],
        )
        for r in results
    ]


# ---------------------------------------------------------------------------
# jobs=1 vs jobs>1
# ---------------------------------------------------------------------------


def test_parallel_matches_serial_single_operator():
    batch = _batch()
    serial = Decomposer().decompose_many(batch, op="AND")
    parallel = Decomposer().decompose_many(batch, op="AND", jobs=2)
    # Same shared manager (all inputs already live in one), so raw node
    # ids of g are directly comparable.
    assert _signature(parallel) == _signature(serial)
    assert all(r.verified for r in parallel)


def test_parallel_matches_serial_auto_search():
    batch = _batch(count=3)
    serial = Decomposer().decompose_many(batch, op="auto")
    parallel = Decomposer().decompose_many(batch, op="auto", jobs=3)
    assert _signature(parallel) == _signature(serial)
    assert all(len(r.candidates) == 10 for r in parallel)


def test_parallel_preserves_input_order():
    batch = _batch(count=5)
    results = Decomposer().decompose_many(batch, op="OR", jobs=2)
    assert [r.name for r in results] == [label for label, _ in batch]


def test_parallel_matches_serial_on_synthetic_benchmark(tmp_path):
    """The acceptance contract, end to end on a real synthetic benchmark:
    jobs=2 equals jobs=1, and a second cached run is 100% hits."""
    from repro.harness.experiment import decompose_suite

    serial = decompose_suite(["newtpla2"], op="AND")
    parallel = decompose_suite(["newtpla2"], op="AND", jobs=2, cache_dir=str(tmp_path))
    assert _signature(parallel) == _signature(serial)

    warm_engine = Decomposer()
    warm = decompose_suite(
        ["newtpla2"], op="AND", engine=warm_engine, cache_dir=str(tmp_path)
    )
    assert _signature(warm) == _signature(serial)
    assert warm_engine.stats["result_cache_hits"] == len(serial)
    assert warm_engine.stats["result_cache_misses"] == 0


def test_parallel_forwards_restricted_operator_set():
    """Workers must search the parent engine's operators, not all ten
    (regression: the search space was dropped at the process boundary)."""
    batch = _batch(count=3)
    engine_serial = Decomposer(operators=["AND", "OR"])
    engine_parallel = Decomposer(operators=["AND", "OR"])
    serial = engine_serial.decompose_many(batch, op="auto")
    parallel = engine_parallel.decompose_many(batch, op="auto", jobs=2)
    assert _signature(parallel) == _signature(serial)
    assert all(len(r.candidates) == 2 for r in parallel)
    assert all(r.op_name in ("AND", "OR") for r in parallel)


def test_parallel_counts_dispatches():
    engine = Decomposer()
    engine.decompose_many(_batch(count=4), op="AND", jobs=2)
    assert engine.stats["dispatched"] == 4


def test_parallel_rejects_callable_strategies():
    batch = _batch(count=2)
    with pytest.raises(ValueError, match="cannot cross process boundaries"):
        Decomposer().decompose_many(
            batch, op="AND", approximator=lambda f, op: f.on, jobs=2
        )


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        Decomposer().decompose_many(_batch(count=1), op="AND", jobs=0)


# ---------------------------------------------------------------------------
# Persistent cache
# ---------------------------------------------------------------------------


def test_cache_cold_run_stores_then_warm_run_hits(tmp_path):
    batch = _batch()
    cold_engine = Decomposer()
    cold = cold_engine.decompose_many(batch, op="AND", cache=tmp_path)
    assert cold_engine.stats["result_cache_misses"] == len(batch)

    cache = ResultCache(tmp_path)
    assert len(cache) == len(batch)
    warm_engine = Decomposer()
    warm = warm_engine.decompose_many(batch, op="AND", cache=cache)
    assert warm_engine.stats["result_cache_hits"] == len(batch)
    assert warm_engine.stats["result_cache_misses"] == 0
    assert cache.hit_rate() == 1.0
    assert _signature(warm) == _signature(cold)


def test_cache_warm_run_never_dispatches_workers(tmp_path, monkeypatch):
    batch = _batch(count=3)
    Decomposer().decompose_many(batch, op="AND", jobs=2, cache=tmp_path)

    def boom(items, jobs):
        raise AssertionError("worker pool must not start on a warm cache")

    monkeypatch.setattr(parallel_mod, "run_parallel", boom)
    engine = Decomposer()
    warm = engine.decompose_many(batch, op="AND", jobs=2, cache=tmp_path)
    assert engine.stats["dispatched"] == 0
    assert all(r.verified for r in warm)


def test_corrupted_cache_entries_are_misses_not_fatal(tmp_path):
    batch = _batch(count=3)
    cold = Decomposer().decompose_many(batch, op="AND", cache=tmp_path)

    entries = sorted(ResultCache(tmp_path).cache_dir.glob("*/*.json"))
    assert len(entries) == 3
    entries[0].write_text("{not json at all")
    entries[1].write_text(json.dumps({"format": "alien/1", "payload": {}}))

    cache = ResultCache(tmp_path)
    warm = Decomposer().decompose_many(batch, op="AND", cache=cache)
    assert _signature(warm) == _signature(cold)
    assert cache.stats["corrupt"] == 2
    assert cache.stats["hits"] == 1
    # The corrupted entries were recomputed and re-stored.
    assert cache.stats["stores"] == 2


def test_cache_distinguishes_operator_and_strategy(tmp_path):
    batch = _batch(count=1)
    engine = Decomposer()
    engine.decompose_many(batch, op="AND", cache=tmp_path)
    engine.decompose_many(batch, op="OR", cache=tmp_path)
    engine.decompose_many(batch, op="AND", minimizer="espresso", cache=tmp_path)
    assert len(ResultCache(tmp_path)) == 3


def test_cache_distinguishes_auto_search_space(tmp_path):
    """An auto result from a restricted engine must not be served to an
    engine with a different search space (regression: the operator set
    was missing from the cache key)."""
    batch = _batch(count=1)
    Decomposer(operators=["AND"]).decompose_many(batch, op="auto", cache=tmp_path)
    full_engine = Decomposer()
    results = full_engine.decompose_many(batch, op="auto", cache=tmp_path)
    assert full_engine.stats["result_cache_hits"] == 0
    assert len(results[0].candidates) == 10
    assert len(ResultCache(tmp_path)) == 2
    # For a *named* operator the search space is irrelevant: keys agree.
    Decomposer(operators=["AND"]).decompose_many(batch, op="AND", cache=tmp_path)
    named_engine = Decomposer()
    named_engine.decompose_many(batch, op="AND", cache=tmp_path)
    assert named_engine.stats["result_cache_hits"] == 1


def test_cache_entry_with_corrupt_inner_payload_is_a_miss(tmp_path):
    """A valid cache wrapper around a stale/foreign result payload (e.g.
    after a RESULT_FORMAT bump) must recompute, not crash (regression)."""
    from repro.engine.cache import ENTRY_FORMAT

    batch = _batch(count=2)
    cold = Decomposer().decompose_many(batch, op="AND", cache=tmp_path)
    entries = sorted(ResultCache(tmp_path).cache_dir.glob("*/*.json"))
    entries[0].write_text(
        json.dumps({"format": ENTRY_FORMAT, "payload": {"format": "repro-result/0"}})
    )
    cache = ResultCache(tmp_path)
    warm = Decomposer().decompose_many(batch, op="AND", cache=cache)
    assert _signature(warm) == _signature(cold)
    assert cache.stats["corrupt"] == 1
    assert cache.stats["stores"] == 1  # the bad entry was recomputed


def test_bench_cache_with_stale_payload_recomputes(tmp_path):
    """run_benchmarks must survive cached rows whose field set no longer
    matches BenchmarkResult (regression)."""
    from repro.engine.cache import ENTRY_FORMAT
    from repro.harness.experiment import benchmark_result_payload, run_benchmarks

    cold = run_benchmarks(["z4"], cache_dir=str(tmp_path))
    current = benchmark_result_payload(cold[0])
    entry = next(ResultCache(tmp_path).cache_dir.glob("*/*.json"))
    stale_payloads = (
        {"name": "z4", "bogus": 1},
        # Rows cached while the harness also reported per-output
        # isolated areas.
        {
            **current,
            "area_f_isolated": 301.0,
            "op_areas_isolated": {"AND": 310.0, "NOT_IMPLIES": 305.0},
        },
    )
    for stale in stale_payloads:
        entry.write_text(json.dumps({"format": ENTRY_FORMAT, "payload": stale}))
        warm = run_benchmarks(["z4"], cache_dir=str(tmp_path))
        assert warm[0].name == cold[0].name
        assert warm[0].op_areas == cold[0].op_areas
        # The recomputed row replaced the stale entry.
        assert json.loads(entry.read_text())["payload"].keys() == current.keys()


def test_cache_is_bypassed_for_callable_strategies(tmp_path):
    batch = _batch(count=1)
    engine = Decomposer()
    engine.decompose_many(
        batch, op="AND", approximator=lambda f, op: f.on, cache=tmp_path
    )
    assert len(ResultCache(tmp_path)) == 0
    assert engine.stats["result_cache_misses"] == 0


def test_as_result_cache_normalizes(tmp_path):
    cache = ResultCache(tmp_path)
    assert as_result_cache(cache) is cache
    assert as_result_cache(None) is None
    assert isinstance(as_result_cache(tmp_path), ResultCache)


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------


def test_cli_decompose_jobs_and_cache(tmp_path, capsys):
    args = [
        "decompose",
        "z4",
        "--op",
        "AND",
        "--jobs",
        "2",
        "--cache-dir",
        str(tmp_path),
        "--json",
    ]
    assert main(args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    warm = json.loads(capsys.readouterr().out)
    strip = lambda rows: [
        {k: v for k, v in row.items() if k != "timings"} for row in rows
    ]
    assert strip(warm) == strip(cold)
    assert len(list(tmp_path.glob("*/*.json"))) == len(cold)


def test_cli_bench_jobs_and_cache(tmp_path, capsys):
    args = ["bench", "z4", "--jobs", "2", "--cache-dir", str(tmp_path), "--json"]
    assert main(args) == 0
    cold = json.loads(capsys.readouterr().out)
    assert main(args) == 0
    warm = json.loads(capsys.readouterr().out)
    # The warm run is served from disk: identical rows, original timing.
    assert warm == cold
    assert len(list(tmp_path.glob("*/*.json"))) == 1


# ---------------------------------------------------------------------------
# Randomized-strategy reproducibility across processes (regression)
# ---------------------------------------------------------------------------


def test_random_strategy_identical_across_workers_and_serial(tmp_path):
    """`random:<rate>` divisors must not depend on process or call order."""
    batch = _batch(count=4)
    serial = Decomposer().decompose_many(batch, op="XOR", approximator="random:0.3")
    parallel = Decomposer().decompose_many(
        batch, op="XOR", approximator="random:0.3", jobs=2
    )
    assert _signature(parallel) == _signature(serial)
    # Reversed submission order computes the same per-function divisors.
    reversed_results = Decomposer().decompose_many(
        list(reversed(batch)), op="XOR", approximator="random:0.3"
    )
    assert _signature(list(reversed(reversed_results))) == _signature(serial)


# ---------------------------------------------------------------------------
# The one process pool (WorkerFleet)
# ---------------------------------------------------------------------------


def _items(batch):
    from repro.engine import wire
    from repro.engine.parallel import make_work_item

    operators = tuple(o.name for o in Decomposer().operators)
    return [
        make_work_item(
            label, wire.isf_to_payload(isf), "AND", "expand-full", "spp",
            True, operators,
        )
        for label, isf in batch
    ]


def _children():
    """Pids of live child processes; earlier tests may leave some behind."""
    import multiprocessing

    return {child.pid for child in multiprocessing.active_children()}


def _identity(payload):
    """A result payload without its informational channels."""
    return {k: v for k, v in payload.items() if k not in ("timings", "bdd_stats")}


def test_worker_pool_rejects_nonpositive_jobs():
    from repro.service.fleet import WorkerFleet

    with pytest.raises(ValueError, match="size"):
        WorkerFleet(0)


def test_parallel_worker_exception_keeps_its_type():
    """A failure inside a worker reaches the caller as jobs=1 raises it,
    and the batch's worker processes are gone afterwards."""
    from repro.engine import UnknownStrategyError

    batch = _batch(count=3)
    before = _children()
    for jobs in (1, 2):
        with pytest.raises(UnknownStrategyError, match="no-such"):
            Decomposer().decompose_many(
                batch, op="AND", approximator="no-such", jobs=jobs
            )
    assert _children() <= before


def test_batches_leave_no_child_processes():
    from repro.harness.experiment import run_benchmarks

    before = _children()
    Decomposer().decompose_many(_batch(count=3), op="AND", jobs=2)
    assert _children() <= before
    run_benchmarks(["z4"], jobs=2)
    assert _children() <= before


def test_run_parallel_on_live_fleet_matches_serial_and_keeps_it_up():
    from repro.engine.parallel import decompose_item
    from repro.service.fleet import WorkerFleet, _worker_ident

    items = _items(_batch(count=4))
    serial = [_identity(decompose_item(item)) for item in items]
    with WorkerFleet(2) as fleet:
        pids = fleet.pids()
        first = parallel_mod.run_parallel(items, 2, fleet)
        second = parallel_mod.run_parallel(items, 2, fleet)
        # The same live workers served both batches and still answer.
        assert fleet.pids() == pids
        assert fleet.stats["restarts"] == 0
        assert fleet.run_sync(_worker_ident, {})["pid"] in pids
    assert [_identity(p) for p in first] == serial
    assert [_identity(p) for p in second] == serial
