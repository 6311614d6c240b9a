"""The ingress contract: a function's backend is chosen where it enters.

``load_benchmark``, payload decoding, and the shared manager of
``decompose_many`` pick each manager's backend once (bitset when at most
20 variables are declared and the support is at most 16, unless a
backend is named); the engine then computes in ``f``'s own manager.
The backend is a pure execution detail: inputs loaded as ``bdd``,
``bitset``, and ``auto`` produce identical covers, metrics, wire
payloads, and cache keys — serially, with ``jobs=2``, and from a warm
cache.
"""

import json

import pytest

from repro.backend import BitsetBDD, backend_of
from repro.bdd.manager import BDD
from repro.benchgen.registry import BENCHMARKS, load_benchmark
from repro.boolfunc.isf import ISF
from repro.engine import Decomposer, ResultCache
from repro.engine import wire
from repro.engine.cache import as_result_cache
from repro.engine.parallel import decompose_item, make_work_item
from repro.utils.rng import make_rng
from tests.conftest import fresh_manager, isf_from_masks, load_into

#: What each loader spec resolves to for a small-support function.
RESOLVED = {"bdd": "bdd", "bitset": "bitset", "auto": "bitset"}


def random_isf(seed: int, n_vars: int, mgr=None) -> ISF:
    rng = make_rng(("engine-backend", seed, n_vars))
    mgr = mgr if mgr is not None else fresh_manager(n_vars)
    space = 1 << (1 << n_vars)
    on = rng.randrange(space)
    dc = rng.randrange(space) & rng.randrange(space)
    return isf_from_masks(mgr, on, dc)


def conjunction(n_vars: int, support: int, start: int = 0) -> ISF:
    """``v[start] & ...`` over ``support`` of ``n_vars`` declared variables."""
    mgr = BDD([f"v{i}" for i in range(n_vars)])
    f = mgr.true
    for i in range(start, start + support):
        f = f & mgr.var(f"v{i}")
    return ISF.completely_specified(f)


def identity(result) -> dict:
    payload = wire.result_to_payload(result)
    payload.pop("timings")
    payload.pop("bdd_stats")
    return payload


def computed_on(result) -> str:
    """The backend whose manager computed a result (from its stats)."""
    return result.bdd_stats.get("backend", "bdd")


def test_load_benchmark_builds_narrow_rows_as_bitset():
    wide = set()
    for name, spec in BENCHMARKS.items():
        instance = load_benchmark(name)
        narrow = spec.n_inputs <= 16
        assert isinstance(instance.mgr, BitsetBDD if narrow else BDD), name
        assert all(f.mgr is instance.mgr for f in instance.outputs)
        if not narrow:
            wide.add(name)
    assert wide == {"chkn", "bcb", "ts10", "opa"}


def test_load_benchmark_honors_an_explicit_backend():
    assert isinstance(load_benchmark("z4", "bdd").mgr, BDD)
    assert isinstance(load_benchmark("opa", "bitset").mgr, BitsetBDD)
    with pytest.raises(ValueError, match="bitset"):
        load_benchmark("chkn", "bitset")  # 29 inputs: no dense table
    by_backend = {
        backend: [
            wire.isf_to_payload(f) for f in load_benchmark("z4", backend).outputs
        ]
        for backend in ("bdd", "bitset", "auto")
    }
    assert by_backend["bdd"] == by_backend["bitset"] == by_backend["auto"]


def test_auto_dispatch_routes_by_support():
    """A payload decodes into the manager its support selects."""
    small = wire.isf_to_payload(conjunction(20, 16))
    assert isinstance(wire.isf_from_payload(small).mgr, BitsetBDD)
    past = wire.isf_to_payload(conjunction(20, 17))
    assert isinstance(wire.isf_from_payload(past).mgr, BDD)
    declared = wire.isf_to_payload(conjunction(21, 2))
    assert isinstance(wire.isf_from_payload(declared).mgr, BDD)
    # Outputs decoded together share one manager, chosen on their joint
    # support: 9 and 8 distinct variables pass the boundary together.
    payloads = [
        wire.isf_to_payload(conjunction(18, 9)),
        wire.isf_to_payload(conjunction(18, 8, start=9)),
    ]
    assert [wire.payload_backend(p) for p in payloads] == ["bitset", "bitset"]
    many = wire.isfs_from_payloads(payloads)
    assert isinstance(many[0].mgr, BDD) and many[1].mgr is many[0].mgr


def test_explicit_backend_param_on_request_overrides_engine_default():
    """An explicit backend overrides the support rule, at decode and on
    a work item (the service's ``backend`` request param)."""
    payload = wire.isf_to_payload(conjunction(18, 17))
    assert isinstance(wire.isf_from_payload(payload, backend="bitset").mgr, BitsetBDD)
    small = random_isf(2, 4)
    for backend, stats_backend in (("bdd", None), ("auto", "bitset")):
        item = make_work_item(
            "f", wire.isf_to_payload(small), "AND", "expand-full", "spp",
            True, ("AND",), backend=backend,
        )
        assert decompose_item(item)["bdd_stats"].get("backend") == stats_backend


def test_results_stay_in_fs_manager():
    for backend in ("bdd", "bitset"):
        f = load_into(random_isf(3, 4), backend)
        engine = Decomposer()
        result = engine.decompose(f, "AND")
        assert result.decomposition.f is f
        assert result.decomposition.g.mgr is f.mgr
        assert result.decomposition.h.mgr is f.mgr
        assert backend_of(f.mgr) == backend
        assert engine.stats[f"backend_{backend}"] == 1
        assert result.verified


def test_bitset_native_input_runs_without_conversion():
    mgr = BitsetBDD([f"x{i + 1}" for i in range(4)])
    f = ISF.completely_specified(mgr.var("x1") ^ mgr.var("x3"))
    result = Decomposer().decompose(f, "XOR")
    assert result.verified
    assert backend_of(result.decomposition.g.mgr) == "bitset"


def test_all_backends_identical_serial():
    batch = [(f"f{i}", random_isf(10 + i, 4)) for i in range(4)]
    outputs = {}
    for backend in ("bdd", "bitset", "auto"):
        loaded = [(name, load_into(isf, backend)) for name, isf in batch]
        engine = Decomposer()
        results = engine.decompose_many(loaded, "auto")
        assert {computed_on(r) for r in results} == {RESOLVED[backend]}
        outputs[backend] = [identity(r) for r in results]
    assert outputs["bdd"] == outputs["bitset"] == outputs["auto"]


def test_mixed_batch_merges_into_the_ingress_choice():
    bdd_isf = random_isf(15, 4)
    bit_isf = load_into(random_isf(16, 4), "bitset")
    results = Decomposer().decompose_many([bdd_isf, bit_isf], "AND")
    shared = results[0].decomposition.f.mgr
    assert isinstance(shared, BitsetBDD)
    assert results[1].decomposition.f.mgr is shared
    same_kind = Decomposer().decompose_many(
        [random_isf(17, 4), random_isf(18, 4)], "AND"
    )
    assert isinstance(same_kind[0].decomposition.f.mgr, BDD)


def test_parallel_jobs_respect_backend_and_match_serial():
    batch = [(f"f{i}", random_isf(20 + i, 4)) for i in range(4)]
    outputs = {}
    for backend in ("bdd", "bitset", "auto"):
        loaded = [(name, load_into(isf, backend)) for name, isf in batch]
        serial = Decomposer().decompose_many(loaded, "AND")
        parallel = Decomposer().decompose_many(loaded, "AND", jobs=2)
        # Workers decode into the batch's backend and compute there.
        assert {computed_on(r) for r in parallel} == {RESOLVED[backend]}
        outputs[backend] = [identity(r) for r in parallel]
        assert outputs[backend] == [identity(r) for r in serial]
    assert outputs["bdd"] == outputs["bitset"] == outputs["auto"]


def test_cache_keys_and_entries_shared_across_backends(tmp_path):
    batch = [(f"f{i}", random_isf(30 + i, 4)) for i in range(3)]
    cache_dir = tmp_path / "cache"

    warm = Decomposer()
    warm_results = warm.decompose_many(
        [(name, load_into(isf, "bdd")) for name, isf in batch],
        "AND",
        cache=str(cache_dir),
    )
    stored = len(as_result_cache(str(cache_dir)))
    assert stored == len(batch)

    for backend in ("bitset", "auto"):
        cold = Decomposer()
        cached_results = cold.decompose_many(
            [(name, load_into(isf, backend)) for name, isf in batch],
            "AND",
            cache=str(cache_dir),
        )
        assert cold.stats["result_cache_hits"] == len(batch)
        assert cold.stats["result_cache_misses"] == 0
        assert [identity(r) for r in warm_results] == [
            identity(r) for r in cached_results
        ]
        assert all(
            r.decomposition.g.mgr is r.decomposition.f.mgr for r in cached_results
        )
    # The key itself is backend-free: recompute it directly.
    payload = wire.isf_to_payload(load_into(batch[0][1], "bitset"))
    key = ResultCache.key_for(payload, "AND", "expand-full", "spp", True)
    assert (cache_dir / key[:2] / f"{key}.json").exists()


def test_bitset_stats_surface_in_results():
    f = load_into(random_isf(40, 4), "bitset")
    result = Decomposer().decompose(f, "AND")
    assert result.bdd_stats["backend"] == "bitset"
    assert "tables" in result.bdd_stats


def test_engine_payloads_byte_identical_across_backends():
    """The wire identity that licenses cross-backend cache sharing."""
    f1 = random_isf(50, 5)
    f2 = load_into(random_isf(50, 5), "bitset")
    r_bdd = Decomposer().decompose(f1, "OR")
    r_bit = Decomposer().decompose(f2, "OR")
    assert computed_on(r_bdd) == "bdd" and computed_on(r_bit) == "bitset"
    text_bdd = json.dumps(identity(r_bdd), sort_keys=True)
    text_bit = json.dumps(identity(r_bit), sort_keys=True)
    assert text_bdd == text_bit
