"""Multi-output network synthesis with cross-output divisor sharing."""

import pytest

from repro.bdd.serialize import function_fingerprint
from repro.benchgen.registry import load_benchmark
from repro.boolfunc.isf import ISF
from repro.engine.cache import ResultCache
from repro.engine.wire import (
    isf_fingerprint,
    netsyn_result_from_payload,
    netsyn_result_to_payload,
    network_from_payload,
    network_to_payload,
)
from repro.netsyn import (
    DivisorPool,
    NetsynConfig,
    NetworkSynthesizer,
    schedule_by_overlap,
    synthesize_instance,
)
from tests.conftest import fresh_manager, isf_from_masks


def assignment_of(minterm: int, names) -> dict[str, bool]:
    n = len(names)
    return {
        name: bool((minterm >> (n - 1 - i)) & 1)
        for i, name in enumerate(names)
    }


def network_matches_outputs(instance, network) -> bool:
    """Exhaustively compare every network output with its truth table."""
    names = instance.mgr.var_names
    for minterm in range(1 << len(names)):
        values = network.evaluate(assignment_of(minterm, names))
        for index, isf in enumerate(instance.outputs):
            if values[f"o{index}"] != bool(isf.on(minterm)):
                return False
    return True


# ---------------------------------------------------------------------------
# DivisorPool
# ---------------------------------------------------------------------------


def test_pool_direct_and_complement_hits():
    mgr = fresh_manager(3)
    pool = DivisorPool()
    f = mgr.var("x1") & mgr.var("x2")
    pool.register(f, node=7)
    assert pool.lookup(f) == (7, False)
    assert pool.lookup(~f) == (7, True)
    assert pool.lookup(mgr.var("x3")) is None
    assert pool.stats["hits"] == 2
    assert pool.stats["complement_hits"] == 1
    assert pool.stats["registered"] == 1


def test_pool_registration_keeps_first_entry():
    mgr = fresh_manager(2)
    pool = DivisorPool()
    f = mgr.var("x1")
    pool.register(f, node=3)
    pool.register(f, node=9)  # duplicate: ignored
    pool.register(~f, node=9)  # complement already indexed: ignored
    assert pool.lookup(f) == (3, False)
    assert len(pool) == 1


def test_pool_interval_completion_hit():
    mgr = fresh_manager(3)
    pool = DivisorPool()
    g = mgr.var("x1")
    pool.register(g, node=4)
    # x1 is a completion of the interval [x1 & x2, x1]: on = x1 & x2,
    # dc = x1 & ~x2.
    isf = ISF(mgr.var("x1") & mgr.var("x2"), mgr.var("x1") & ~mgr.var("x2"))
    hit = pool.lookup_completion(isf)
    assert hit is not None
    node, complemented, function = hit
    assert node == 4 and complemented is False and function == g
    assert pool.stats["interval_hits"] == 1


def test_pool_interval_complement_completion():
    mgr = fresh_manager(2)
    pool = DivisorPool()
    g = mgr.var("x1")
    pool.register(g, node=2)
    # ~x1 completes [~x1 & x2, ~x1].
    isf = ISF(~mgr.var("x1") & mgr.var("x2"), ~mgr.var("x1") & ~mgr.var("x2"))
    hit = pool.lookup_completion(isf)
    assert hit is not None
    node, complemented, function = hit
    assert node == 2 and complemented is True and function == ~g


def test_pool_interval_matching_can_be_disabled():
    mgr = fresh_manager(2)
    pool = DivisorPool(match_intervals=False)
    pool.register(mgr.var("x1"), node=1)
    isf = ISF(mgr.var("x1") & mgr.var("x2"), mgr.var("x1") & ~mgr.var("x2"))
    assert pool.lookup_completion(isf) is None
    assert pool.stats["interval_lookups"] == 0


def test_pool_completely_specified_goes_through_hash_index():
    mgr = fresh_manager(2)
    pool = DivisorPool()
    f = mgr.var("x1") ^ mgr.var("x2")
    pool.register(f, node=5)
    hit = pool.lookup_completion(ISF.completely_specified(~f))
    assert hit == (5, True, ~f)
    assert pool.stats["interval_lookups"] == 0


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------


def test_schedule_starts_narrow_and_follows_overlap():
    mgr = fresh_manager(4)
    x1, x2, x3, x4 = (mgr.var(f"x{i}") for i in range(1, 5))
    outputs = [
        ISF.completely_specified(x1 & x2 & x3),  # support {1,2,3}
        ISF.completely_specified(x4),  # support {4} — narrowest
        ISF.completely_specified(x3 & x4),  # overlaps the narrow one
    ]
    order = schedule_by_overlap(outputs)
    assert order[0] == 1  # smallest support first
    assert order[1] == 2  # max overlap with covered {x4}
    assert order[2] == 0


def test_schedule_is_deterministic_and_complete():
    instance = load_benchmark("z4")
    first = schedule_by_overlap(instance.outputs)
    second = schedule_by_overlap(instance.outputs)
    assert first == second
    assert sorted(first) == list(range(len(instance.outputs)))


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def z4_net():
    return load_benchmark("z4"), synthesize_instance(load_benchmark("z4"))


def test_synthesized_network_matches_every_output(z4_net):
    instance, result = z4_net
    assert network_matches_outputs(instance, result.network)


def test_newtpla2_network_matches_and_shares():
    instance = load_benchmark("newtpla2")
    result = synthesize_instance(instance)
    assert network_matches_outputs(instance, result.network)
    assert result.shared_area < result.isolated_area
    assert result.shared_gate_count < result.isolated_gate_count


def test_shared_area_never_exceeds_isolated(z4_net):
    _instance, result = z4_net
    assert result.shared_area <= result.isolated_area
    assert 0.0 <= result.saving_pct <= 100.0


def test_per_output_provenance_recorded(z4_net):
    _instance, result = z4_net
    assert [record["name"] for record in result.per_output] == [
        f"o{i}" for i in range(4)
    ]
    assert all(
        record["source"] in ("pool", "decomposition", "cover")
        for record in result.per_output
    )
    # z4 is arithmetic: at least one output must actually decompose.
    assert any(r["source"] == "decomposition" for r in result.per_output)


def test_recursion_respects_literal_threshold_and_depth():
    instance = load_benchmark("z4")
    flat = synthesize_instance(
        load_benchmark("z4"), config=NetsynConfig(literal_threshold=10**6)
    )
    # With an absurd threshold every output is a plain cover.
    assert all(r["source"] == "cover" for r in flat.per_output)
    assert network_matches_outputs(instance, flat.network)
    deep = synthesize_instance(
        load_benchmark("z4"),
        config=NetsynConfig(literal_threshold=1, max_depth=3),
    )
    assert network_matches_outputs(load_benchmark("z4"), deep.network)


def test_parallel_prefetch_builds_identical_network(z4_net):
    _instance, serial = z4_net
    parallel = synthesize_instance(load_benchmark("z4"), jobs=2)
    assert network_to_payload(parallel.network) == network_to_payload(
        serial.network
    )
    assert parallel.shared_area == serial.shared_area


def test_backends_build_identical_networks(z4_net):
    _instance, auto_result = z4_net
    for backend in ("bdd", "bitset"):
        result = synthesize_instance(load_benchmark("z4", backend))
        assert network_to_payload(result.network) == network_to_payload(
            auto_result.network
        )


def test_pool_reuses_duplicate_outputs():
    # A synthetic instance with duplicate and complementary outputs: the
    # pool must serve o1 (same function) and o2 (complement) for free.
    instance = load_benchmark("newtpla2")
    f = instance.outputs[0]
    instance.outputs = [f, ISF.completely_specified(f.on), ~f]
    result = synthesize_instance(instance)
    assert result.pool_stats["hits"] >= 2
    assert result.pool_stats["complement_hits"] >= 1
    sources = {r["name"]: r["source"] for r in result.per_output}
    assert sources["o1"] == "pool" or sources["o0"] == "pool"
    names = instance.mgr.var_names
    for minterm in range(1 << len(names)):
        values = result.network.evaluate(assignment_of(minterm, names))
        assert values["o1"] == bool(f.on(minterm))
        assert values["o2"] == (not bool(f.on(minterm)))


def test_synthesizer_rejects_none_minimizer():
    with pytest.raises(ValueError):
        NetworkSynthesizer(NetsynConfig(minimizer="none"))


# ---------------------------------------------------------------------------
# Wire round trips + cache
# ---------------------------------------------------------------------------


def test_network_payload_round_trip(z4_net):
    instance, result = z4_net
    payload = network_to_payload(result.network)
    rebuilt = network_from_payload(payload)
    assert network_matches_outputs(instance, rebuilt)
    assert network_to_payload(rebuilt) == payload


def test_netsyn_result_payload_round_trip(z4_net):
    instance, result = z4_net
    payload = netsyn_result_to_payload(result)
    rebuilt = netsyn_result_from_payload(payload)
    assert rebuilt.shared_area == result.shared_area
    assert rebuilt.isolated_area == result.isolated_area
    assert rebuilt.pool_stats == result.pool_stats
    assert rebuilt.per_output == result.per_output
    assert network_matches_outputs(instance, rebuilt.network)


def test_cache_round_trip_and_cross_backend_warmth(tmp_path):
    cold = synthesize_instance(load_benchmark("z4", "bdd"), cache=tmp_path)
    warm = synthesize_instance(load_benchmark("z4", "bitset"), cache=tmp_path)
    assert not cold.cached and warm.cached
    assert warm.shared_area == cold.shared_area
    assert network_to_payload(warm.network) == network_to_payload(cold.network)
    assert network_matches_outputs(load_benchmark("z4"), warm.network)


def test_netsyn_cache_key_covers_config_but_not_backend():
    fingerprints = ["aa", "bb"]
    base = NetsynConfig()
    by_backend = [
        [isf_fingerprint(f) for f in load_benchmark("z4", backend).outputs]
        for backend in ("bdd", "bitset")
    ]
    assert ResultCache.netsyn_key_for(
        by_backend[0], base.key_payload()
    ) == ResultCache.netsyn_key_for(by_backend[1], base.key_payload())
    assert ResultCache.netsyn_key_for(
        fingerprints, base.key_payload()
    ) != ResultCache.netsyn_key_for(
        fingerprints, NetsynConfig(literal_threshold=3).key_payload()
    )
    assert ResultCache.netsyn_key_for(
        fingerprints, base.key_payload()
    ) != ResultCache.netsyn_key_for(["aa"], base.key_payload())


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    result = synthesize_instance(load_benchmark("z4"), cache=tmp_path)
    assert not result.cached
    for entry in tmp_path.glob("*/*.json"):
        entry.write_text("{broken")
    recomputed = synthesize_instance(load_benchmark("z4"), cache=tmp_path)
    assert not recomputed.cached
    assert recomputed.shared_area == result.shared_area


# ---------------------------------------------------------------------------
# Harness integration
# ---------------------------------------------------------------------------


def test_harness_synthesize_network_entry_point():
    from repro.harness.experiment import synthesize_network

    result = synthesize_network("newtpla2")
    assert result.name == "newtpla2"
    assert result.shared_area <= result.isolated_area


def test_render_network_results(z4_net):
    from repro.harness.tables import render_network_results

    _instance, result = z4_net
    text = render_network_results([result])
    assert "z4" in text
    assert "Shared" in text and "Isolated" in text
    assert "total" in text


def test_realized_functions_are_fingerprint_stable():
    # The pool keys must be the canonical serializer's fingerprints —
    # the same primitive the result cache hashes — so cross-backend
    # sharing is sound by construction.
    mgr = fresh_manager(2)
    f = mgr.var("x1") & mgr.var("x2")
    pool = DivisorPool()
    pool.register(f, node=1)
    assert pool.entries[0].fingerprint == function_fingerprint(f)


def test_parallel_prefetch_skips_below_threshold_outputs():
    synthesizer = NetworkSynthesizer(NetsynConfig(literal_threshold=10**6))
    result = synthesizer.synthesize(load_benchmark("z4"), jobs=2)
    # Nothing is above the threshold, so nothing may reach the pool.
    assert synthesizer.engine.stats["dispatched"] == 0
    assert all(r["source"] == "cover" for r in result.per_output)


def test_parallel_falls_back_to_serial_when_batch_search_fails(monkeypatch):
    from repro.engine.decomposer import AutoSearchError, Decomposer

    serial = synthesize_instance(load_benchmark("z4"))

    def explode(self, *args, **kwargs):
        raise AutoSearchError("no operator fits")

    monkeypatch.setattr(Decomposer, "decompose_many", explode)
    recovered = synthesize_instance(load_benchmark("z4"), jobs=2)
    assert network_to_payload(recovered.network) == network_to_payload(
        serial.network
    )


# ---------------------------------------------------------------------------
# Warm-cover pool snapshots (cross-request sharing)
# ---------------------------------------------------------------------------


def test_pool_snapshot_merge_round_trip():
    from repro.netsyn.pool import POOL_SNAPSHOT_FORMAT

    pool = DivisorPool(collect_covers=True)
    payload = {"kind": "sop", "n_vars": 2, "cubes": [[1, 0]]}
    pool.remember_cover("spp|abc", payload)
    pool.remember_cover("spp|abc", {"kind": "sop", "n_vars": 2, "cubes": []})
    snapshot = pool.snapshot()
    assert snapshot["format"] == POOL_SNAPSHOT_FORMAT
    assert snapshot["covers"] == {"spp|abc": payload}  # first write wins

    other = DivisorPool()
    assert other.warm_cover("spp|abc") is None  # empty: not even a lookup
    assert other.stats["warm_lookups"] == 0
    assert other.merge(snapshot) == 1
    assert other.collect_covers  # merging implies participation
    assert other.warm_cover("spp|abc") == payload
    assert other.warm_cover("spp|missing") is None
    assert other.stats == {
        **other.stats,
        "warm_lookups": 2,
        "warm_hits": 1,
        "warm_imported": 1,
    }
    assert other.merge(snapshot) == 0  # re-import is idempotent
    assert other.merge(None) == 0


def test_pool_merge_rejects_foreign_snapshots():
    from repro.bdd.serialize import SerializationError

    pool = DivisorPool()
    with pytest.raises(SerializationError):
        pool.merge({"format": "something-else/1", "covers": {}})
    with pytest.raises(SerializationError):
        pool.merge({"format": "repro-pool/1", "covers": ["not", "a", "dict"]})


def test_collect_covers_off_skips_bookkeeping():
    pool = DivisorPool()
    pool.remember_cover("spp|abc", {"kind": "sop", "n_vars": 1, "cubes": []})
    assert pool.snapshot()["covers"] == {}


def test_warm_pool_replay_builds_identical_network():
    config = NetsynConfig()
    first = NetworkSynthesizer(config)
    cold = first.synthesize(load_benchmark("z4", "bdd"), collect_covers=True)
    seed = first.last_pool.snapshot()
    assert seed["covers"]  # the run remembered its minimized covers

    second = NetworkSynthesizer(config)
    warm = second.synthesize(load_benchmark("z4", "bdd"), pool_seed=seed)
    assert warm.pool_stats["warm_hits"] > 0
    assert network_to_payload(warm.network) == network_to_payload(cold.network)
    assert warm.per_output == cold.per_output
    assert warm.shared_area == cold.shared_area
    assert warm.isolated_area == cold.isolated_area


def test_cache_hit_leaves_no_last_pool(tmp_path):
    synthesizer = NetworkSynthesizer(NetsynConfig())
    synthesizer.synthesize(load_benchmark("z4"), cache=tmp_path)
    assert synthesizer.last_pool is not None
    cached = synthesizer.synthesize(load_benchmark("z4"), cache=tmp_path)
    assert cached.cached
    assert synthesizer.last_pool is None
