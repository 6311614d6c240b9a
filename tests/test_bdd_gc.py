"""Complemented-edge invariants, computed-table eviction, and gc().

The manager rewrite changed the node representation (single terminal,
complement bit on edges) and added memory management (bounded computed
tables, mark-and-sweep collection rooted in weakly-tracked Function
handles).  These tests pin the new invariants; functional behavior is
covered by the original suites in ``test_bdd_manager.py`` etc.
"""

import gc

import pytest

from repro.bdd import manager as bdd_manager
from repro.bdd.manager import EDGE_BITS, BDD, ComputedTable, Function, NodeLimitError
from repro.bdd.ops import isop
from repro.bdd.serialize import function_fingerprint
from tests.conftest import fresh_manager


# ---------------------------------------------------------------------------
# Complemented-edge invariants
# ---------------------------------------------------------------------------


class TestComplementedEdges:
    def test_negation_is_edge_flip(self):
        mgr = fresh_manager(4)
        f = (mgr.var("x1") & mgr.var("x2")) | mgr.var("x4")
        assert (~f).node == f.node ^ 1
        assert (~~f).node == f.node

    def test_constants_share_the_terminal(self):
        mgr = fresh_manager(2)
        assert mgr.false.node == 0
        assert mgr.true.node == 1
        assert mgr.true.node == mgr.false.node ^ 1

    def test_function_and_complement_share_nodes(self):
        mgr = fresh_manager(6)
        f = mgr.var("x1") ^ (mgr.var("x3") & mgr.var("x5"))
        before = mgr.node_count()
        g = ~f
        assert mgr.node_count() == before  # no new nodes for a negation
        assert (f | g).is_true and (f & g).is_false

    def test_stored_high_edges_are_regular(self):
        """The _mk normalization invariant behind canonicity, read off
        the packed unique keys ``(level << 2E) | (low << E) | high``:
        each key encodes its own node's level and children."""
        mgr = fresh_manager(5)
        f = mgr.false
        for m in range(0, 32, 3):
            f = f | mgr.minterm(m)
        g = ~f ^ mgr.var("x2")
        assert not g.is_false
        edge_mask = (1 << EDGE_BITS) - 1
        for key, index in mgr._unique.items():
            level = key >> (2 * EDGE_BITS)
            low = (key >> EDGE_BITS) & edge_mask
            high = key & edge_mask
            assert high & 1 == 0, f"complemented high edge stored at {index}"
            assert (level, low, high) == (
                mgr._level[index], mgr._low[index], mgr._high[index]
            )

    def test_size_matches_complement_free_convention(self):
        mgr = fresh_manager(3)
        assert mgr.true.size() == 1
        assert mgr.var("x1").size() == 3
        assert (~mgr.var("x1")).size() == 3


# ---------------------------------------------------------------------------
# Computed tables
# ---------------------------------------------------------------------------


class TestComputedTables:
    def test_bounded_eviction(self):
        table = ComputedTable(8)
        for key in range(20):
            table.put(key, key)
        assert len(table.data) <= 8
        assert table.evictions > 0
        # Newest entries survive the batch eviction.
        assert 19 in table.data

    def test_tables_below_capacity_2_still_evict(self):
        # Half of a capacity below 2 is no key at all: such a table (the
        # satcount, cofactor and compose tables of a small cache_size)
        # used to grow without bound.
        table = ComputedTable(1)
        for key in range(100):
            table.put(key, key)
        assert table.data == {99: 99} and table.evictions == 99
        mgr = BDD([f"x{i + 1}" for i in range(8)], cache_size=4)
        xs = [mgr.var(f"x{i + 1}") for i in range(8)]
        for i in range(40):
            a, b, c = xs[i % 8], xs[(3 * i + 1) % 8], xs[(5 * i + 2) % 8]
            f = (a & b) | (c ^ mgr.minterm(i * 37 % 256))
            g = f.ite(b, ~c)
            f.satcount()
            g.satcount()
            f.cofactor(f"x{i % 8 + 1}", i % 2)
            g.compose(f"x{(i + 3) % 8 + 1}", a | c)
            assert (f <= (f | g)) and (f - g).disjoint(g)
            f.exists([f"x{i % 8 + 1}"])
            mgr.product(1 << (i % 8), 1 << ((i + 1) % 8))
        tables = mgr.stats()["tables"]
        assert {stats["capacity"] for stats in tables.values()} == {1, 4}
        for name, stats in tables.items():
            assert stats["size"] <= max(stats["capacity"], 1), name
            assert stats["misses"] > stats["capacity"], name

    def test_eviction_does_not_change_results(self):
        big = fresh_manager(8)
        small = BDD([f"x{i + 1}" for i in range(8)], cache_size=64)
        build = lambda mgr: [
            (mgr.var("x1") & mgr.var("x2"))
            | (mgr.var("x3") ^ mgr.var("x4"))
            | (mgr.var("x5") & ~mgr.var("x6") & mgr.var(f"x{7 + (i % 2)}"))
            ^ mgr.minterm(i * 37 % 256)
            for i in range(40)
        ]
        fingerprints = [function_fingerprint(f) for f in build(big)]
        assert [function_fingerprint(f) for f in build(small)] == fingerprints
        assert small.stats()["tables"]["ite"]["evictions"] > 0

    def test_stats_report_all_tables(self):
        mgr = fresh_manager(4)
        x1, x2 = mgr.var("x1"), mgr.var("x2")
        before = mgr.stats()["tables"]["ite"]
        f = x1 & x2
        f.satcount()
        stats = mgr.stats()
        names = ("ite", "test", "cofactor", "compose", "satcount")
        assert set(stats["tables"]) == set(names)
        for name in names:
            assert set(stats["tables"][name]) == {
                "size", "capacity", "hits", "misses", "evictions",
            }
        # The conjunction kernel counts its lookups in the apply table.
        after = stats["tables"]["ite"]
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]
        assert stats["nodes"] == mgr.node_count()

    def test_kernel_keys_never_enter_the_cyclic_collector(self):
        """Unique, apply and test keys are packed ints, which the
        collector never tracks, so no collection is needed to drop them.
        A tuple key stayed tracked until a collection reached it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            mgr = fresh_manager(8)
            x = [mgr.var(f"x{i + 1}") for i in range(8)]
            f = (x[0] & x[1]) | (x[2] ^ x[5]) | (x[3] & ~x[6] & x[7])
            g = f | (x[4] - x[1])
            assert f <= g and not g <= f
            cubes, realized = isop(f, g)
            assert cubes and f <= realized <= g
            tables = {
                "unique": mgr._unique,
                "apply": mgr._ite_cache.data,
                "test": mgr._test_cache.data,
            }
            for name, table in tables.items():
                assert table, name
                assert not any(gc.is_tracked(key) for key in table), name
        finally:
            if enabled:
                gc.enable()

    def test_paper_row_counters_are_pinned(self):
        """A BDD-backed row allocates and memoizes exactly as recorded:
        every table's hits and misses and the node counts.  A key change
        that merged or split entries would move them, and so would a
        minimizer that runs more or fewer BDD operations; no golden
        would.  Recorded when the approximation began counting its
        expansion costs without building each ``expanded & off`` (nodes
        were 1087, ite 1908/2879, satcount 336/507 and user:product
        574/180 before; before the 2-SPP loop stopped repeating work,
        nodes were 1204, ite 2135/3265, exists 71/1052 and user:product
        975/180)."""
        from repro.benchgen import load_benchmark
        from repro.harness.experiment import run_benchmark

        instance = load_benchmark("z4", "bdd")
        run_benchmark(instance)
        stats = instance.mgr.stats()
        assert (stats["nodes"], stats["allocated"]) == (901, 901)
        counters = {
            name: (table["hits"], table["misses"])
            for name, table in stats["tables"].items()
        }
        assert counters == {
            "ite": (1516, 2369),
            "test": (82, 322),
            "cofactor": (0, 0),
            "compose": (0, 0),
            "satcount": (140, 102),
            "user:product": (456, 134),
        }

    def test_node_limit_guards_the_packed_keys(self, monkeypatch):
        """With 6-bit edges node 32 would need a 7-bit edge: the manager
        raises before handing it out, and everything built up to there
        is exact."""
        monkeypatch.setattr(bdd_manager, "EDGE_BITS", 6)
        mgr = fresh_manager(6)
        built = []
        with pytest.raises(NodeLimitError):
            for m in range(64):
                f = mgr.minterm(m) | mgr.minterm(63 - m)
                built.append((m, f))
        assert built
        assert len(mgr._level) == 32 and len(mgr._unique) == 31
        for m, f in built:
            assert [f(i) for i in range(64)] == [i in (m, 63 - m) for i in range(64)]

    def test_user_tables_share_lifecycle(self):
        mgr = fresh_manager(4)
        table = mgr.computed_table("scratch", capacity=16)
        table.put(("k",), 42)
        assert mgr.computed_table("scratch") is table
        assert "user:scratch" in mgr.stats()["tables"]
        mgr.clear_caches()
        assert table.get(("k",)) is None


# ---------------------------------------------------------------------------
# Garbage collection
# ---------------------------------------------------------------------------


class TestGc:
    def test_gc_reclaims_unreachable_nodes(self):
        mgr = fresh_manager(10)
        keep = mgr.var("x1") & mgr.var("x2")
        for m in range(200):
            _ = mgr.minterm(m % 1024) | keep  # garbage intermediates
        grown = mgr.node_count()
        report = mgr.gc()
        assert report["swept"] > 0
        assert mgr.node_count() < grown

    def test_gc_keeps_live_handles_intact(self):
        mgr = fresh_manager(6)
        f = (mgr.var("x1") ^ mgr.var("x3")) & ~mgr.var("x6")
        node_before = f.node
        truth = [f(m) for m in range(64)]
        fingerprint = function_fingerprint(f)
        for m in range(100):
            _ = mgr.minterm(m % 64) ^ f
        mgr.gc()
        # Node ids of live handles are never remapped (hash stability).
        assert f.node == node_before
        assert [f(m) for m in range(64)] == truth
        assert function_fingerprint(f) == fingerprint
        # The manager is fully usable afterwards: rebuilds recreate
        # swept structures through the unique table.
        assert (f ^ f).is_false
        assert (f | ~f).is_true
        assert mgr.var("x1") == mgr.var_at(0)

    def test_gc_recycles_slots(self):
        mgr = fresh_manager(8)
        for m in range(100):
            _ = mgr.minterm(m)
        mgr.gc()
        allocated = len(mgr._level)
        for m in range(50):
            _ = mgr.minterm(m)
        # New nodes reuse freed slots instead of growing the arrays.
        assert len(mgr._level) == allocated

    def test_gc_stats_counters(self):
        mgr = fresh_manager(4)
        _ = mgr.var("x1") & mgr.var("x2")
        mgr.gc()
        stats = mgr.stats()
        assert stats["gc_runs"] == 1
        assert stats["gc_reclaimed"] >= 0

    def test_decompose_many_gc_threshold(self):
        """The engine collects between requests past the threshold."""
        from repro.boolfunc.isf import ISF
        from repro.engine.decomposer import Decomposer
        from repro.utils.rng import make_rng

        mgr = fresh_manager(4)
        rng = make_rng("gc-threshold-batch")
        batch = [(f"r{i}", ISF.random(mgr, rng)) for i in range(4)]
        engine = Decomposer()
        results = engine.decompose_many(batch, op="AND", gc_threshold=1)
        assert all(r.verified for r in results)
        assert mgr.stats()["gc_runs"] >= 1

        # And the collected run matches an uncollected one exactly.
        mgr2 = fresh_manager(4)
        rng2 = make_rng("gc-threshold-batch")
        batch2 = [(f"r{i}", ISF.random(mgr2, rng2)) for i in range(4)]
        baseline = Decomposer().decompose_many(batch2, op="AND", gc_threshold=None)
        assert [function_fingerprint(r.decomposition.g) for r in results] == [
            function_fingerprint(r.decomposition.g) for r in baseline
        ]
        assert [r.literal_cost for r in results] == [r.literal_cost for r in baseline]

    def test_weakref_registry_compacts(self):
        mgr = fresh_manager(4)
        mgr._handle_limit = 128
        for m in range(2000):
            _ = mgr.minterm(m % 16)
        # Dead refs are dropped by the amortized compaction, so the
        # registry tracks the live population, not allocation history.
        assert len(mgr._handles) <= 2 * 128 + 16


class TestHandleRegistry:
    def test_live_minterm_iterator_survives_gc(self):
        """A minterms() generator must root its function: gc() while an
        iterator is outstanding (e.g. decompose_many's auto-gc) must not
        recycle the nodes being enumerated (regression)."""
        mgr = fresh_manager(6)
        f = mgr.var("x1") ^ mgr.var("x2") ^ mgr.var("x6")
        expected = list(f.minterms())
        iterator = (mgr.var("x1") ^ mgr.var("x2") ^ mgr.var("x6")).minterms()
        assert next(iterator) == expected[0]
        del f
        mgr.gc()
        for m in range(40):  # churn that reuses any freed slots
            _ = mgr.minterm(m) | mgr.var("x3")
        assert [next(iterator)] + list(iterator) == expected[1:]

    def test_direct_function_handles_are_gc_roots(self):
        """Function() constructed directly (not via operators) must be
        rooted too — convert.py builds handles this way."""
        mgr = fresh_manager(4)
        edge = mgr._mk(0, 0, 1)
        handle = Function(mgr, edge)
        mgr.gc()
        assert handle(0b1000) and not handle(0)


def test_node_count_excludes_free_slots():
    mgr = fresh_manager(6)
    for m in range(50):
        _ = mgr.minterm(m)
    mgr.gc()
    assert mgr.node_count() == len(mgr._level) - len(mgr._free)
    assert mgr.stats()["free_slots"] == len(mgr._free)


def test_pickling_functions_is_not_supported():
    """Handles carry a weakref slot; the serialize module is the wire
    format, not pickle."""
    import pickle

    mgr = fresh_manager(2)
    with pytest.raises(Exception):
        pickle.dumps(mgr.var("x1"))
