"""Complemented-edge invariants, computed-table eviction, and gc().

The manager rewrite changed the node representation (single terminal,
complement bit on edges) and added memory management (bounded computed
tables, mark-and-sweep collection rooted in weakly-tracked Function
handles).  These tests pin the new invariants; functional behavior is
covered by the original suites in ``test_bdd_manager.py`` etc.
"""

import pytest

from repro.bdd.manager import BDD, ComputedTable, Function
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
        """The _mk normalization invariant behind canonicity."""
        mgr = fresh_manager(5)
        rngish = 0
        f = mgr.false
        for m in range(0, 32, 3):
            f = f | mgr.minterm(m)
            rngish ^= m
        g = ~f ^ mgr.var("x2")
        assert not g.is_false
        for (level, low, high), index in mgr._unique.items():
            assert high & 1 == 0, f"complemented high edge stored at {index}"
            assert mgr._level[index] == level

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
        names = ("ite", "test", "cofactor", "exists", "compose", "satcount")
        assert set(stats["tables"]) == set(names)
        for name in names:
            assert set(stats["tables"][name]) == {
                "size", "capacity", "hits", "misses", "evictions",
            }
        # The conjunction kernel counts its lookups in the apply table.
        after = stats["tables"]["ite"]
        assert after["hits"] + after["misses"] > before["hits"] + before["misses"]
        assert stats["nodes"] == mgr.node_count()

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
