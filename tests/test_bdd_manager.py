"""Unit and property tests for the ROBDD engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.bitset import BitsetBDD
from repro.utils.rng import make_rng
from tests.conftest import fresh_manager, function_of_bits, reordered_manager

tt_bits4 = st.integers(min_value=0, max_value=2**16 - 1)


class TestConstruction:
    def test_constants(self):
        mgr = fresh_manager(3)
        assert mgr.false.is_false and not mgr.false.is_true
        assert mgr.true.is_true and not mgr.true.is_false

    def test_variable_projection(self):
        mgr = fresh_manager(3)
        x1 = mgr.var("x1")
        # x1 is the MSB of the minterm index.
        for m in range(8):
            assert x1(m) == bool(m & 0b100)

    def test_var_at_matches_var(self):
        mgr = fresh_manager(4)
        for i, name in enumerate(mgr.var_names):
            assert mgr.var_at(i) == mgr.var(name)

    def test_duplicate_variable_rejected(self):
        mgr = fresh_manager(2)
        with pytest.raises(ValueError):
            mgr.add_var("x1")

    def test_cube_construction(self):
        mgr = fresh_manager(4)
        cube = mgr.cube({"x1": 1, "x3": 0})
        for m in range(16):
            expected = bool(m & 0b1000) and not bool(m & 0b0010)
            assert cube(m) == expected

    def test_minterm_function(self):
        mgr = fresh_manager(4)
        for m in (0, 5, 11, 15):
            f = mgr.minterm(m)
            assert f.satcount() == 1
            assert list(f.minterms()) == [m]


class TestCanonicity:
    def test_equal_functions_share_nodes(self):
        mgr = fresh_manager(3)
        a = (mgr.var("x1") & mgr.var("x2")) | mgr.var("x3")
        b = mgr.var("x3") | (mgr.var("x2") & mgr.var("x1"))
        assert a == b
        assert a.node == b.node

    def test_demorgan(self):
        mgr = fresh_manager(3)
        x, y = mgr.var("x1"), mgr.var("x2")
        assert ~(x & y) == (~x | ~y)
        assert ~(x | y) == (~x & ~y)

    def test_double_negation(self):
        mgr = fresh_manager(3)
        f = mgr.var("x1") ^ mgr.var("x2")
        assert ~~f == f

    @given(tt_bits4, tt_bits4, st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_binary_ops_match_bitwise(self, bits_a, bits_b, reordered):
        mgr = reordered_manager(4) if reordered else fresh_manager(4)
        a = function_of_bits(mgr, bits_a)
        b = function_of_bits(mgr, bits_b)
        for m in range(16):
            bit_a = bool((bits_a >> m) & 1)
            bit_b = bool((bits_b >> m) & 1)
            assert (a & b)(m) == (bit_a and bit_b)
            assert (a | b)(m) == (bit_a or bit_b)
            assert (a ^ b)(m) == (bit_a != bit_b)
            assert (a - b)(m) == (bit_a and not bit_b)
            assert (~a)(m) == (not bit_a)


class TestQueries:
    @given(tt_bits4)
    @settings(max_examples=50, deadline=None)
    def test_satcount_and_minterms(self, bits):
        mgr = fresh_manager(4)
        f = function_of_bits(mgr, bits)
        expected = [m for m in range(16) if (bits >> m) & 1]
        assert f.satcount() == len(expected)
        assert list(f.minterms()) == expected

    def test_support(self):
        mgr = fresh_manager(4)
        f = mgr.var("x1") & (mgr.var("x3") ^ mgr.var("x4"))
        assert f.support() == ("x1", "x3", "x4")
        assert mgr.true.support() == ()

    def test_size_counts_nodes(self):
        mgr = fresh_manager(3)
        assert mgr.true.size() == 1
        assert mgr.var("x1").size() == 3  # node + 2 terminals

    def test_evaluate_by_name(self):
        mgr = fresh_manager(3)
        f = mgr.var("x1") | mgr.var("x3")
        assert f.evaluate({"x1": 1, "x2": 0, "x3": 0})
        assert not f.evaluate({"x1": 0, "x2": 1, "x3": 0})

    def test_subset_ordering(self):
        mgr = fresh_manager(3)
        x, y = mgr.var("x1"), mgr.var("x2")
        assert (x & y) <= x
        assert x >= (x & y)
        assert (x & y) < x
        assert not x <= (x & y)
        assert x.disjoint(~x)


class TestCofactorsAndQuantifiers:
    @given(tt_bits4)
    @settings(max_examples=30, deadline=None)
    def test_shannon_expansion(self, bits):
        mgr = fresh_manager(4)
        f = function_of_bits(mgr, bits)
        for name in mgr.var_names:
            var = mgr.var(name)
            rebuilt = (var & f.cofactor(name, 1)) | (~var & f.cofactor(name, 0))
            assert rebuilt == f

    @given(tt_bits4)
    @settings(max_examples=30, deadline=None)
    def test_quantifier_duality(self, bits):
        mgr = fresh_manager(4)
        f = function_of_bits(mgr, bits)
        names = ["x2", "x4"]
        assert f.exists(names) == ~((~f).forall(names))
        assert f.exists(names) == (
            f.cofactor("x2", 0).cofactor("x4", 0)
            | f.cofactor("x2", 0).cofactor("x4", 1)
            | f.cofactor("x2", 1).cofactor("x4", 0)
            | f.cofactor("x2", 1).cofactor("x4", 1)
        )

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_exists_matches_cofactor_or(self, data):
        """``exists`` against its definition, ``f|v=0 ∨ f|v=1`` per
        variable, over any subset: bottom suffixes of the order (the
        floor pruning), the full set, the empty set; plain and reordered
        managers, cold and warm apply tables, and the bitset backend."""
        reordered = data.draw(st.booleans())
        n_vars = data.draw(st.integers(4 if reordered else 1, 8))
        mgr = reordered_manager(n_vars) if reordered else fresh_manager(n_vars)
        bits = data.draw(st.integers(0, (1 << (1 << n_vars)) - 1))
        mode = data.draw(st.sampled_from(("any", "suffix", "full", "empty")))
        if mode == "any":
            names = data.draw(st.sets(st.sampled_from(mgr.var_names)))
        elif mode == "suffix":
            depth = data.draw(st.integers(1, n_vars))
            names = set(mgr.var_order()[n_vars - depth :])
        else:
            names = set(mgr.var_names) if mode == "full" else set()
        f = function_of_bits(mgr, bits)

        def by_cofactors(function):
            for name in names:
                function = function.cofactor(name, 0) | function.cofactor(name, 1)
            return function

        top = mgr.var_order()[0]
        halves = [f.cofactor(top, value) for value in (0, 1)]
        cold = [g.exists(names) for g in [f, *halves]]
        assert cold == [by_cofactors(g) for g in [f, *halves]]
        # Halves first, then f, then everything again: each walk starts
        # from an empty memo, and the disjunctions at quantified levels
        # meet the apply entries the earlier walks left.
        mgr.clear_caches()
        warm = [g.exists(names) for g in [*halves, f]]
        assert warm == [by_cofactors(g) for g in [*halves, f]]
        assert [g.exists(names) for g in [*halves, f]] == warm
        dense = function_of_bits(BitsetBDD(mgr.var_names), bits).exists(names)
        assert [dense(m) for m in range(1 << n_vars)] == [
            cold[0](m) for m in range(1 << n_vars)
        ]

    def test_restrict_multiple(self):
        mgr = fresh_manager(4)
        f = (mgr.var("x1") & mgr.var("x2")) ^ mgr.var("x4")
        g = f.restrict({"x1": 1, "x2": 1})
        assert g == ~mgr.var("x4")

    @given(tt_bits4, tt_bits4)
    @settings(max_examples=20, deadline=None)
    def test_compose_matches_pointwise(self, bits_f, bits_g):
        mgr = fresh_manager(4)
        f = function_of_bits(mgr, bits_f)
        g = function_of_bits(mgr, bits_g)
        composed = f.compose("x2", g)
        for m in range(16):
            # Replace bit of x2 (bit position 2 counting from MSB=x1).
            replaced = (m & ~0b0100) | (0b0100 if g(m) else 0)
            assert composed(m) == f(replaced)

    def test_ite(self):
        mgr = fresh_manager(3)
        c, a, b = mgr.var("x1"), mgr.var("x2"), mgr.var("x3")
        assert c.ite(a, b) == ((c & a) | (~c & b))


class TestConjunctionKernel:
    """``&``, ``|`` and ``-`` run on the two-operand ``_and`` kernel."""

    OPS = (
        ("&", lambda f, g: f & g, lambda f, g: f.ite(g, 0)),
        ("|", lambda f, g: f | g, lambda f, g: f.ite(1, g)),
        ("-", lambda f, g: f - g, lambda f, g: f.ite(~g, 0)),
    )

    def test_same_nodes_as_ite(self):
        """Edge for edge and node for node, ``_and`` builds what ``ite``
        builds: the same results and the same unique-table growth, so
        node indices (and every edge integer derived from them) agree.
        300 seeded sequences of 60 operations over 8 variables."""
        for seed in range(300):
            rng = make_rng(("and-kernel", seed))
            kernel, twin = fresh_manager(8), fresh_manager(8)
            pool_k = [kernel.var(name) for name in kernel.var_names]
            pool_t = [twin.var(name) for name in twin.var_names]
            for step in range(60):
                name, by_kernel, by_ite = rng.choice(self.OPS)
                i, j = rng.randrange(len(pool_k)), rng.randrange(len(pool_k))
                f_k, f_t = pool_k[i], pool_t[i]
                if rng.random() < 0.3:
                    f_k, f_t = ~f_k, ~f_t
                result_k = by_kernel(f_k, pool_k[j])
                result_t = by_ite(f_t, pool_t[j])
                where = (seed, step, name)
                assert result_k.node == result_t.node, where
                assert kernel.node_count() == twin.node_count(), where
                pool_k.append(result_k)
                pool_t.append(result_t)

    def test_paper_row_runs_without_ite(self, monkeypatch):
        """A whole BDD-backed row (2-SPP minimization, expansion, the
        quotient, verification and mapping) never reaches ``_ite``."""
        from repro.bdd.manager import BDD
        from repro.benchgen import load_benchmark
        from repro.harness.experiment import run_benchmark

        def refuse(*args, **kwargs):
            raise AssertionError("BDD._ite ran")

        monkeypatch.setattr(BDD, "_ite", refuse)
        row = run_benchmark(load_benchmark("z4", "bdd"))
        assert (row.area_f, row.area_and, row.area_nimp) == (255, 196, 251)
        assert row.pct_errors == pytest.approx(43.75)


class TestErrors:
    def test_mixing_managers_rejected(self):
        mgr_a = fresh_manager(2)
        mgr_b = fresh_manager(2)
        with pytest.raises(ValueError):
            _ = mgr_a.var("x1") & mgr_b.var("x1")

    def test_unknown_variable(self):
        mgr = fresh_manager(2)
        with pytest.raises(KeyError):
            mgr.var("nope")
