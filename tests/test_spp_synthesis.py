"""Tests for 2-SPP synthesis (exact and heuristic)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd.expr import parse_expression
from repro.benchgen import load_benchmark
from repro.boolfunc.isf import ISF
from repro.cover.cover import Cover
from repro.spp.pseudocube import Pseudocube, make_xor_factor
from repro.spp.spp_cover import SppCover
from repro.spp.synthesis import (
    _isop_seed,
    _try_merge,
    enumerate_maximal_pseudocubes,
    minimize_spp,
    minimize_spp_exact,
    minimize_spp_heuristic,
    sop_to_spp,
)
from repro.twolevel import espresso
from repro.twolevel.espresso import espresso_minimize
from tests.conftest import (
    fresh_manager,
    function_of_bits,
    isf_from_masks,
    manager_of_kind,
)

tt_bits = st.integers(min_value=0, max_value=2**16 - 1)


class TestMerge:
    def test_distance_one_literal_merge(self):
        a = Pseudocube.from_cube_like = Pseudocube(4, pos=0b0011)
        b = Pseudocube(4, pos=0b0001, neg=0b0010)
        merged = _try_merge(a, b)
        assert merged is not None
        assert merged.pos == 0b0001 and merged.neg == 0
        assert not merged.xors

    def test_two_conflicts_create_xor(self):
        a = Pseudocube(4, pos=0b0011)  # x1 x2
        b = Pseudocube(4, neg=0b0011)  # ~x1 ~x2
        merged = _try_merge(a, b)
        assert merged is not None
        assert merged.xors == {make_xor_factor(0, 1, 0)}  # XNOR

    def test_opposite_phase_xors_cancel(self):
        fac1 = make_xor_factor(2, 3, 1)
        fac0 = make_xor_factor(2, 3, 0)
        a = Pseudocube(4, pos=0b0001, xors=frozenset({fac1}))
        b = Pseudocube(4, pos=0b0001, xors=frozenset({fac0}))
        merged = _try_merge(a, b)
        assert merged is not None
        assert merged.pos == 0b0001 and not merged.xors

    def test_incompatible_pairs_do_not_merge(self):
        a = Pseudocube(4, pos=0b0011)
        b = Pseudocube(4, pos=0b0100)
        assert _try_merge(a, b) is None
        c = Pseudocube(4, pos=0b0001)  # different bound sets
        assert _try_merge(a, c) is None

    def test_merge_preserves_semantics(self):
        mgr = fresh_manager(4)
        a = Pseudocube(4, pos=0b0101, neg=0b0010)
        b = Pseudocube(4, pos=0b0110, neg=0b0001)
        merged = _try_merge(a, b)
        if merged is not None:
            assert merged.to_function(mgr) == (
                a.to_function(mgr) | b.to_function(mgr)
            )


class TestSopToSpp:
    def test_figure2_merge(self):
        # The 4-product SOP of (x1|x2)(x3^x4) merges into 2 pseudoproducts.
        sop = Cover.from_strings(["1-01", "1-10", "-101", "-110"])
        spp = sop_to_spp(sop)
        assert spp.pseudoproduct_count() == 2
        assert spp.literal_count() == 6
        mgr = fresh_manager(4)
        assert spp.to_function(mgr) == sop.to_function(mgr)

    def test_parity_compression(self):
        # 4-variable parity: 8 minterm cubes -> pseudoproducts with XORs.
        mgr = fresh_manager(4)
        parity_on = [m for m in range(16) if bin(m).count("1") % 2]
        sop = Cover(4, [])
        from repro.cover.cube import Cube

        sop = Cover(4, [Cube.from_minterm(4, m) for m in parity_on])
        spp = sop_to_spp(sop)
        assert spp.to_function(mgr).satcount() == 8
        assert spp.literal_count() < sop.literal_count()


class TestExact:
    def test_figure2_exact(self):
        mgr = fresh_manager(4)
        f = ISF.completely_specified(
            parse_expression(mgr, "(x1 | x2) & (x3 ^ x4)")
        )
        spp = minimize_spp_exact(f)
        assert spp.pseudoproduct_count() == 2
        assert spp.literal_count() == 6
        assert spp.to_function(mgr) == f.on

    def test_xor_function_is_single_pseudoproduct(self):
        mgr = fresh_manager(4)
        f = ISF.completely_specified(parse_expression(mgr, "x3 ^ x4"))
        spp = minimize_spp_exact(f)
        assert spp.pseudoproduct_count() == 1
        assert spp.literal_count() == 2

    def test_constants(self):
        mgr = fresh_manager(3)
        zero = ISF.completely_specified(mgr.false)
        assert minimize_spp_exact(zero).pseudoproduct_count() == 0
        one = ISF.completely_specified(mgr.true)
        spp = minimize_spp_exact(one)
        assert spp.pseudoproduct_count() == 1
        assert spp.literal_count() == 0

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=20, deadline=None)
    def test_exact_is_within_bounds_and_beats_sop(self, bits):
        mgr = fresh_manager(4)
        f = isf_from_masks(mgr, bits, 0)
        spp = minimize_spp_exact(f)
        assert spp.to_function(mgr) == f.on
        sop = espresso_minimize(f)
        # 2-SPP can always fall back to the SOP, so it is never worse in
        # (pseudoproducts, literals) lexicographic cost.
        assert spp.cost() <= (sop.cube_count(), sop.literal_count())

    def test_maximal_pseudocube_enumeration_bounds(self):
        mgr = fresh_manager(4)
        f = isf_from_masks(mgr, 0b0110_1001_1001_0110, 0)
        maximal = enumerate_maximal_pseudocubes(f)
        upper = f.upper
        for pc in maximal:
            fn = pc.to_function(mgr)
            assert fn <= upper
            # Maximality: every expansion leaves the upper bound.
            for expanded in pc.expansions():
                assert not expanded.to_function(mgr) <= upper


class TestHeuristic:
    @given(tt_bits, tt_bits)
    @settings(max_examples=25, deadline=None)
    def test_heuristic_is_within_bounds(self, on_bits, dc_bits):
        mgr = fresh_manager(4)
        f = isf_from_masks(mgr, on_bits, dc_bits)
        spp = minimize_spp_heuristic(f)
        realized = spp.to_function(mgr)
        assert f.on <= realized <= f.upper

    @given(tt_bits)
    @settings(max_examples=15, deadline=None)
    def test_heuristic_close_to_exact(self, on_bits):
        mgr = fresh_manager(4)
        f = isf_from_masks(mgr, on_bits, 0)
        heuristic = minimize_spp_heuristic(f)
        exact = minimize_spp_exact(f)
        assert heuristic.pseudoproduct_count() <= 2 * max(
            exact.pseudoproduct_count(), 1
        )

    def test_initial_cover_seeding(self):
        mgr = fresh_manager(4)
        f = isf_from_masks(mgr, 0b0110_1001_1001_0110, 0)
        seed = espresso_minimize(f)
        spp = minimize_spp_heuristic(f, initial=seed)
        assert spp.to_function(mgr) == f.on

    def test_dispatcher_uses_exact_for_small(self):
        mgr = fresh_manager(4)
        f = ISF.completely_specified(
            parse_expression(mgr, "(x1 | x2) & (x3 ^ x4)")
        )
        spp = minimize_spp(f)
        assert spp.literal_count() == 6  # exact optimum


@st.composite
def seed_intervals(draw):
    """``(kind, n_vars, on, dc)`` over 4-8 variables, half with a dc-set."""
    kind = draw(st.sampled_from(["bdd", "bitset", "reordered"]))
    n_vars = draw(st.integers(4, 8))
    table = st.integers(0, (1 << (1 << n_vars)) - 1)
    dc = draw(table) & draw(table) if draw(st.booleans()) else 0
    return kind, n_vars, draw(table) & ~dc, dc


class TestIsopSeed:
    """The default 2-SPP seed is the cover espresso returns for the ISOP.

    ISOP cubes are prime, so espresso's EXPAND drops no literal, and each
    holds an on-set point no other cube covers, so IRREDUNDANT keeps
    them all: what is left is the ISOP under EXPAND's descending and
    containment's ascending stable sorts by literal count.
    """

    @given(interval=seed_intervals())
    @settings(max_examples=200, deadline=None)
    def test_seed_is_espresso_without_reduce(self, interval):
        kind, n_vars, on, dc = interval
        mgr = manager_of_kind(kind, n_vars)
        isf = ISF(function_of_bits(mgr, on), function_of_bits(mgr, dc))
        seed = _isop_seed(isf)
        for algebra in (True, False):
            cover = espresso_minimize(isf, max_iterations=0, algebra=algebra)
            assert [(cube.pos, cube.neg) for cube in cover.cubes] == seed

    @pytest.mark.parametrize("backend", ["auto", "bdd"])
    def test_heuristic_runs_no_espresso_pass(self, backend, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the 2-SPP seed ran an espresso pass")

        for name in (
            "_expand",
            "_irredundant",
            "_reduce",
            "_expand_cubes",
            "_irredundant_cubes",
            "_reduce_cubes",
        ):
            monkeypatch.setattr(espresso, name, refuse)
        isf = load_benchmark("z4", backend).outputs[-1]
        fast = minimize_spp_heuristic(isf)
        reference = minimize_spp_heuristic(isf, algebra=False)
        assert fast.pseudocubes == reference.pseudocubes


class TestSppCover:
    def test_cost_and_counts(self):
        pc = Pseudocube(4, pos=0b0001, xors=frozenset({make_xor_factor(2, 3, 1)}))
        cover = SppCover(4, [pc, Pseudocube(4, pos=0b0010)])
        assert cover.pseudoproduct_count() == 2
        assert cover.literal_count() == 4
        assert cover.xor_factor_count() == 1
        assert cover.cost() == (2, 4)

    def test_plain_sop_roundtrip(self):
        cover = Cover.from_strings(["1-0-", "-1-0"])
        spp = SppCover.from_cover(cover)
        assert spp.is_plain_sop()
        back = spp.to_cover()
        assert {c.to_string() for c in back} == {"1-0-", "-1-0"}

    def test_expression(self):
        names = ("x1", "x2", "x3", "x4")
        assert SppCover(4, []).to_expression(names) == "0"
