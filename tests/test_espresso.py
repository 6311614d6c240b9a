"""Tests for the espresso-style heuristic two-level minimizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.bitset import BitsetBDD
from repro.bdd.manager import BDD
from repro.boolfunc.isf import ISF
from repro.cover.cover import Cover
from repro.cover.cube import Cube
from repro.twolevel.espresso import espresso_minimize, initial_cover, supercube_of
from repro.twolevel.quine_mccluskey import minimize_exact
from tests.conftest import fresh_manager, function_of_bits, isf_from_masks

tt_bits = st.integers(min_value=0, max_value=2**16 - 1)


@given(tt_bits, tt_bits)
@settings(max_examples=50, deadline=None)
def test_result_is_within_bounds(on_bits, dc_bits):
    mgr = fresh_manager(4)
    f = isf_from_masks(mgr, on_bits, dc_bits)
    cover = espresso_minimize(f)
    realized = cover.to_function(mgr)
    assert f.on <= realized
    assert realized <= f.upper


@given(tt_bits)
@settings(max_examples=30, deadline=None)
def test_no_single_cube_redundancy(on_bits):
    mgr = fresh_manager(4)
    f = isf_from_masks(mgr, on_bits, 0)
    cover = espresso_minimize(f)
    for index, cube in enumerate(cover.cubes):
        rest = mgr.false
        for other_index, other in enumerate(cover.cubes):
            if other_index != index:
                rest = rest | other.to_function(mgr)
        # Removing any cube must lose some on-set minterm.
        assert not (f.on <= rest)


@given(tt_bits, tt_bits)
@settings(max_examples=25, deadline=None)
def test_close_to_exact_product_count(on_bits, dc_bits):
    mgr = fresh_manager(4)
    f = isf_from_masks(mgr, on_bits, dc_bits)
    heuristic = espresso_minimize(f)
    exact = minimize_exact(
        4, list(f.on.minterms()), list(f.dc.minterms())
    )
    # Heuristic never beats exact, and stays within a 1.5x + 1 envelope.
    assert heuristic.cube_count() >= exact.cube_count()
    assert heuristic.cube_count() <= int(1.5 * exact.cube_count()) + 1


def test_constants():
    mgr = fresh_manager(3)
    zero = ISF.completely_specified(mgr.false)
    assert espresso_minimize(zero).cube_count() == 0
    one = ISF.completely_specified(mgr.true)
    cover = espresso_minimize(one)
    assert cover.cube_count() == 1
    assert cover.cubes[0].literal_count == 0


def test_initial_cover_is_valid():
    mgr = fresh_manager(4)
    f = isf_from_masks(mgr, 0b1010_0101_0011_1100, 0b0101_0000_1100_0000)
    cover = initial_cover(f)
    realized = cover.to_function(mgr)
    assert f.on <= realized <= f.upper


def test_supercube_of():
    mgr = fresh_manager(4)
    f = mgr.cube({"x1": 1, "x2": 0}) | mgr.cube({"x1": 1, "x2": 1, "x3": 0})
    cube = supercube_of(f, 4)
    assert cube is not None
    assert cube.to_string() == "1---"
    assert supercube_of(mgr.false, 4) is None
    full = supercube_of(mgr.true, 4)
    assert full is not None and full.literal_count == 0


def test_paper_figure1_quotient():
    # h with on = f_on and dc = g_off: minimal SOP is x1 + x3 (2 literals).
    mgr = fresh_manager(4)
    on = mgr.minterm(7) | mgr.minterm(13) | mgr.minterm(15)
    g = mgr.cube({"x2": 1, "x4": 1})
    h = ISF(on, ~g)
    cover = espresso_minimize(h)
    assert cover.literal_count() == 2
    assert cover.cube_count() == 2


def test_initial_cover_seeding_is_respected():
    mgr = fresh_manager(4)
    f = isf_from_masks(mgr, 0b0110_1001_1001_0110, 0)  # parity
    seed = initial_cover(f)
    cover = espresso_minimize(f, initial=seed)
    # Parity of 4 variables requires exactly 8 minterm cubes.
    assert cover.cube_count() == 8
    assert cover.literal_count() == 32


@pytest.mark.parametrize("manager", [BDD, BitsetBDD])
def test_reduce_pays_from_a_minterm_seed_but_not_from_the_isop(manager):
    """Why espresso keeps its REDUCE rounds although the 2-SPP seed skips
    them: from the on-set minterms in this order, EXPAND and IRREDUNDANT
    stop at 5 cubes and REDUCE reaches 4; from the ISOP there is nothing
    left to gain."""
    mgr = manager([f"x{i + 1}" for i in range(4)])
    on = function_of_bits(mgr, sum(1 << m for m in (0, 5, 6, 7, 9, 11, 13)))
    f = ISF(on, mgr.false)
    minterms = Cover(4, [Cube.from_minterm(4, m) for m in (13, 5, 9, 6, 7, 0, 11)])

    def cost(cover):
        return cover.cube_count(), cover.literal_count()

    assert cost(espresso_minimize(f, initial=minterms)) == (4, 13)
    assert cost(espresso_minimize(f, initial=minterms, max_iterations=0)) == (5, 16)
    assert cost(initial_cover(f)) == (4, 13)
    assert cost(espresso_minimize(f)) == (4, 13)
    assert cost(espresso_minimize(f, max_iterations=0)) == (4, 13)
