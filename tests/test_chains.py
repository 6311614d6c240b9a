"""The IRREDUNDANT and REDUCE containment questions (twolevel/containment.py).

The oracles are the plain prefix/suffix OR-chain passes: every answer of
:mod:`repro.twolevel.containment`, on any backend and under any variable
order, must match them item for item.
"""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend.bitset import BitsetBDD
from repro.bdd.manager import BDD
from repro.cover.cube import Cube
from repro.spp.pseudocube import XorFactor
from repro.spp.spp_cover import SppCover
from repro.spp.synthesis import (
    _spp_irredundant,
    _spp_irredundant_masks,
    minimize_spp_heuristic,
)
from repro.twolevel import containment
from repro.twolevel.espresso import espresso_minimize
from tests.conftest import fresh_manager, function_of_bits, isf_from_masks, load_into

N_VARS = 6
KINDS = ("bdd", "bitset", "reordered")


def random_cubes(rng: Random, n_vars: int, count: int) -> list[Cube]:
    cubes = []
    for _ in range(count):
        pos = neg = 0
        for var in rng.sample(range(n_vars), rng.randint(1, n_vars)):
            if rng.random() < 0.5:
                pos |= 1 << var
            else:
                neg |= 1 << var
        cubes.append(Cube(n_vars, pos, neg))
    return cubes


def sweep_reference(items, to_function, base):
    """The plain prefix/suffix irredundant sweep."""
    functions = [to_function(item) for item in items]
    mgr = base.mgr
    suffix = [mgr.false] * (len(items) + 1)
    for index in range(len(items) - 1, -1, -1):
        suffix[index] = suffix[index + 1] | functions[index]
    kept = []
    prefix = base
    for index, (item, function) in enumerate(zip(items, functions)):
        if function <= prefix | suffix[index + 1]:
            continue
        kept.append(item)
        prefix = prefix | function
    return kept


def reduce_reference(cubes, on, n_vars):
    """The plain prefix/suffix REDUCE, supercubes by 2n literal tests."""
    mgr = on.mgr
    functions = [mgr.product(pos, neg) for pos, neg in cubes]
    suffix = [mgr.false] * (len(cubes) + 1)
    for index in range(len(cubes) - 1, -1, -1):
        suffix[index] = suffix[index + 1] | functions[index]
    reduced = []
    prefix = mgr.false
    for index, function in enumerate(functions):
        required = (function & on) - (prefix | suffix[index + 1])
        if required.is_false:
            continue
        pos = neg = 0
        for var in range(n_vars):
            if required <= mgr.var_at(var):
                pos |= 1 << var
            elif required <= ~mgr.var_at(var):
                neg |= 1 << var
        reduced.append((pos, neg))
        prefix = prefix | mgr.product(pos, neg)
    return reduced


def make_manager(kind: str):
    names = [f"x{i}" for i in range(N_VARS)]
    if kind == "bitset":
        return BitsetBDD(names)
    mgr = BDD(names)
    if kind == "reordered":
        # x0 x3 + x1 x4 + x2 x5 is blocked in declaration order; sifting
        # interleaves it, so levels and declared variables differ.
        anchor = mgr.product(0b001001, 0) | mgr.product(0b010010, 0)
        anchor = anchor | mgr.product(0b100100, 0)
        mgr.reorder()
        assert mgr.var_order() != mgr.var_names
    return mgr


@st.composite
def pseudoproducts(draw, xors: bool = True):
    """A ``(pos, neg, xors)`` triple over ``N_VARS`` variables."""
    roles = draw(
        st.lists(
            st.sampled_from("-01x" if xors else "-01"),
            min_size=N_VARS,
            max_size=N_VARS,
        )
    )
    pos = neg = 0
    factors = []
    pending = None
    for var, role in enumerate(roles):
        if role == "1":
            pos |= 1 << var
        elif role == "0":
            neg |= 1 << var
        elif role == "x":
            if pending is None:
                pending = var
            else:
                factors.append(XorFactor(pending, var, draw(st.integers(0, 1))))
                pending = None
    return pos, neg, frozenset(factors)


table_bits = st.integers(min_value=0, max_value=(1 << (1 << N_VARS)) - 1)
dc_bits = st.one_of(st.just(0), table_bits)


@pytest.mark.parametrize("kind", KINDS)
@given(items=st.lists(pseudoproducts(), max_size=8), dc=dc_bits)
@settings(max_examples=60, deadline=None)
def test_irredundant_matches_sweep_reference(kind, items, dc):
    mgr = make_manager(kind)
    dc_function = function_of_bits(mgr, dc)
    expected = sweep_reference(
        list(range(len(items))),
        lambda index: mgr.spp_product(*items[index]),
        dc_function,
    )
    assert containment.irredundant(items, dc_function) == expected


@pytest.mark.parametrize("kind", KINDS)
@given(
    cubes=st.lists(pseudoproducts(xors=False), max_size=8),
    on=table_bits,
)
@settings(max_examples=60, deadline=None)
def test_reduce_matches_chain_reference(kind, cubes, on):
    mgr = make_manager(kind)
    on_function = function_of_bits(mgr, on)
    masks = [(pos, neg) for pos, neg, _xors in cubes]
    expected = reduce_reference(masks, on_function, N_VARS)
    assert containment.reduce(masks, on_function, N_VARS) == expected


@pytest.mark.parametrize("kind", KINDS)
@given(bits=table_bits)
@settings(max_examples=60, deadline=None)
def test_supercube_matches_literal_tests(kind, bits):
    mgr = make_manager(kind)
    function = function_of_bits(mgr, bits)
    expected = None
    if not function.is_false:
        pos = neg = 0
        for var in range(N_VARS):
            if function <= mgr.var_at(var):
                pos |= 1 << var
            elif function <= ~mgr.var_at(var):
                neg |= 1 << var
        expected = (pos, neg)
    assert containment.supercube_masks(function, N_VARS) == expected


@pytest.mark.parametrize("kind", ("bdd", "reordered"))
@given(bits=table_bits.filter(bool))
@settings(max_examples=60, deadline=None)
def test_witness_is_a_point_of_the_function(kind, bits):
    mgr = make_manager(kind)
    function = function_of_bits(mgr, bits)
    point = containment._witness(mgr, function.node)
    minterm = sum(
        ((point >> var) & 1) << (N_VARS - 1 - var) for var in range(N_VARS)
    )
    assert function(minterm)


def test_sweep_matches_reference_on_random_covers():
    rng = Random(7)
    for trial in range(25):
        mgr = fresh_manager(5)
        cubes = random_cubes(rng, 5, rng.randint(0, 10))
        base = mgr.false
        if rng.random() < 0.5:
            base = Cube(5, 1, 0).to_function(mgr)
        expected = sweep_reference(cubes, lambda cube: cube.to_function(mgr), base)
        kept = containment.irredundant(
            [(cube.pos, cube.neg, ()) for cube in cubes], base
        )
        assert [cubes[index] for index in kept] == expected, trial


def test_memo_distinguishes_bases():
    """The dc-set decides: a covering one drops the cube, an empty one keeps it."""
    for kind in KINDS:
        mgr = make_manager(kind)
        cube = (0b001, 0, ())
        assert containment.irredundant([cube], mgr.true) == []
        assert containment.irredundant([cube], mgr.false) == [0]


def test_spp_irredundant_identical_with_memo():
    """Duplicated items: the first copies go, the second copies stay."""
    rng = Random(9)
    mgr = fresh_manager(5)
    isf = isf_from_masks(mgr, rng.getrandbits(32), 0)
    cover = minimize_spp_heuristic(isf)
    padded = SppCover(
        cover.n_vars,
        list(cover.pseudocubes) + list(cover.pseudocubes),
    )
    kept = _spp_irredundant(padded, isf.dc, mgr)
    assert kept.pseudocubes == cover.pseudocubes
    triples = [(pc.pos, pc.neg, pc.xors) for pc in padded.pseudocubes]
    assert _spp_irredundant_masks(triples, isf.dc, mgr) == [
        (pc.pos, pc.neg, pc.xors) for pc in cover.pseudocubes
    ]


def test_full_minimizers_unchanged_by_chain_memo():
    """Valid covers, and the same ones on a BDD and on a bitset manager."""
    rng = Random(17)
    for _ in range(5):
        mgr = fresh_manager(5)
        isf = isf_from_masks(mgr, rng.getrandbits(32), rng.getrandbits(8))
        bitset = load_into(isf, "bitset")
        sop = espresso_minimize(isf)
        realized = sop.to_function(mgr)
        assert isf.on <= realized and realized <= isf.upper
        assert espresso_minimize(bitset).cubes == sop.cubes
        spp = minimize_spp_heuristic(isf)
        realized_spp = spp.to_function(mgr)
        assert isf.on <= realized_spp and realized_spp <= isf.upper
        assert minimize_spp_heuristic(bitset).pseudocubes == spp.pseudocubes
