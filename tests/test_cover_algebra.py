"""Differential tests for the mask-native minimizer paths.

:class:`CoverAlgebra`'s round trips, measures and single-cube
containment are pinned against the :class:`~repro.cover.cover.Cover`
reference implementation.  Every minimizer entry point is pinned
against its retained ``algebra=False`` object path, which must produce
byte-identical covers; for 2-SPP that path tests every EXPAND
candidate of every item in every round, so it is also the oracle for
the mask path's off-set projections and dead-end skips.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bdd.manager import BDD
from repro.boolfunc.convert import truthtable_to_function
from repro.boolfunc.isf import ISF
from repro.boolfunc.truthtable import TruthTable
from repro.cover.algebra import CoverAlgebra
from repro.cover.cover import Cover
from repro.cover.cube import Cube
from repro.spp import synthesis
from repro.spp.synthesis import minimize_spp_heuristic
from repro.twolevel.espresso import espresso_minimize
from repro.twolevel.quine_mccluskey import minimize_exact
from repro.utils.rng import make_rng
from tests.conftest import function_of_bits, manager_of_kind

N_VARS = 5


def _random_cube(rng) -> Cube:
    pos = neg = 0
    for var in range(N_VARS):
        roll = rng.random()
        if roll < 0.35:
            pos |= 1 << var
        elif roll < 0.7:
            neg |= 1 << var
    return Cube(N_VARS, pos, neg)


def _random_cubes(seed: str, count: int) -> list[Cube]:
    rng = make_rng(seed)
    return [_random_cube(rng) for _ in range(count)]


@pytest.fixture
def mgr():
    return BDD([f"x{i + 1}" for i in range(N_VARS)])


# ---------------------------------------------------------------------------
# CoverAlgebra vs Cover reference
# ---------------------------------------------------------------------------


def _paired(seed: str, count: int = 12) -> tuple[Cover, CoverAlgebra]:
    cover = Cover(N_VARS, _random_cubes(seed, count))
    return cover, CoverAlgebra.from_cover(cover)


def test_roundtrip_and_measures():
    cover, algebra = _paired("algebra-measures")
    assert algebra.to_cover().cubes == cover.cubes
    assert algebra.cube_count() == cover.cube_count()
    assert algebra.literal_count() == cover.literal_count()
    assert algebra.literal_counts() == [
        cube.literal_count for cube in cover.cubes
    ]


def test_from_masks_matches_from_cover():
    cover, algebra = _paired("algebra-from-masks")
    rebuilt = CoverAlgebra.from_masks(N_VARS, algebra.masks())
    assert rebuilt.pos == algebra.pos and rebuilt.neg == algebra.neg


def test_single_cube_containment_matches_cover_reference():
    cover, algebra = _paired("algebra-scc", 18)
    reference = cover.single_cube_containment()
    result = algebra.single_cube_containment().to_cover()
    assert result.cubes == reference.cubes


# ---------------------------------------------------------------------------
# Minimizer entry points: algebra path vs object path, byte-identical
# ---------------------------------------------------------------------------


def _random_isfs(mgr: BDD, count: int = 8) -> list[ISF]:
    rng = make_rng("algebra-minimizers")
    out = []
    for _ in range(count):
        table = TruthTable.random(N_VARS, rng, density=0.4)
        out.append(
            ISF.completely_specified(truthtable_to_function(mgr, table))
        )
    return out


def test_espresso_algebra_path_identical(mgr):
    for isf in _random_isfs(mgr):
        fast = espresso_minimize(isf, algebra=True)
        reference = espresso_minimize(isf, algebra=False)
        assert fast.cubes == reference.cubes


def test_qm_algebra_path_identical(mgr):
    for isf in _random_isfs(mgr):
        minterms = sorted(isf.on.minterms())
        fast = minimize_exact(N_VARS, minterms, algebra=True)
        reference = minimize_exact(N_VARS, minterms, algebra=False)
        assert fast.cubes == reference.cubes


def _assert_spp_paths_identical(isf: ISF) -> list:
    fast = minimize_spp_heuristic(isf, algebra=True)
    reference = minimize_spp_heuristic(isf, algebra=False)
    assert fast.pseudocubes == reference.pseudocubes
    return fast.pseudocubes


def _parity_bits(n_vars: int, subset: int, phase: int) -> int:
    """Truth table of the parity of the variables in ``subset`` (bit v =
    variable v), complemented when ``phase`` is 1."""
    bits = 0
    for minterm in range(1 << n_vars):
        odd = 0
        for var in range(n_vars):
            if subset >> var & 1:
                odd ^= minterm >> (n_vars - 1 - var) & 1
        if odd ^ phase:
            bits |= 1 << minterm
    return bits


@st.composite
def spp_intervals(draw):
    """``(kind, n, on_bits, dc_bits)`` with a non-empty dc-set; half the
    on-sets are a parity with sparse noise, so items take XOR factors.
    Tables come from a drawn seed: uniform tables, not shrunk ones."""
    kind = draw(st.sampled_from(("bdd", "bitset", "reordered")))
    n_vars = draw(st.integers(5, 8))
    rng = Random(draw(st.integers(0, 2**32 - 1)))
    size = 1 << n_vars
    if draw(st.booleans()):
        subset = draw(st.integers(0, (1 << n_vars) - 1))
        assume(subset.bit_count() >= 2)
        noise = rng.getrandbits(size) & rng.getrandbits(size)
        noise &= rng.getrandbits(size)
        on = _parity_bits(n_vars, subset, draw(st.integers(0, 1))) ^ noise
    else:
        on = rng.getrandbits(size)
    dc = rng.getrandbits(size) & rng.getrandbits(size)
    on &= ~dc
    assume(dc and on and on | dc != (1 << size) - 1)
    return kind, n_vars, on, dc


@settings(max_examples=160, deadline=None)
@given(interval=spp_intervals())
def _check_drawn_spp_intervals(xor_items: list, interval):
    kind, n_vars, on, dc = interval
    mgr = manager_of_kind(kind, n_vars)
    isf = ISF(function_of_bits(mgr, on), function_of_bits(mgr, dc))
    pseudocubes = _assert_spp_paths_identical(isf)
    xor_items.append(sum(1 for pc in pseudocubes if pc.xors))


def test_spp_algebra_path_identical(mgr, monkeypatch):
    """The mask path answers EXPAND moves from off-set projections and
    keeps items whose full scan found no move in an earlier round
    without scanning them again; the reference path tests every
    candidate region of every item in every round, so it is the oracle
    for every accepted move, every skip and every cover."""
    for isf in _random_isfs(mgr):
        _assert_spp_paths_identical(isf)
    expand = synthesis._spp_expand_masks
    skipped: list[int] = []

    def spy(triples, off, mgr, dead_ends):
        skipped.append(sum(1 for triple in triples if triple in dead_ends))
        return expand(triples, off, mgr, dead_ends)

    monkeypatch.setattr(synthesis, "_spp_expand_masks", spy)
    xor_items: list[int] = []
    _check_drawn_spp_intervals(xor_items)
    assert sum(xor_items) > 0
    # Some drawn minimization entered a later EXPAND round holding items
    # already in its dead-end set, so the skip was exercised and checked.
    assert sum(skipped) > 0
