"""Differential tests for the mask-native cover algebra.

Every ``mask_*`` primitive and every :class:`CoverAlgebra` operation is
pinned three ways: against the :class:`~repro.cover.cube.Cube` /
:class:`~repro.cover.cover.Cover` reference implementations, against a
BDD oracle where the operation has a semantic reading (containment,
intersection, sharp), and — for the minimizer entry points — against
the retained ``algebra=False`` object paths, which must produce
byte-identical covers.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backend.bitset import BitsetBDD
from repro.bdd.manager import BDD
from repro.boolfunc.convert import truthtable_to_function
from repro.boolfunc.isf import ISF
from repro.boolfunc.truthtable import TruthTable
from repro.cover.algebra import (
    CoverAlgebra,
    mask_consensus,
    mask_contains,
    mask_distance,
    mask_intersects,
    mask_sharp,
    mask_supercube,
)
from repro.cover.cover import Cover
from repro.cover.cube import Cube
from repro.spp.synthesis import minimize_spp_heuristic
from repro.twolevel.espresso import espresso_minimize
from repro.twolevel.quine_mccluskey import minimize_exact
from repro.utils.rng import make_rng
from tests.conftest import fresh_manager, function_of_bits, reordered_manager

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


def _cube_fn(mgr: BDD, cube: Cube):
    return cube.to_function(mgr)


@pytest.fixture
def mgr():
    return BDD([f"x{i + 1}" for i in range(N_VARS)])


# ---------------------------------------------------------------------------
# Mask primitives vs Cube reference vs BDD oracle
# ---------------------------------------------------------------------------


def test_mask_contains_matches_cube_and_bdd(mgr):
    for a in _random_cubes("algebra-contains-a", 25):
        for b in _random_cubes("algebra-contains-b", 25):
            expected = a.contains_cube(b)
            assert mask_contains(a.pos, a.neg, b.pos, b.neg) == expected
            assert (_cube_fn(mgr, b) <= _cube_fn(mgr, a)) == expected


def test_mask_intersects_matches_cube_and_bdd(mgr):
    for a in _random_cubes("algebra-inter-a", 25):
        for b in _random_cubes("algebra-inter-b", 25):
            expected = a.intersect(b) is not None
            assert mask_intersects(a.pos, a.neg, b.pos, b.neg) == expected
            bdd_overlap = not (_cube_fn(mgr, a) & _cube_fn(mgr, b)).is_false
            assert expected == bdd_overlap


def test_mask_distance_matches_cube(mgr):
    for a in _random_cubes("algebra-dist-a", 25):
        for b in _random_cubes("algebra-dist-b", 25):
            assert mask_distance(a.pos, a.neg, b.pos, b.neg) == a.distance(b)


def test_mask_supercube_matches_cube_and_bdd(mgr):
    for a in _random_cubes("algebra-super-a", 20):
        for b in _random_cubes("algebra-super-b", 20):
            pos, neg = mask_supercube(a.pos, a.neg, b.pos, b.neg)
            reference = a.supercube(b)
            assert (pos, neg) == (reference.pos, reference.neg)
            union = _cube_fn(mgr, a) | _cube_fn(mgr, b)
            assert union <= _cube_fn(mgr, Cube(N_VARS, pos, neg))


def test_mask_consensus_matches_cube(mgr):
    hits = 0
    for a in _random_cubes("algebra-cons-a", 30):
        for b in _random_cubes("algebra-cons-b", 30):
            result = mask_consensus(a.pos, a.neg, b.pos, b.neg)
            reference = a.consensus(b)
            if reference is None:
                assert result is None
            else:
                assert result == (reference.pos, reference.neg)
                hits += 1
    assert hits > 0, "no distance-1 pairs sampled; weak test"


def test_mask_sharp_covers_difference_exactly(mgr):
    """``a # b`` must equal ``a ∧ ¬b`` as a function (BDD oracle)."""
    for a in _random_cubes("algebra-sharp-a", 15):
        for b in _random_cubes("algebra-sharp-b", 15):
            pieces = mask_sharp(a.pos, a.neg, b.pos, b.neg)
            realized = mgr.false
            for pos, neg in pieces:
                realized = realized | _cube_fn(mgr, Cube(N_VARS, pos, neg))
            expected = _cube_fn(mgr, a) - _cube_fn(mgr, b)
            assert realized == expected


def test_mask_sharp_term_order_is_deterministic():
    # Positive literals of b first (ascending variable), then negative.
    pieces = mask_sharp(0, 0, 0b101, 0b010)
    assert pieces == [(0, 0b001), (0, 0b100), (0b010, 0)]


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


def test_has_tautology():
    _, algebra = _paired("algebra-taut")
    assert not algebra.has_tautology() or any(
        pos == neg == 0 for pos, neg in algebra.masks()
    )
    algebra.append(0, 0)
    assert algebra.has_tautology()


def test_query_families_match_cube_reference():
    cover, algebra = _paired("algebra-queries")
    for probe in _random_cubes("algebra-probes", 20):
        expected_supersets = [
            i for i, c in enumerate(cover.cubes) if c.contains_cube(probe)
        ]
        assert algebra.supersets_of(probe.pos, probe.neg) == expected_supersets
        assert algebra.any_superset_of(probe.pos, probe.neg) == bool(
            expected_supersets
        )
        expected_subsets = [
            i for i, c in enumerate(cover.cubes) if probe.contains_cube(c)
        ]
        assert algebra.subsets_of(probe.pos, probe.neg) == expected_subsets
        expected_intersecting = [
            i
            for i, c in enumerate(cover.cubes)
            if c.intersect(probe) is not None
        ]
        assert (
            algebra.intersecting(probe.pos, probe.neg)
            == expected_intersecting
        )
        assert algebra.distances_to(probe.pos, probe.neg) == [
            c.distance(probe) for c in cover.cubes
        ]
        expected_consensus = [
            (r.pos, r.neg)
            for c in cover.cubes
            if (r := c.consensus(probe)) is not None
        ]
        assert (
            algebra.consensus_with(probe.pos, probe.neg) == expected_consensus
        )


def test_sharp_with_matches_bdd(mgr):
    cover, algebra = _paired("algebra-sharp-cover", 8)
    for probe in _random_cubes("algebra-sharp-probe", 8):
        sharped = algebra.sharp_with(probe.pos, probe.neg)
        realized = sharped.to_cover().to_function(mgr)
        expected = cover.to_function(mgr) - _cube_fn(mgr, probe)
        assert realized == expected


def test_supercube_contains_cover(mgr):
    cover, algebra = _paired("algebra-supercube", 9)
    pos, neg = algebra.supercube()
    assert cover.to_function(mgr) <= _cube_fn(mgr, Cube(N_VARS, pos, neg))
    for cube in cover.cubes:
        assert mask_contains(pos, neg, cube.pos, cube.neg)
    assert CoverAlgebra(N_VARS).supercube() is None


def test_single_cube_containment_matches_cover_reference():
    cover, algebra = _paired("algebra-scc", 18)
    reference = cover.single_cube_containment()
    result = algebra.single_cube_containment().to_cover()
    assert result.cubes == reference.cubes


def test_deduplicated_keeps_first_occurrences():
    _, algebra = _paired("algebra-dedup", 6)
    doubled = CoverAlgebra.from_masks(
        N_VARS, list(algebra.masks()) + list(algebra.masks())
    )
    deduped = doubled.deduplicated()
    assert deduped.pos == algebra.deduplicated().pos
    assert len(deduped) <= len(algebra)


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


def _manager_of_kind(kind: str, n_vars: int):
    if kind == "bitset":
        return BitsetBDD([f"x{i + 1}" for i in range(n_vars)])
    if kind == "reordered":
        return reordered_manager(n_vars)
    return fresh_manager(n_vars)


@settings(max_examples=160, deadline=None)
@given(interval=spp_intervals())
def _check_drawn_spp_intervals(xor_items: list, interval):
    kind, n_vars, on, dc = interval
    mgr = _manager_of_kind(kind, n_vars)
    isf = ISF(function_of_bits(mgr, on), function_of_bits(mgr, dc))
    pseudocubes = _assert_spp_paths_identical(isf)
    xor_items.append(sum(1 for pc in pseudocubes if pc.xors))


def test_spp_algebra_path_identical(mgr):
    """The mask path answers EXPAND moves from off-set projections; the
    reference path still tests every candidate region directly, so it is
    the oracle for every accepted move and every cover."""
    for isf in _random_isfs(mgr):
        _assert_spp_paths_identical(isf)
    xor_items: list[int] = []
    _check_drawn_spp_intervals(xor_items)
    assert sum(xor_items) > 0
