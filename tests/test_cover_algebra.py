""":class:`CoverAlgebra` against the :class:`~repro.cover.cover.Cover`
reference: round trips, measures and single-cube containment.

The minimizer passes built on it are checked against their semantic
contracts in ``tests/test_minimizer_contracts.py``.
"""

from __future__ import annotations

from repro.cover.algebra import CoverAlgebra
from repro.cover.cover import Cover
from repro.cover.cube import Cube
from repro.utils.rng import make_rng

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
