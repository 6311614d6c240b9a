"""Espresso-style heuristic SOP minimization with BDD oracles.

The classic EXPAND / IRREDUNDANT / REDUCE loop is kept, but validity
checks ("does this expanded cube hit the off-set?", "is this cube covered
by the rest of the cover plus the dc-set?") are answered exactly on the
manager's functions instead of by unate recursion on covers.  EXPAND
tests each candidate against the off-set; IRREDUNDANT and REDUCE ask
:mod:`repro.twolevel.containment`, which answers by witness points and
per-cube sharps on a BDD and by prefix/suffix OR chains on a bitset
manager.  This keeps the implementation compact and exactly correct
while preserving espresso's cost behaviour (product count first,
literal count second).

The inner loops run on :class:`~repro.cover.algebra.CoverAlgebra` —
parallel arrays of packed ``(pos, neg)`` literal masks — so no ``Cube``
or ``Cover`` object is built per candidate; cubes materialize only at
the :func:`espresso_minimize` API boundary.  The original cube-object
passes are retained (``algebra=False``) as the reference implementation
for the differential tests and the on/off ablation benchmark; both paths
accept the same moves and produce byte-identical covers (the reference
EXPAND also re-runs a pass that cannot accept a drop, see
:func:`_expand`).

This loop serves the ``espresso`` minimizer strategy, the figures and
the SOP baselines.  2-SPP seeds from the sorted ISOP instead
(:func:`repro.spp.synthesis._isop_seed`): from the ISOP, EXPAND and
IRREDUNDANT only sort the cubes, and REDUCE pays only from other
seeds, such as on-set minterms.
"""

from __future__ import annotations

from repro.bdd.manager import BDD, Function
from repro.bdd.ops import isop
from repro.boolfunc.isf import ISF
from repro.cover.algebra import CoverAlgebra
from repro.cover.cover import Cover
from repro.cover.cube import Cube
from repro.twolevel import containment
from repro.utils.bitops import bit_indices


def supercube_of(function: Function, n_vars: int) -> Cube | None:
    """Smallest cube containing a non-empty function (``None`` if empty)."""
    masks = containment.supercube_masks(function, n_vars)
    if masks is None:
        return None
    return Cube(n_vars, *masks)


def initial_cover(isf: ISF) -> Cover:
    """Seed cover from Minato–Morreale ISOP between on and on ∪ dc."""
    cubes, _realized = isop(isf.on, isf.upper)
    mgr = isf.mgr
    return Cover.from_isop(mgr.n_vars, cubes, mgr.var_names)


def _initial_algebra(isf: ISF) -> CoverAlgebra:
    """Seed masks from the ISOP, with no intermediate ``Cube`` objects."""
    cubes, _realized = isop(isf.on, isf.upper)
    mgr = isf.mgr
    return CoverAlgebra.from_isop(mgr.n_vars, cubes, mgr.var_names)


def _cover_cost(cover: CoverAlgebra | Cover) -> tuple[int, int]:
    return cover.cube_count(), cover.literal_count()


# ---------------------------------------------------------------------------
# Mask-native passes (primary path)
# ---------------------------------------------------------------------------


def _expand(cover: CoverAlgebra, off: Function, mgr: BDD) -> CoverAlgebra:
    """Expand each cube against the off-set, then drop contained cubes.

    Most-specific cubes first (they gain the most from expansion);
    within a cube, literals are tried once each in ascending variable
    order.  One pass is final: a drop blocked for a cube stays blocked
    for every larger cube, whose region still meets the off-set, so the
    reference :func:`_expand_cubes` re-pass accepts nothing more.
    Candidates are tested straight from their masks — nothing is
    allocated on rejection.
    """
    counts = cover.literal_counts()
    order = sorted(range(len(cover)), key=lambda i: -counts[i])
    expanded = CoverAlgebra(cover.n_vars)
    for index in order:
        pos, neg = cover.pos[index], cover.neg[index]
        free = pos | neg
        while free:
            bit = free & -free
            free ^= bit
            candidate_pos, candidate_neg = pos & ~bit, neg & ~bit
            if mgr.product(candidate_pos, candidate_neg).disjoint(off):
                pos, neg = candidate_pos, candidate_neg
        expanded.append(pos, neg)
    return expanded.single_cube_containment()


def _irredundant(cover: CoverAlgebra, dc: Function, mgr: BDD) -> CoverAlgebra:
    """Greedy irredundant pass: one sweep in cover order.

    A cube is dropped iff the kept cubes before it, every cube after it
    and the dc-set cover it (:func:`repro.twolevel.containment.irredundant`).
    The reference loop calls :func:`_irredundant_cubes` instead.
    """
    masks = list(cover.masks())
    kept = containment.irredundant([(pos, neg, ()) for pos, neg in masks], dc)
    return CoverAlgebra.from_masks(cover.n_vars, [masks[index] for index in kept])


def _reduce(
    cover: CoverAlgebra, on: Function, dc: Function, mgr: BDD
) -> CoverAlgebra:
    """Shrink each cube onto the on-set part only it covers.

    A cube with no private on-set minterms is dropped outright
    (:func:`repro.twolevel.containment.reduce`).
    """
    return CoverAlgebra.from_masks(
        cover.n_vars, containment.reduce(list(cover.masks()), on, cover.n_vars)
    )


# ---------------------------------------------------------------------------
# Cube-object passes (reference implementation; ablation baseline)
# ---------------------------------------------------------------------------


def _expand_cubes(cover: Cover, off: Function, mgr: BDD) -> Cover:
    """Reference EXPAND building a ``Cube`` per accepted candidate."""
    expanded: list[Cube] = []
    n_vars = cover.n_vars
    order = sorted(cover.cubes, key=lambda c: -c.literal_count)
    for cube in order:
        current = cube
        changed = True
        while changed:
            changed = False
            for var in bit_indices(current.pos | current.neg):
                bit = 1 << var
                pos, neg = current.pos & ~bit, current.neg & ~bit
                if mgr.product(pos, neg).disjoint(off):
                    current = Cube(n_vars, pos, neg)
                    changed = True
        expanded.append(current)
    return Cover(cover.n_vars, expanded).single_cube_containment()


def _irredundant_cubes(cover: Cover, dc: Function, mgr: BDD) -> Cover:
    """Reference IRREDUNDANT sweeping ``Cube`` items."""
    cubes = cover.cubes
    kept = containment.irredundant([(cube.pos, cube.neg, ()) for cube in cubes], dc)
    return Cover(cover.n_vars, [cubes[index] for index in kept])


def _reduce_cubes(cover: Cover, on: Function, dc: Function, mgr: BDD) -> Cover:
    """Reference REDUCE materializing a ``Cube`` per shrunk product."""
    n_vars = cover.n_vars
    reduced = containment.reduce(
        [(cube.pos, cube.neg) for cube in cover.cubes], on, n_vars
    )
    return Cover(n_vars, [Cube(n_vars, pos, neg) for pos, neg in reduced])


def espresso_minimize(
    isf: ISF,
    initial: Cover | None = None,
    max_iterations: int = 8,
    algebra: bool = True,
) -> Cover:
    """Heuristically minimize an ISF into an SOP cover.

    The result always satisfies ``on <= cover <= on ∪ dc`` (asserted
    before returning).  ``initial`` may seed the loop with an existing
    cover of the same interval.  ``algebra=False`` routes through the
    cube-object reference passes — same oracle calls, same cover — and
    exists for the differential tests and the ablation benchmark.
    """
    mgr = isf.mgr
    on, dc, off = isf.on, isf.dc, isf.off
    if on.is_false:
        return Cover(mgr.n_vars, [])
    if off.is_false:
        return Cover(mgr.n_vars, [Cube.tautology(mgr.n_vars)])

    if not algebra:
        return _espresso_minimize_cubes(isf, initial, max_iterations)

    if initial is not None:
        cover = CoverAlgebra.from_cover(initial)
    else:
        cover = _initial_algebra(isf)
    cover = _expand(cover, off, mgr)
    cover = _irredundant(cover, dc, mgr)
    best = cover
    best_cost = _cover_cost(cover)

    for _iteration in range(max_iterations):
        cover = _reduce(cover, on, dc, mgr)
        cover = _expand(cover, off, mgr)
        cover = _irredundant(cover, dc, mgr)
        cost = _cover_cost(cover)
        if cost < best_cost:
            best, best_cost = cover, cost
        else:
            break

    result = best.to_cover()
    realized = result.to_function(mgr)
    if not (on <= realized and realized <= isf.upper):
        raise AssertionError("espresso produced an invalid cover")
    return result


def _espresso_minimize_cubes(
    isf: ISF, initial: Cover | None, max_iterations: int
) -> Cover:
    """The pre-algebra loop, cube objects throughout (reference path)."""
    mgr = isf.mgr
    on, dc, off = isf.on, isf.dc, isf.off
    cover = initial if initial is not None else initial_cover(isf)
    cover = _expand_cubes(cover, off, mgr)
    cover = _irredundant_cubes(cover, dc, mgr)
    best = cover
    best_cost = _cover_cost(cover)

    for _iteration in range(max_iterations):
        cover = _reduce_cubes(cover, on, dc, mgr)
        cover = _expand_cubes(cover, off, mgr)
        cover = _irredundant_cubes(cover, dc, mgr)
        cost = _cover_cost(cover)
        if cost < best_cost:
            best, best_cost = cover, cost
        else:
            break

    realized = best.to_function(mgr)
    if not (on <= realized and realized <= isf.upper):
        raise AssertionError("espresso produced an invalid cover")
    return best
