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

The passes run on :class:`~repro.cover.algebra.CoverAlgebra` —
parallel arrays of packed ``(pos, neg)`` literal masks — so no ``Cube``
or ``Cover`` object is built per candidate; cubes materialize only at
the :func:`espresso_minimize` API boundary.  Each pass has one
implementation, checked against its semantic contract by truth table in
``tests/test_minimizer_contracts.py``: EXPAND grows each cube into a
prime disjoint from the off-set, none inside another; IRREDUNDANT keeps
cubes that cover the on-set, none of which can go; REDUCE shrinks each
cube to the supercube of the on-set part no other cube covers.

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


def initial_cover(isf: ISF) -> Cover:
    """Seed cover from Minato–Morreale ISOP between on and on ∪ dc."""
    cubes, _realized = isop(isf.on, isf.upper)
    mgr = isf.mgr
    return Cover.from_isop(mgr.n_vars, cubes, mgr.var_names)


def _cover_cost(cover: CoverAlgebra) -> tuple[int, int]:
    return cover.cube_count(), cover.literal_count()


def _expand(cover: CoverAlgebra, off: Function, mgr: BDD) -> CoverAlgebra:
    """Expand each cube against the off-set, then drop contained cubes.

    Most-specific cubes first (they gain the most from expansion);
    within a cube, literals are tried once each in ascending variable
    order.  One pass is final: a drop blocked for a cube stays blocked
    for every larger cube, whose region still meets the off-set, so a
    second pass would accept nothing more.  Candidates are tested
    straight from their masks — nothing is allocated on rejection.
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


def espresso_minimize(
    isf: ISF,
    initial: Cover | None = None,
    max_iterations: int = 8,
) -> Cover:
    """Heuristically minimize an ISF into an SOP cover.

    The result always satisfies ``on <= cover <= on ∪ dc`` (asserted
    before returning).  ``initial`` (default: :func:`initial_cover`)
    may seed the loop with an existing cover of the same interval.
    """
    mgr = isf.mgr
    on, dc, off = isf.on, isf.dc, isf.off
    if on.is_false:
        return Cover(mgr.n_vars, [])
    if off.is_false:
        return Cover(mgr.n_vars, [Cube.tautology(mgr.n_vars)])

    if initial is None:
        initial = initial_cover(isf)
    cover = CoverAlgebra.from_cover(initial)
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
