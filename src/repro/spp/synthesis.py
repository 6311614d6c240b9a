"""2-SPP synthesis algorithms.

Two engines, dispatched by :func:`minimize_spp`:

* **exact** (at most :data:`EXACT_MAX_VARS` declared variables):
  enumerate all *maximal* pseudocubes of the interval ``[on, on ∪ dc]``
  (no factor can be dropped and no literal pair can be weakened to an
  XOR factor without leaving the interval) and solve a minimum-cost
  covering problem over the on-set.  Expansion moves never increase
  the 2-SPP literal count, so an optimal cover made of maximal
  pseudocubes is globally optimal for the lexicographic
  ``(pseudoproducts, literals)`` cost.
* **heuristic** (benchmark arity): start from an espresso-minimized SOP
  cover, repeatedly (a) merge pseudocube pairs whose union is again a
  pseudocube — the move that creates XOR factors, e.g.
  ``x1 x3' x4 + x1 x3 x4' = x1 (x3 ^ x4)`` — (b) expand factors against
  the off-set, and (c) remove redundant pseudoproducts, until the cost
  stops improving.

The heuristic inner loops run mask-natively on ``(pos, neg, xors)``
triples: merge scans, expansion states and irredundancy items are plain
tuples, and :class:`~repro.spp.pseudocube.Pseudocube` /
:class:`~repro.spp.spp_cover.SppCover` objects materialize only at the
API boundaries.  EXPAND answers an item's literal drops and pair
weakenings from one existential projection of the off-set
(:func:`_spp_expand_masks`) instead of a product and a test per
candidate, and skips items whose full scan already found no move in an
earlier round of the same minimization.  The irredundancy sweep is
espresso's (:func:`repro.twolevel.containment.irredundant`): witness
points and per-pseudoproduct sharps on a BDD, prefix/suffix OR chains
on a bitset manager.  Every production caller, the ``"light"``
resynthesis of :mod:`repro.approx.expansion` included, runs these
passes.

The original pseudocube-object passes are retained (``algebra=False``)
as the reference implementation for the differential tests and the
on/off ablation benchmark.  They test every candidate region of every
item in every round, with no projection and no skip, so they check
both shortcuts; both paths accept the same moves and produce
byte-identical covers.
"""

from __future__ import annotations

from repro.bdd.manager import BDD, Function
from repro.boolfunc.isf import ISF
from repro.cover.cover import Cover
from repro.spp.pseudocube import Pseudocube, XorFactor, make_xor_factor
from repro.spp.spp_cover import SppCover
from repro.twolevel import containment
from repro.twolevel.covering import CoveringProblem, solve_covering
from repro.twolevel.espresso import espresso_minimize
from repro.cover.cube import Cube
from repro.utils.bitops import bit_indices

#: A pseudoproduct in the mask-native loops: ``(pos, neg, xors)`` with
#: the same conventions as :class:`Pseudocube` attributes.
_NO_XORS: frozenset[XorFactor] = frozenset()


def _triple_of(pc: Pseudocube) -> tuple[int, int, frozenset[XorFactor]]:
    return (pc.pos, pc.neg, pc.xors)


def _triple_literal_count(triple: tuple) -> int:
    pos, neg, xors = triple
    return (pos | neg).bit_count() + 2 * len(xors)


# ---------------------------------------------------------------------------
# Mask-native passes (primary path)
# ---------------------------------------------------------------------------


def _try_merge_masks(a: tuple, b: tuple) -> tuple | None:
    """Merge two pseudocube triples if their union is again a pseudocube.

    Mask-native counterpart of :func:`_try_merge`; no ``Pseudocube`` is
    built for rejected pairs (the overwhelming majority of the O(n²)
    scan in :func:`_merge_fixpoint_masks`).
    """
    a_pos, a_neg, a_xors = a
    b_pos, b_neg, b_xors = b
    if a_xors == b_xors:
        if (a_pos | a_neg) != (b_pos | b_neg):
            return None
        conflict = (a_pos & b_neg) | (a_neg & b_pos)
        agree = (a_pos ^ b_pos) | (a_neg ^ b_neg)
        if agree != conflict:
            return None  # same bound set but inconsistent literal patterns
        count = conflict.bit_count()
        if count == 1:
            # Classic distance-1 merge: drop the conflicting literal.
            return (a_pos & ~conflict, a_neg & ~conflict, a_xors)
        if count == 2:
            # Opposite polarities on two variables: forms an XOR factor.
            low = conflict & -conflict
            high = conflict ^ low
            var_a = low.bit_length() - 1
            var_b = high.bit_length() - 1
            value_a = 1 if a_pos & low else 0
            value_b = 1 if a_pos & high else 0
            factor = make_xor_factor(var_a, var_b, value_a ^ value_b)
            return (
                a_pos & ~conflict,
                a_neg & ~conflict,
                a_xors | {factor},
            )
        return None
    if a_pos == b_pos and a_neg == b_neg:
        difference = a_xors ^ b_xors
        if len(difference) == 2:
            first, second = sorted(difference)
            if (
                first.i == second.i
                and first.j == second.j
                and first.phase != second.phase
            ):
                # Both phases of the same XOR pair: the factor cancels.
                own = first if first in a_xors else second
                return (a_pos, a_neg, a_xors - {own})
    return None


def _merge_fixpoint_masks(triples: list[tuple]) -> list[tuple]:
    """Apply pairwise merges until none applies (mask-native)."""
    pseudocubes = list(dict.fromkeys(triples))
    merged = True
    while merged:
        merged = False
        count = len(pseudocubes)
        for index_a in range(count):
            if merged:
                break
            for index_b in range(index_a + 1, count):
                union = _try_merge_masks(
                    pseudocubes[index_a], pseudocubes[index_b]
                )
                if union is not None:
                    rest = [
                        triple
                        for position, triple in enumerate(pseudocubes)
                        if position not in (index_a, index_b)
                    ]
                    rest.append(union)
                    pseudocubes = list(dict.fromkeys(rest))
                    merged = True
                    break
    return pseudocubes


def _spp_expand_masks(
    triples: list[tuple], off: Function, mgr: BDD, dead_ends: set[tuple]
) -> list[tuple]:
    """Expand each pseudoproduct triple against the off-set.

    Same move order and the same accepted moves as the reference
    :func:`_spp_expand` — factor drops first, then literal-pair
    weakenings — but literal moves are answered from one off-set
    projection per item state instead of one candidate product and
    disjointness test each.  For an item with literal variables ``L``,
    point ``p`` (its literal values) and XOR factors ``X``::

        P = ∃(variables not in L).(off ∧ X)

    is a function of ``L`` alone, and the region an EXPAND move adds —
    ``p`` with one literal (a drop) or two literals (a pair weakening)
    flipped, under the same ``X`` — meets the off-set iff ``P`` holds at
    that flipped point.  ``P`` is evaluated at a minterm index in which
    bit ``n-1-v`` is set for each positive literal ``v`` (variable 0 is
    the most significant bit on both backends; the bits of variables
    outside ``L`` are irrelevant), and it is recomputed only after an
    accepted move.  XOR-phase flips are tested directly.

    ``dead_ends`` holds the items whose full scan found no move, which
    depends only on the item and ``off``; the caller keeps one set per
    minimization.  An item found in it is kept without a scan, and an
    item whose scan ends is added to it.  Without the set, each restart
    of the loop re-runs the cubic pair-weakening scan of every
    unchanged item.
    """
    names = mgr.var_names
    top = mgr.n_vars - 1
    expanded: list[tuple] = []
    order = sorted(triples, key=lambda t: -_triple_literal_count(t))
    for triple in order:
        if triple in dead_ends:
            expanded.append(triple)
            continue
        current = triple
        changed = True
        while changed:
            changed = False
            pos, neg, xors = current
            # Same order as the factors() literal walk: positive
            # literals by ascending variable, then negative ones.
            literal_vars = list(bit_indices(pos)) + list(bit_indices(neg))
            if literal_vars:
                bound = pos | neg
                blocked = (off & mgr.spp_product(0, 0, xors)).exists(
                    [name for var, name in enumerate(names) if not bound >> var & 1]
                )
                point = 0
                for var in bit_indices(pos):
                    point |= 1 << (top - var)
                for var in literal_vars:
                    if not blocked(point ^ (1 << (top - var))):
                        bit = 1 << var
                        current = (pos & ~bit, neg & ~bit, xors)
                        changed = True
                        break
                if changed:
                    continue
            for factor in sorted(xors):
                flipped = (xors - {factor}) | {
                    XorFactor(factor.i, factor.j, factor.phase ^ 1)
                }
                if mgr.spp_product(pos, neg, frozenset(flipped)).disjoint(off):
                    current = (pos, neg, xors - {factor})
                    changed = True
                    break
            if changed:
                continue
            for position, var_a in enumerate(literal_vars):
                flipped_a = point ^ (1 << (top - var_a))
                for var_b in literal_vars[position + 1 :]:
                    if not blocked(flipped_a ^ (1 << (top - var_b))):
                        bit_a, bit_b = 1 << var_a, 1 << var_b
                        pair = bit_a | bit_b
                        value_a = 1 if pos & bit_a else 0
                        value_b = 1 if pos & bit_b else 0
                        factor = make_xor_factor(
                            var_a, var_b, value_a ^ value_b
                        )
                        current = (
                            pos & ~pair,
                            neg & ~pair,
                            xors | {factor},
                        )
                        changed = True
                        break
                if changed:
                    break
        # The loop exits only after a full scan of ``current`` found
        # nothing acceptable: ``current`` is a dead end for this off.
        dead_ends.add(current)
        expanded.append(current)
    return list(dict.fromkeys(expanded))


def _spp_irredundant_masks(
    triples: list[tuple], dc: Function, mgr: BDD
) -> list[tuple]:
    """Irredundancy sweep over triples (items stay plain tuples).

    A pseudoproduct is dropped iff the kept ones before it, every one
    after it and the dc-set cover it
    (:func:`repro.twolevel.containment.irredundant`).
    """
    return [triples[index] for index in containment.irredundant(triples, dc)]


# ---------------------------------------------------------------------------
# Pseudocube-object passes (reference implementation; ablation baseline)
# ---------------------------------------------------------------------------


def _try_merge(first: Pseudocube, second: Pseudocube) -> Pseudocube | None:
    """Merge two pseudocubes if their union is exactly a pseudocube."""
    if first.n_vars != second.n_vars:
        return None
    if first.xors == second.xors:
        bound_first = first.pos | first.neg
        bound_second = second.pos | second.neg
        if bound_first != bound_second:
            return None
        conflict = (first.pos & second.neg) | (first.neg & second.pos)
        agree = (first.pos ^ second.pos) | (first.neg ^ second.neg)
        if agree != conflict:
            return None  # same bound set but inconsistent literal patterns
        count = conflict.bit_count()
        if count == 1:
            # Classic distance-1 merge: drop the conflicting literal.
            var = conflict.bit_length() - 1
            return first.drop_literal(var)
        if count == 2:
            # Opposite polarities on two variables: forms an XOR factor.
            low = conflict & -conflict
            var_a = low.bit_length() - 1
            var_b = (conflict ^ low).bit_length() - 1
            return first.pair_literals(var_a, var_b)
        return None
    if first.pos == second.pos and first.neg == second.neg:
        difference = first.xors ^ second.xors
        if len(difference) == 2:
            factors = sorted(difference)
            a, b = factors
            if a.i == b.i and a.j == b.j and a.phase != b.phase:
                # Both phases of the same XOR pair: the factor cancels.
                own = a if a in first.xors else b
                return first.drop_xor(own)
    return None


def _merge_fixpoint(cover: SppCover) -> SppCover:
    """Apply pairwise merges until none applies (reference path)."""
    pseudocubes = list(dict.fromkeys(cover.pseudocubes))
    merged = True
    while merged:
        merged = False
        count = len(pseudocubes)
        for index_a in range(count):
            if merged:
                break
            for index_b in range(index_a + 1, count):
                union = _try_merge(pseudocubes[index_a], pseudocubes[index_b])
                if union is not None:
                    rest = [
                        pc
                        for position, pc in enumerate(pseudocubes)
                        if position not in (index_a, index_b)
                    ]
                    rest.append(union)
                    pseudocubes = list(dict.fromkeys(rest))
                    merged = True
                    break
    return SppCover(cover.n_vars, pseudocubes)


def _spp_expand(cover: SppCover, off: Function, mgr: BDD) -> SppCover:
    """Expand each pseudoproduct against the off-set (reference path).

    Tries factor drops first (literal win of 1 or 2), then literal-pair
    weakenings (no literal change, doubles coverage — enabling later
    containment removals).  Every candidate region of every item is
    built and tested against the off-set, in every round: no projection
    and no dead-end skip, so it is the oracle for both shortcuts of
    :func:`_spp_expand_masks`.
    """
    def region_ok(pos: int, neg: int, xors: frozenset) -> bool:
        return mgr.spp_product(pos, neg, xors).disjoint(off)

    expanded: list[Pseudocube] = []
    order = sorted(cover.pseudocubes, key=lambda pc: -pc.literal_count)
    for pc in order:
        current = pc
        changed = True
        while changed:
            changed = False
            pos, neg, xors = current.pos, current.neg, current.xors
            for kind, payload in current.factors():
                if kind == "lit":
                    var, polarity = payload
                    bit = 1 << var
                    if polarity:
                        ok = region_ok(pos & ~bit, neg | bit, xors)
                    else:
                        ok = region_ok(pos | bit, neg & ~bit, xors)
                else:
                    flipped = (xors - {payload}) | {
                        XorFactor(payload.i, payload.j, payload.phase ^ 1)
                    }
                    ok = region_ok(pos, neg, frozenset(flipped))
                if ok:
                    current = current.drop_factor(kind, payload)
                    changed = True
                    break
            if changed:
                continue
            # Same order as the factors() literal walk: positive
            # literals by ascending variable, then negative ones.
            literal_vars = list(bit_indices(pos)) + list(bit_indices(neg))
            for position, var_a in enumerate(literal_vars):
                for var_b in literal_vars[position + 1 :]:
                    pair = (1 << var_a) | (1 << var_b)
                    flipped_pos = (pos & ~pair) | (neg & pair)
                    flipped_neg = (neg & ~pair) | (pos & pair)
                    if region_ok(flipped_pos, flipped_neg, xors):
                        current = current.pair_literals(var_a, var_b)
                        changed = True
                        break
                if changed:
                    break
        expanded.append(current)
    return SppCover(cover.n_vars, list(dict.fromkeys(expanded)))


def _spp_irredundant(cover: SppCover, dc: Function, mgr: BDD) -> SppCover:
    """Irredundancy sweep over ``Pseudocube`` items (reference path).

    Same question, same module and same kept set as
    :func:`_spp_irredundant_masks`.
    """
    pseudocubes = cover.pseudocubes
    kept = containment.irredundant([_triple_of(pc) for pc in pseudocubes], dc)
    return SppCover(cover.n_vars, [pseudocubes[index] for index in kept])


def sop_to_spp(cover: Cover) -> SppCover:
    """Lift an SOP cover and apply the merge fixpoint (no oracle needed)."""
    triples = [(cube.pos, cube.neg, _NO_XORS) for cube in cover.cubes]
    return SppCover(
        cover.n_vars,
        [
            Pseudocube(cover.n_vars, pos, neg, xors)
            for pos, neg, xors in _merge_fixpoint_masks(triples)
        ],
    )


def minimize_spp_heuristic(
    isf: ISF,
    initial: Cover | SppCover | None = None,
    max_iterations: int = 6,
    algebra: bool = True,
) -> SppCover:
    """Heuristic 2-SPP minimization (benchmark-scale workhorse).

    Seeds with ``initial`` (default: the espresso cover), applies the
    merge fixpoint and the irredundancy sweep, then runs up to
    ``max_iterations`` rounds of EXPAND, merge and irredundancy while
    the ``(pseudoproducts, literals)`` cost improves; ``max_iterations=0``
    only merges and drops redundant items.  One dead-end set serves
    every EXPAND round of the call (see :func:`_spp_expand_masks`).  The
    result is asserted to lie in ``[on, on ∪ dc]``.  ``algebra=False``
    routes through the pseudocube-object reference passes — same
    accepted moves, same cover — for the differential tests and the
    on/off ablation benchmark.
    """
    mgr = isf.mgr
    on, dc, off = isf.on, isf.dc, isf.off
    if on.is_false:
        return SppCover(mgr.n_vars, [])
    if off.is_false:
        return SppCover(mgr.n_vars, [Pseudocube.tautology(mgr.n_vars)])

    if not algebra:
        return _minimize_spp_heuristic_pc(isf, initial, max_iterations)

    if initial is None:
        base = espresso_minimize(isf)
        triples = [(cube.pos, cube.neg, _NO_XORS) for cube in base.cubes]
    elif isinstance(initial, Cover):
        triples = [(cube.pos, cube.neg, _NO_XORS) for cube in initial.cubes]
    else:
        triples = [_triple_of(pc) for pc in initial.pseudocubes]

    n_vars = mgr.n_vars
    triples = _merge_fixpoint_masks(triples)
    triples = _spp_irredundant_masks(triples, dc, mgr)
    best = triples
    best_cost = _triples_cost(triples)
    dead_ends: set[tuple] = set()
    for _iteration in range(max_iterations):
        triples = _spp_expand_masks(triples, off, mgr, dead_ends)
        triples = _merge_fixpoint_masks(triples)
        triples = _spp_irredundant_masks(triples, dc, mgr)
        cost = _triples_cost(triples)
        if cost < best_cost:
            best, best_cost = triples, cost
        else:
            break

    result = SppCover(
        n_vars,
        [Pseudocube(n_vars, pos, neg, xors) for pos, neg, xors in best],
    )
    realized = result.to_function(mgr)
    if not (on <= realized and realized <= isf.upper):
        raise AssertionError("2-SPP synthesis produced an invalid cover")
    return result


def _triples_cost(triples: list[tuple]) -> tuple[int, int]:
    """Lexicographic ``(pseudoproducts, literals)`` cost of triples."""
    return (
        len(triples),
        sum(_triple_literal_count(triple) for triple in triples),
    )


def _minimize_spp_heuristic_pc(
    isf: ISF, initial: Cover | SppCover | None, max_iterations: int
) -> SppCover:
    """The pre-algebra loop, pseudocube objects throughout (reference)."""
    mgr = isf.mgr
    on, dc, off = isf.on, isf.dc, isf.off
    if initial is None:
        spp = SppCover.from_cover(espresso_minimize(isf, algebra=False))
    elif isinstance(initial, Cover):
        spp = SppCover.from_cover(initial)
    else:
        spp = initial.copy()

    spp = _merge_fixpoint(spp)
    spp = _spp_irredundant(spp, dc, mgr)
    best = spp
    best_cost = spp.cost()
    for _iteration in range(max_iterations):
        spp = _spp_expand(spp, off, mgr)
        spp = _merge_fixpoint(spp)
        spp = _spp_irredundant(spp, dc, mgr)
        cost = spp.cost()
        if cost < best_cost:
            best, best_cost = spp, cost
        else:
            break

    realized = best.to_function(mgr)
    if not (on <= realized and realized <= isf.upper):
        raise AssertionError("2-SPP synthesis produced an invalid cover")
    return best


def enumerate_maximal_pseudocubes(
    isf: ISF, max_candidates: int = 50_000
) -> list[Pseudocube]:
    """All maximal pseudocubes inside ``[on, on ∪ dc]``.

    Raises ``RuntimeError`` if the candidate space exceeds
    ``max_candidates`` (callers should fall back to the heuristic).
    """
    mgr = isf.mgr
    upper = isf.upper
    n_vars = mgr.n_vars
    seen: set[Pseudocube] = set()
    maximal: set[Pseudocube] = set()
    function_cache: dict[Pseudocube, Function] = {}

    def function_of(pc: Pseudocube) -> Function:
        cached = function_cache.get(pc)
        if cached is None:
            cached = pc.to_function(mgr)
            function_cache[pc] = cached
        return cached

    stack = [
        Pseudocube.from_cube(Cube.from_minterm(n_vars, minterm))
        for minterm in isf.on.minterms()
    ]
    while stack:
        pc = stack.pop()
        if pc in seen:
            continue
        seen.add(pc)
        if len(seen) > max_candidates:
            raise RuntimeError(
                f"maximal-pseudocube enumeration exceeded {max_candidates} candidates"
            )
        grew = False
        for candidate in pc.expansions():
            if function_of(candidate) <= upper:
                grew = True
                if candidate not in seen:
                    stack.append(candidate)
        if not grew:
            maximal.add(pc)
    return sorted(
        maximal, key=lambda p: (p.literal_count, p.pos, p.neg, sorted(p.xors))
    )


#: :func:`minimize_spp` runs the exact engine on ISFs declaring at most
#: this many variables, and the heuristic engine on wider ones.
EXACT_MAX_VARS = 6


def minimize_spp_exact(
    isf: ISF,
    literal_weight: int = 1,
    product_weight: int = 1000,
    max_candidates: int = 50_000,
    max_nodes: int = 200_000,
) -> SppCover:
    """Exact minimum 2-SPP cover via covering over maximal pseudocubes.

    The candidate enumeration grows from every on-set minterm, so the
    cost explodes with the arity: :func:`minimize_spp` calls this only
    up to :data:`EXACT_MAX_VARS` variables.  Two budgets bound a direct
    call: more than ``max_candidates`` pseudocubes raise
    ``RuntimeError`` (on which :func:`minimize_spp` falls back to the
    heuristic engine), and the covering search stops after
    ``max_nodes`` branch-and-bound nodes with the best cover found.
    """
    mgr = isf.mgr
    if isf.on.is_false:
        return SppCover(mgr.n_vars, [])
    if isf.off.is_false:
        return SppCover(mgr.n_vars, [Pseudocube.tautology(mgr.n_vars)])
    candidates = enumerate_maximal_pseudocubes(isf, max_candidates=max_candidates)
    on_minterms = sorted(isf.on.minterms())
    row_index = {minterm: row for row, minterm in enumerate(on_minterms)}
    columns = []
    costs = []
    for pc in candidates:
        covered = frozenset(
            row_index[m] for m in on_minterms if pc.contains_minterm(m)
        )
        columns.append(covered)
        costs.append(product_weight + literal_weight * pc.literal_count)
    problem = CoveringProblem(len(on_minterms), columns, costs)
    chosen = solve_covering(problem, max_nodes=max_nodes)
    result = SppCover(mgr.n_vars, [candidates[j] for j in chosen])
    realized = result.to_function(mgr)
    if not (isf.on <= realized and realized <= isf.upper):
        raise AssertionError("exact 2-SPP produced an invalid cover")
    return result


def minimize_spp(
    isf: ISF,
    initial: Cover | SppCover | None = None,
) -> SppCover:
    """Minimize an ISF in 2-SPP form.

    Uses the exact engine for ``n_vars <= EXACT_MAX_VARS`` (falling back
    to the heuristic if the candidate space explodes) and the heuristic
    engine, seeded with ``initial`` when given, otherwise.
    """
    if isf.n_vars <= EXACT_MAX_VARS:
        try:
            return minimize_spp_exact(isf)
        except RuntimeError:
            pass
    return minimize_spp_heuristic(isf, initial=initial)
