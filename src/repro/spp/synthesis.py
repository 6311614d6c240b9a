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
* **heuristic** (benchmark arity): start from the ISOP, sorted by
  ascending literal count (the cover espresso would return for it, see
  :func:`_isop_seed`), repeatedly (a) merge pseudocube pairs whose
  union is again a pseudocube — the move that creates XOR factors, e.g.
  ``x1 x3' x4 + x1 x3 x4' = x1 (x3 ^ x4)`` — (b) expand factors against
  the off-set, and (c) remove redundant pseudoproducts, until the cost
  stops improving or EXPAND moves nothing.

The heuristic passes run on ``(pos, neg, xors)`` triples: merge
scans, expansion states and irredundancy items are plain tuples, and
:class:`~repro.spp.pseudocube.Pseudocube` /
:class:`~repro.spp.spp_cover.SppCover` objects materialize only at the
API boundaries.  EXPAND answers an item's literal drops and pair
weakenings from one existential projection of the off-set
(:func:`_spp_expand_masks`) instead of a product and a test per
candidate, carries that projection across a drop or a weakening
instead of projecting the off-set again, and skips items whose full
scan already found no move in an earlier round of the same
minimization.  The irredundancy sweep is espresso's
(:func:`repro.twolevel.containment.irredundant`): witness points and
per-pseudoproduct sharps on a BDD, prefix/suffix OR chains on a bitset
manager.  The loop runs it only where it can drop something: not on
the merged ISOP seed and not after an EXPAND round that moved nothing
(see :func:`minimize_spp_heuristic`).  Every caller, the ``"light"``
resynthesis of :mod:`repro.approx.expansion` included, runs these
passes.

Each pass has one implementation, checked against its semantic
contract by truth table in ``tests/test_minimizer_contracts.py``:
EXPAND leaves every item (and every member of the dead-end set)
disjoint from the off-set with no move left, and each projection it
carries equals the one built from the off-set; MERGE keeps the union
and leaves no two items, neither inside the other, whose union is one
pseudoproduct; IRREDUNDANT keeps items that cover the on-set, none of
which can go.  The skipped sweeps are checked too: the merged ISOP
seed and every result of the heuristic are irredundant.
"""

from __future__ import annotations

from repro.bdd.manager import BDD, Function
from repro.bdd.ops import isop
from repro.boolfunc.isf import ISF
from repro.cover.algebra import CoverAlgebra
from repro.cover.cover import Cover
from repro.spp.pseudocube import Pseudocube, XorFactor, make_xor_factor
from repro.spp.spp_cover import SppCover
from repro.twolevel import containment
from repro.twolevel.covering import CoveringProblem, solve_covering
from repro.cover.cube import Cube
from repro.utils.bitops import bit_indices

#: A pseudoproduct in the heuristic passes is a ``(pos, neg, xors)``
#: triple with the same conventions as :class:`Pseudocube` attributes.
_NO_XORS: frozenset[XorFactor] = frozenset()


def _triple_literal_count(triple: tuple) -> int:
    pos, neg, xors = triple
    return (pos | neg).bit_count() + 2 * len(xors)


def _try_merge_masks(a: tuple, b: tuple) -> tuple | None:
    """Merge two pseudocube triples if their union is again a pseudocube.

    Two pseudoproducts that neither contains the other unite into one
    exactly when they are the two halves of it: the same XOR factors
    and the same literal variables with one literal (a distance-1
    merge) or two literals (a new XOR factor) of opposite polarity, or
    the same literals and one XOR factor in both phases (it cancels).
    No ``Pseudocube`` is built for rejected pairs, the overwhelming
    majority of the O(n²) scan in :func:`_merge_fixpoint_masks`.
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

    Items go most literals first.  Each takes the first acceptable move
    of one scan — a literal drop, then an XOR-factor drop, then a
    literal-pair weakening — and is scanned again until a full scan
    finds none, so every output item is disjoint from the off-set and
    admits no further move.  Literal moves are answered from one off-set
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
    outside ``L`` are irrelevant).  XOR-phase flips are tested directly.

    ``P`` is built from the off-set (:func:`_off_projection`) only for
    an item's first state with literals and after an XOR-factor drop,
    which brings back off-set points that ``P`` no longer holds.  After
    the other accepted moves it is derived from the ``P`` in hand: dropping the
    literal of ``v`` gives ``∃v.P`` (:func:`_dropped_projection`), and
    weakening the literals of ``a`` and ``b`` into the factor
    ``x_a ⊕ x_b = c`` gives ``∃{a,b}.(P ∧ (x_a ⊕ x_b = c))``
    (:func:`_weakened_projection`).  Both are the function the off-set
    would give, so the scans after them read the same answers.

    ``dead_ends`` holds the items whose full scan found no move, which
    depends only on the item and ``off``; the caller keeps one set per
    minimization.  An item found in it is kept without a scan, and an
    item whose scan ends is added to it.  Without the set, each restart
    of the loop re-runs the cubic pair-weakening scan of every
    unchanged item.
    """
    top = mgr.n_vars - 1
    expanded: list[tuple] = []
    order = sorted(triples, key=lambda t: -_triple_literal_count(t))
    for triple in order:
        if triple in dead_ends:
            expanded.append(triple)
            continue
        current = triple
        # The projection of ``current``; None until it is needed.
        blocked = None
        changed = True
        while changed:
            changed = False
            pos, neg, xors = current
            # Same order as the factors() literal walk: positive
            # literals by ascending variable, then negative ones.
            literal_vars = list(bit_indices(pos)) + list(bit_indices(neg))
            if literal_vars:
                if blocked is None:
                    blocked = _off_projection(off, mgr, pos | neg, xors)
                point = 0
                for var in bit_indices(pos):
                    point |= 1 << (top - var)
                for var in literal_vars:
                    if not blocked(point ^ (1 << (top - var))):
                        bit = 1 << var
                        current = (pos & ~bit, neg & ~bit, xors)
                        blocked = _dropped_projection(blocked, mgr, var)
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
                    blocked = None
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
                        blocked = _weakened_projection(blocked, mgr, factor)
                        changed = True
                        break
                if changed:
                    break
        # The loop exits only after a full scan of ``current`` found
        # nothing acceptable: ``current`` is a dead end for this off.
        dead_ends.add(current)
        expanded.append(current)
    return list(dict.fromkeys(expanded))


def _off_projection(off: Function, mgr: BDD, bound: int, xors) -> Function:
    """``∃(variables not in bound).(off ∧ X)`` for an item with literal
    variables ``bound`` (bit ``v`` for variable ``v``) and XOR factors
    ``X``: EXPAND's projection of the off-set, built from the off-set."""
    return (off & mgr.spp_product(0, 0, xors)).exists(
        [name for var, name in enumerate(mgr.var_names) if not bound >> var & 1]
    )


def _dropped_projection(blocked: Function, mgr: BDD, var: int) -> Function:
    """The projection after the literal of ``var`` is dropped:
    ``∃var.blocked``, since ``var`` leaves the literal variables."""
    return blocked.exists([mgr.var_names[var]])


def _weakened_projection(blocked: Function, mgr: BDD, factor: XorFactor) -> Function:
    """The projection after the literals of ``factor``'s variables ``a``
    and ``b`` are weakened into ``factor``: ``∃{a,b}.(blocked ∧ factor)``.

    The factor depends on ``a`` and ``b`` only, and both were literal
    variables, which the projection does not quantify, so conjoining it
    before or after quantifying the other variables gives the same
    function.
    """
    names = mgr.var_names
    return (blocked & mgr.spp_product(0, 0, (factor,))).exists(
        [names[factor.i], names[factor.j]]
    )


def _spp_irredundant_masks(
    triples: list[tuple], dc: Function, mgr: BDD
) -> list[tuple]:
    """Irredundancy sweep over triples.

    A pseudoproduct is dropped iff the kept ones before it, every one
    after it and the dc-set cover it
    (:func:`repro.twolevel.containment.irredundant`).
    """
    return [triples[index] for index in containment.irredundant(triples, dc)]


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


def _isop_seed(isf: ISF) -> list[tuple[int, int]]:
    """The default seed: the ISOP's ``(pos, neg)`` cubes, stably sorted
    by ascending literal count.

    This is the cover :func:`~repro.twolevel.espresso.espresso_minimize`
    returns for the ISF, without its passes: ISOP cubes are prime and
    irredundant (Minato 1993), so EXPAND and IRREDUNDANT keep every cube
    and change only the order, to this one.  The ISOP's own realized
    function is checked against the interval.
    """
    mgr = isf.mgr
    cubes, realized = isop(isf.on, isf.upper)
    if not (isf.on <= realized and realized <= isf.upper):
        raise AssertionError("ISOP seed lies outside the interval")
    seed = CoverAlgebra.from_isop(mgr.n_vars, cubes, mgr.var_names)
    return sorted(seed.masks(), key=lambda mask: (mask[0] | mask[1]).bit_count())


def minimize_spp_heuristic(
    isf: ISF,
    initial: Cover | SppCover | None = None,
    max_iterations: int = 6,
) -> SppCover:
    """Heuristic 2-SPP minimization (benchmark-scale workhorse).

    Seeds with ``initial`` (default: the ISOP sorted by ascending
    literal count, :func:`_isop_seed`), applies the
    merge fixpoint and the irredundancy sweep, then runs up to
    ``max_iterations`` rounds of EXPAND, merge and irredundancy while
    the ``(pseudoproducts, literals)`` cost improves; ``max_iterations=0``
    only merges and drops redundant items.  One dead-end set serves
    every EXPAND round of the call (see :func:`_spp_expand_masks`).  The
    result is asserted to lie in ``[on, on ∪ dc]``.

    Two sweeps are skipped because they cannot drop anything:

    * The ISOP seed's.  Each Minato–Morreale cube holds an on-set point
      that no other cube covers; a merge replaces two items by their
      exact union, which keeps those points; and the on-set misses the
      dc-set.  So every merged item keeps a point that neither the
      other items nor the dc-set cover, and the sweep would keep every
      item in order.  A cover passed as ``initial`` (the approximation's
      expanded covers among them) is swept.
    * A round's, when EXPAND returns the items it was given.  They are
      a merge fixpoint already (a merge's verdict does not depend on the
      operand order) and each holds a point outside the dc-set and the
      other items, so MERGE and IRREDUNDANT would return them at the same
      cost, and the loop would keep ``best`` and stop anyway.  It stops
      before them.
    """
    mgr = isf.mgr
    on, dc, off = isf.on, isf.dc, isf.off
    if on.is_false:
        return SppCover(mgr.n_vars, [])
    if off.is_false:
        return SppCover(mgr.n_vars, [Pseudocube.tautology(mgr.n_vars)])

    if initial is None:
        triples = [(pos, neg, _NO_XORS) for pos, neg in _isop_seed(isf)]
    elif isinstance(initial, Cover):
        triples = [(cube.pos, cube.neg, _NO_XORS) for cube in initial.cubes]
    else:
        triples = [(pc.pos, pc.neg, pc.xors) for pc in initial.pseudocubes]

    n_vars = mgr.n_vars
    triples = _merge_fixpoint_masks(triples)
    if initial is not None:
        triples = _spp_irredundant_masks(triples, dc, mgr)
    best = triples
    best_cost = _triples_cost(triples)
    dead_ends: set[tuple] = set()
    for _iteration in range(max_iterations):
        expanded = _spp_expand_masks(triples, off, mgr, dead_ends)
        if set(expanded) == set(triples):
            break
        triples = _merge_fixpoint_masks(expanded)
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
