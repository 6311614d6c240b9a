"""The IRREDUNDANT and REDUCE questions of espresso and 2-SPP.

* IRREDUNDANT: drop item ``c`` iff ``c ∧ ¬dc`` lies inside the union of
  the items kept so far and the items after ``c``.
* REDUCE: shrink cube ``c`` to the supercube of ``c ∧ on`` minus the
  other cubes (those already reduced and those after ``c``), or drop it
  when nothing is left.

Items are ``(pos, neg, xors)`` triples: literal masks (bit ``i`` is
variable ``i``) and XOR factors ``(i, j, phase)``.  Each answer is a
semantic verdict, so covers do not depend on how it is reached, which
goes by backend.  On a :class:`~repro.backend.bitset.BitsetBDD` a union
is one big-integer OR, so plain prefix/suffix OR chains are cheapest.
On a :class:`~repro.bdd.manager.BDD`, where OR-ing cube chains over a
wide support builds large diagrams, each item is judged alone:
IRREDUNDANT takes a witness point of ``c ∧ ¬dc``, sharps out an item
that contains it (found by mask tests) and repeats, until a witness is
uncovered (keep ``c``) or nothing is left (drop ``c``); REDUCE sharps
out only the cubes that meet ``c`` and reads the supercube off the
remainder's nodes in one pass.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.backend.protocol import backend_of


def irredundant(items: Sequence[tuple], dc) -> list[int]:
    """Indices of the ``(pos, neg, xors)`` items an irredundant sweep keeps."""
    if not items:
        return []
    if backend_of(dc) == "bdd":
        return _irredundant_by_witness(items, dc)
    mgr = dc.mgr
    functions = [_function(mgr, *item) for item in items]
    suffix = _suffix_unions(mgr, functions)
    kept: list[int] = []
    prefix = dc
    for index, function in enumerate(functions):
        if not function <= prefix | suffix[index + 1]:
            kept.append(index)
            prefix = prefix | function
    return kept


def reduce(cubes: Sequence[tuple[int, int]], on, n_vars: int) -> list[tuple[int, int]]:
    """REDUCE's ``(pos, neg)`` cubes, in order, without the emptied ones."""
    if not cubes:
        return []
    if backend_of(on) == "bdd":
        return _reduce_by_sharp(cubes, on, n_vars)
    mgr = on.mgr
    functions = [mgr.product(pos, neg) for pos, neg in cubes]
    suffix = _suffix_unions(mgr, functions)
    reduced: list[tuple[int, int]] = []
    prefix = mgr.false
    for index, function in enumerate(functions):
        required = (function & on) - (prefix | suffix[index + 1])
        smaller = supercube_masks(required, n_vars)
        if smaller is not None:
            reduced.append(smaller)
            prefix = prefix | mgr.product(*smaller)
    return reduced


def supercube_masks(function, n_vars: int) -> tuple[int, int] | None:
    """Masks of the smallest cube containing a function (``None`` if empty).

    Only variables ``0 .. n_vars - 1`` can become literals.
    """
    if function.is_false:
        return None
    if backend_of(function) == "bdd":
        return _bdd_supercube(function, n_vars)
    mgr = function.mgr
    pos = neg = 0
    for var in range(n_vars):
        literal = mgr.var_at(var)
        if function <= literal:
            pos |= 1 << var
        elif function <= ~literal:
            neg |= 1 << var
    return pos, neg


def _function(mgr, pos: int, neg: int, xors):
    return mgr.spp_product(pos, neg, xors) if xors else mgr.product(pos, neg)


def _suffix_unions(mgr, functions: list) -> list:
    """``suffix[i]`` is the union of ``functions[i:]``."""
    suffix = [mgr.false] * (len(functions) + 1)
    for index in range(len(functions) - 1, -1, -1):
        suffix[index] = suffix[index + 1] | functions[index]
    return suffix


def _meets_literals(pos: int, neg: int, other: tuple) -> bool:
    """False when ``other``'s literals contradict ``(pos, neg)``."""
    return not ((pos & other[1]) | (neg & other[0]))


def _irredundant_by_witness(items: Sequence[tuple], dc) -> list[int]:
    mgr = dc.mgr
    kept: list[int] = []
    for index, (pos, neg, xors) in enumerate(items):
        # Only items whose literals agree with c's can hold a point of c.
        rest = [items[k] for k in kept if _meets_literals(pos, neg, items[k])]
        rest.extend(
            item for item in items[index + 1 :] if _meets_literals(pos, neg, item)
        )
        if not _covered(mgr, _function(mgr, pos, neg, xors) - dc, rest):
            kept.append(index)
    return kept


def _covered(mgr, function, items: list[tuple]) -> bool:
    """Whether the union of ``items`` contains ``function``.

    Each round takes one point of what is still uncovered and sharps out
    the first item that contains it; an item is sharped at most once, as
    no later point can lie in it.
    """
    while not function.is_false:
        point = _witness(mgr, function.node)
        for position, (pos, neg, xors) in enumerate(items):
            if point & pos == pos and not point & neg and (
                not xors
                or all(((point >> i) ^ (point >> j)) & 1 == phase for i, j, phase in xors)
            ):
                break
        else:
            return False
        function = function - _function(mgr, *items.pop(position))
    return True


def _witness(mgr, edge: int) -> int:
    """One point of a non-false BDD edge, as a mask (bit ``i`` = variable ``i``).

    A single walk from the root to TRUE: every non-false edge of a
    reduced diagram reaches TRUE, so the walk takes the low branch
    unless it is FALSE.  Variables the path skips are 0.  Levels map to
    declared variables through the manager's current order.
    """
    level_of, low_of, high_of = mgr._level, mgr._low, mgr._high
    level_var = mgr._level_var
    point = 0
    while edge > 1:
        node = edge >> 1
        low = low_of[node] ^ (edge & 1)
        if low:
            edge = low
        else:
            edge = high_of[node] ^ (edge & 1)
            point |= 1 << level_var[level_of[node]]
    return point


def _reduce_by_sharp(cubes, on, n_vars: int) -> list[tuple[int, int]]:
    mgr = on.mgr
    reduced: list[tuple[int, int]] = []
    for index, (pos, neg) in enumerate(cubes):
        required = mgr.product(pos, neg) & on
        for other in (*reduced, *cubes[index + 1 :]):
            if required.is_false:
                break
            if _meets_literals(pos, neg, other):
                required = required - mgr.product(*other)
        smaller = supercube_masks(required, n_vars)
        if smaller is not None:
            reduced.append(smaller)
    return reduced


def _bdd_supercube(function, n_vars: int) -> tuple[int, int]:
    """Supercube of a non-false BDD function in one pass over its nodes.

    A variable keeps a literal iff every point gives it the same value.
    Every non-false edge lies on a path to TRUE, so a level takes the
    values of its nodes' non-false branches, and both values wherever an
    edge jumps over it.  Levels map to variables as in :func:`_witness`.
    """
    mgr = function.mgr
    level_of, low_of, high_of = mgr._level, mgr._low, mgr._high
    n_levels = mgr.n_vars
    # Bit 1: some point has the level's variable 0; bit 2: some has it 1.
    values = [0] * n_levels
    root = function.node
    for skipped in range(min(level_of[root >> 1], n_levels)):
        values[skipped] = 3
    seen = {root}
    stack = [root] if root > 1 else []
    while stack:
        edge = stack.pop()
        node = edge >> 1
        here = level_of[node]
        for bit, child in ((1, low_of[node] ^ (edge & 1)), (2, high_of[node] ^ (edge & 1))):
            if not child:
                continue
            values[here] |= bit
            for skipped in range(here + 1, min(level_of[child >> 1], n_levels)):
                values[skipped] = 3
            if child > 1 and child not in seen:
                seen.add(child)
                stack.append(child)
    pos = neg = 0
    for level, var in enumerate(mgr._level_var):
        if var < n_vars and values[level] == 2:
            pos |= 1 << var
        elif var < n_vars and values[level] == 1:
            neg |= 1 << var
    return pos, neg


__all__ = ["irredundant", "reduce", "supercube_masks"]
