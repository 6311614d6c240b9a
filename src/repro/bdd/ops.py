"""Derived BDD algorithms: irredundant sum-of-products extraction.

:func:`isop` implements the Minato–Morreale ISOP procedure.  Given a lower
bound ``L`` and an upper bound ``U`` (``L <= U``), it returns a list of
cubes whose union lies between the bounds and is an irredundant cover.
This is the canonical bridge from BDD representations of incompletely
specified functions to cube covers: ``isop(f.on, f.on | f.dc)`` seeds the
two-level minimizers in :mod:`repro.twolevel`.

Both :func:`isop` and :func:`transfer` run on explicit work stacks (no
Python recursion), so chain-structured functions over thousands of
variables are handled without touching the interpreter recursion limit.

Cubes are returned as ``{variable_name: bool}`` dictionaries, readily
convertible to :class:`repro.cover.Cube`.
"""

from __future__ import annotations

from repro.bdd.manager import EDGE_BITS, TERMINAL_LEVEL, BDD, Function

# isop frame slots (explicit stack machine; see _isop_edges).
_STAGE, _LOW, _UP, _LEVEL, _L0, _L1, _U0, _U1, _F0, _CUBES0, _F1, _CUBES1 = range(12)


def _isop_edges(
    mgr: BDD, lower: int, upper: int
) -> tuple[int, list[tuple[tuple[int, bool], ...]]]:
    """Iterative Minato–Morreale core over edges.

    Returns ``(cover_edge, cubes)``; cubes are tuples of ``(level,
    polarity)`` pairs, top variable first — byte-identical to what the
    recursive formulation produces, so downstream covers are stable.
    The per-call memo keys each ``(low, up)`` bound pair by the packed
    integer ``(low << EDGE_BITS) | up``, as the manager's tables do.
    """
    shift = EDGE_BITS
    node_cache: dict[int, int] = {}
    cube_cache: dict[int, tuple] = {}

    def resolve(low: int, up: int):
        """Terminal/cached sub-results, without allocating a frame."""
        if low == 0:
            return (0, [])
        if up == 1:
            return (1, [()])
        key = (low << shift) | up
        cached = node_cache.get(key)
        if cached is not None:
            return (cached, list(cube_cache[key]))
        return None

    ret = resolve(lower, upper)
    if ret is not None:
        return ret
    frames: list[list] = [
        [0, lower, upper, 0, 0, 0, 0, 0, 0, None, 0, None]
    ]
    while frames:
        frame = frames[-1]
        stage = frame[_STAGE]
        if stage == 0:
            low, up = frame[_LOW], frame[_UP]
            level = min(mgr._level[low >> 1], mgr._level[up >> 1])
            frame[_LEVEL] = level
            frame[_L0], frame[_L1] = mgr._branches(low, level)
            frame[_U0], frame[_U1] = mgr._branches(up, level)
            frame[_STAGE] = 1
            # Cubes that must contain the negative literal of this variable.
            sub_low = mgr._and(frame[_L0], frame[_U1] ^ 1)
            ret = resolve(sub_low, frame[_U0])
            if ret is None:
                frames.append(
                    [0, sub_low, frame[_U0], 0, 0, 0, 0, 0, 0, None, 0, None]
                )
        elif stage == 1:
            frame[_F0], frame[_CUBES0] = ret
            frame[_STAGE] = 2
            # Cubes that must contain the positive literal of this variable.
            sub_low = mgr._and(frame[_L1], frame[_U0] ^ 1)
            ret = resolve(sub_low, frame[_U1])
            if ret is None:
                frames.append(
                    [0, sub_low, frame[_U1], 0, 0, 0, 0, 0, 0, None, 0, None]
                )
        elif stage == 2:
            frame[_F1], frame[_CUBES1] = ret
            frame[_STAGE] = 3
            # Remaining onset handled by cubes independent of this variable.
            l_rest = mgr._or(
                mgr._and(frame[_L0], frame[_F0] ^ 1),
                mgr._and(frame[_L1], frame[_F1] ^ 1),
            )
            upper_rest = mgr._and(frame[_U0], frame[_U1])
            ret = resolve(l_rest, upper_rest)
            if ret is None:
                frames.append(
                    [0, l_rest, upper_rest, 0, 0, 0, 0, 0, 0, None, 0, None]
                )
        else:
            fd_edge, cubes_d = ret
            level = frame[_LEVEL]
            # Both disjunctions lie below ``level``: the cover is one node.
            high = mgr._or(frame[_F1], fd_edge)
            cover_edge = mgr._mk(level, mgr._or(frame[_F0], fd_edge), high)
            cubes = (
                [((level, False),) + cube for cube in frame[_CUBES0]]
                + [((level, True),) + cube for cube in frame[_CUBES1]]
                + cubes_d
            )
            key = (frame[_LOW] << shift) | frame[_UP]
            node_cache[key] = cover_edge
            cube_cache[key] = tuple(cubes)
            ret = (cover_edge, cubes)
            frames.pop()
    return ret


def isop(lower: Function, upper: Function) -> tuple[list[dict[str, bool]], Function]:
    """Minato–Morreale irredundant SOP between ``lower`` and ``upper``.

    Returns ``(cubes, realized)`` where ``realized`` is the function of
    the produced cover; it always satisfies ``lower <= realized <=
    upper``.  Backend-neutral: bitset bounds run the dense mirror of the
    same recursion (:func:`repro.backend.bitset.isop_dense`) and produce
    an identical cube sequence.
    """
    mgr = lower.mgr
    if upper.mgr is not mgr:
        raise ValueError("lower and upper bounds use different managers")
    if not lower <= upper:
        raise ValueError("isop requires lower <= upper")
    names = mgr.var_names
    if isinstance(lower, Function):
        if not mgr._order_is_identity:
            # The recursion splits on the current top level, so its cube
            # sequence depends on the physical order.  Run it in a
            # declaration-order shadow: covers (and everything minimized
            # from them) stay byte-identical across reorders.
            shadow = BDD(list(names))
            cover_edge, cubes = _isop_edges(
                shadow,
                transfer(lower, shadow).node,
                transfer(upper, shadow).node,
            )
            realized = transfer(Function(shadow, cover_edge), mgr)
        else:
            cover_edge, cubes = _isop_edges(mgr, lower.node, upper.node)
            realized = Function(mgr, cover_edge)
    else:
        from repro.backend.bitset import isop_dense

        cover_bits, cubes = isop_dense(
            mgr, lower._aligned_bits(), upper._aligned_bits()
        )
        realized = mgr._wrap(cover_bits)
    dict_cubes = [
        {names[level]: value for level, value in cube} for cube in cubes
    ]
    return dict_cubes, realized


def cube_to_function(mgr: BDD, cube: dict[str, bool]) -> Function:
    """Build the BDD of a cube given as ``{name: polarity}``."""
    return mgr.cube(cube)


def level_map_by_name(var_names, target) -> list[int]:
    """Current target level of every source variable, in source order.

    The variable contract every cross-manager move shares (structural
    transfer, dense conversion, serializer load): each source variable
    must be declared in ``target`` and the shared variables must keep
    their relative *declaration* order.  Raises :class:`ValueError`
    otherwise.  The returned levels are the target's **current** levels;
    when the target has been reordered they need not be monotonic, and
    structural (``_mk``) consumers must fall back to a semantic rebuild.
    """
    mapped = []
    positions = []
    index_of = getattr(target, "_var_index", None)
    for name in var_names:
        try:
            mapped.append(target.level_of(name))
        except KeyError:
            raise ValueError(
                f"target manager does not declare variable {name!r}"
            ) from None
        if index_of is not None:
            positions.append(index_of[name])
    check = positions if index_of is not None else mapped
    if check != sorted(check):
        raise ValueError(
            "variable orders of source and target managers are incompatible"
        )
    return mapped


def transfer(function: Function, target: BDD) -> Function:
    """Rebuild ``function`` inside another manager, matching variables by name.

    Every variable in the source manager must be declared in ``target``,
    and the relative order of the shared variables must agree (the
    structural copy below preserves levels, so an order inversion would
    produce an unordered diagram).  Extra variables in ``target`` are
    simply unused.  This is the primitive behind batch decomposition over
    a single shared manager.

    When either side is a bitset manager the move is a direct structural
    conversion (dense tabulation of a BDD, or Shannon rebuild of a dense
    table) under the same variable contract; a bitset-to-bitset move
    rides on the canonical serializer.
    """
    src = function.mgr
    if target is src:
        return function
    if not (isinstance(function, Function) and isinstance(target, BDD)):
        from repro.backend.bitset import (
            BitsetBDD,
            BitsetFunction,
            function_from_bdd,
            function_to_bdd,
        )

        if isinstance(function, Function) and isinstance(target, BitsetBDD):
            return function_from_bdd(function, target)
        if isinstance(function, BitsetFunction) and isinstance(target, BDD):
            return function_to_bdd(function, target)
        from repro.bdd import serialize

        return serialize.load(serialize.dump(function), target)
    # The copy walks *source levels*, so index the validated declaration
    # map through the source's current order.
    decl_levels = level_map_by_name(src.var_names, target)
    level_map = [decl_levels[var] for var in src._level_var]
    # When either side has been reordered the per-level map may invert
    # somewhere; a structural ``_mk`` copy would build an unordered
    # diagram, so those moves rebuild semantically through ``ite``.
    structural = all(a < b for a, b in zip(level_map, level_map[1:]))
    var_edges = (
        None if structural else [target._mk(lvl, 0, 1) for lvl in level_map]
    )

    # Iterative post-order copy.  ``copied[i]`` is the target edge of the
    # *plain* (uncomplemented) function of source node index ``i``;
    # complements carried by edges transfer as a final bit flip.
    copied: dict[int, int] = {0: 0}
    src_level, src_low, src_high = src._level, src._low, src._high
    stack: list[tuple[int, bool]] = [(function.node >> 1, False)]
    while stack:
        index, expanded = stack.pop()
        if index in copied:
            continue
        low, high = src_low[index], src_high[index]
        if expanded:
            low_edge = copied[low >> 1] ^ (low & 1)
            high_edge = copied[high >> 1] ^ (high & 1)
            if structural:
                copied[index] = target._mk(
                    level_map[src_level[index]], low_edge, high_edge
                )
            else:
                copied[index] = target._ite(
                    var_edges[src_level[index]], high_edge, low_edge
                )
        else:
            stack.append((index, True))
            stack.append((high >> 1, False))
            stack.append((low >> 1, False))
    return Function(target, copied[function.node >> 1] ^ (function.node & 1))


def count_nodes_dag(functions: list[Function]) -> int:
    """Number of distinct BDD nodes used by a set of functions (shared DAG).

    Counts distinct *edges* (canonical subfunctions), which matches the
    node count of the equivalent complement-free shared ROBDD.
    """
    if not functions:
        return 0
    mgr = functions[0].mgr
    seen: set[int] = set()
    stack = [f.node for f in functions]
    low_of, high_of = mgr._low, mgr._high
    while stack:
        edge = stack.pop()
        if edge in seen:
            continue
        seen.add(edge)
        index = edge >> 1
        if index:
            complement = edge & 1
            stack.append(low_of[index] ^ complement)
            stack.append(high_of[index] ^ complement)
    return len(seen)


__all__ = [
    "isop",
    "cube_to_function",
    "count_nodes_dag",
    "transfer",
    "TERMINAL_LEVEL",
]
