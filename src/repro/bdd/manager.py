"""ROBDD node manager and function handles (complemented-edge core).

The design follows the classic Brace–Rudell–Bryant construction, with
the representation upgrades of mature packages (CUDD, BuDDy, Sylvan):

* **Complemented edges.**  An *edge* is ``(node_index << 1) | bit``:
  the low bit says "interpret the pointed-to function negated".  There
  is a single terminal node (index ``0``), so the constant edges are
  ``0`` (false) and ``1`` (true) and negation is one integer XOR —
  ``~f`` no longer walks the graph.  Canonicity is preserved by a
  normalization rule enforced in :meth:`BDD._mk`: the *high* edge of a
  stored node is never complemented (the complement is pushed onto the
  node's own edge instead), so every Boolean function still has exactly
  one representation.
* **Two apply kernels.**  :meth:`BDD._and` is the conjunction kernel
  (CUDD's ``cuddBddAndRecur``): ``&``, ``|`` and ``-``, the ISOP, the
  disjunctions of ``exists`` and the XOR factors of pseudoproducts all
  run on it.  :meth:`BDD._ite` serves the three-operand rest: ``ite``,
  ``^``, composition and rebuilds onto reordered targets.  Both memoize
  in the one apply table (``stats()["tables"]["ite"]``), ITE triples
  beside AND pairs.
* **Iterative algorithms.**  Both apply kernels, satcount,
  cofactor/restriction, quantification, composition, and minterm
  enumeration all run on explicit work stacks, so chain-structured
  functions over thousands of variables never hit Python's recursion
  limit.
* **Per-operation computed tables with eviction.**  Each operation owns
  a size-bounded :class:`ComputedTable` (LRU-style batch eviction of the
  oldest half on overflow), so long batch runs stop growing memory
  without bound; ``stats()`` reports per-table hit rates.
* **Mark-and-sweep ``gc()``.**  Live roots are found through weak
  references to every :class:`Function` handle; unreachable nodes are
  unlinked from the unique table and their slots recycled by later
  ``_mk`` calls (node indices of live handles are never remapped, so
  handle hashes stay stable).  Computed tables are invalidated on sweep.

Variable order starts as the order of :meth:`BDD.add_var` calls, and
:meth:`BDD.reorder` may change it dynamically (Rudell sifting over
in-place adjacent-level swaps).  Two indirection layers decouple
clients from the physical order:

* **Variable maps.**  ``_var_level``/``_level_var`` translate between a
  variable's declaration index and its current level; every entry point
  that names a variable (``var``, ``cube``, ``minterm``, ``product``,
  evaluation, minterm enumeration) goes through them, so the declared
  semantics — variable 0 is the most significant minterm bit — hold
  under any physical order.
* **Handle slots.**  Each :class:`Function` owns a slot in a manager
  slot table mapping slot -> edge.  Adjacent-level swaps rewrite nodes
  *in place* (a rewritten node keeps its index and its semantic
  function), so edges held by live handles never change — the slot
  table is the checked invariant for that: :meth:`reorder` asserts
  every live handle's edge still matches its slot, and handle hashes
  are derived from the (stable) slot.

Serialized dumps and :func:`repro.bdd.serialize.canonical_hash` are
normalized to declaration order and therefore byte-stable across
reorders.  The manager also reclaims memory: bounded computed tables
plus ``gc()`` keep long-running batches at their live working-set size.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import islice
from weakref import ref as _weakref

from repro.obs.trace import span as _obs_span
from repro.utils.bitops import bit_indices

#: Level assigned to the terminal node; larger than any variable level.
TERMINAL_LEVEL = 1 << 30

#: Default computed-table capacity (entries) before batch eviction.
DEFAULT_CACHE_SIZE = 1 << 18


class ComputedTable:
    """Size-bounded operation cache with LRU-style batch eviction.

    A plain dict preserves insertion order, so dropping the first half
    of the keys on overflow approximates least-recently-*inserted*
    eviction at a fraction of the bookkeeping cost of true LRU — the
    right trade for a cache whose entries are always recomputable.
    """

    __slots__ = ("data", "capacity", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.data: dict = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        value = self.data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value) -> None:
        data = self.data
        if len(data) >= self.capacity:
            for old in list(islice(data, self.capacity // 2)):
                del data[old]
            self.evictions += self.capacity // 2
        data[key] = value

    def clear(self) -> None:
        self.data.clear()

    def stats(self) -> dict:
        """Hit/miss/eviction counters plus the current entry count."""
        return {
            "size": len(self.data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


class BDD:
    """Manager owning the unique table and operation caches.

    ``cache_size`` bounds each per-operation computed table (see
    :class:`ComputedTable`); the unique table itself is never evicted —
    only :meth:`gc` removes nodes, and only unreachable ones.
    """

    def __init__(
        self, var_names: Iterable[str] = (), cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        self._var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        # Order maps: declaration index <-> current level.  Identity
        # until :meth:`reorder` permutes them; ``_order_is_identity``
        # lets hot paths skip the indirection entirely.
        self._var_level: list[int] = []
        self._level_var: list[int] = []
        self._order_is_identity = True
        # Handle slot table: slot -> edge (interned; ``_edge_slot`` is
        # the inverse).  Slots 0/1 are pinned to the constants.
        self._slot_edge: list[int] = [0, 1]
        self._edge_slot: dict[int, int] = {0: 0, 1: 1}
        self._slot_free: list[int] = []
        # Parallel node arrays indexed by *node index* (edge >> 1).
        # Index 0 is the single terminal; children are stored as edges.
        self._level: list[int] = [TERMINAL_LEVEL]
        self._low: list[int] = [0]
        self._high: list[int] = [0]
        #: (level, low_edge, high_edge) -> node index; high edge regular.
        self._unique: dict[tuple[int, int, int], int] = {}
        #: Recycled node indices (dead slots from the last :meth:`gc`).
        self._free: list[int] = []
        self._cache_size = cache_size
        self._ite_cache = ComputedTable(cache_size)
        self._test_cache = ComputedTable(cache_size)
        self._cofactor_cache = ComputedTable(cache_size // 4)
        self._exists_cache = ComputedTable(cache_size // 4)
        self._compose_cache = ComputedTable(cache_size // 4)
        self._satcount_cache = ComputedTable(cache_size // 4)
        #: Named auxiliary tables handed out by :meth:`computed_table`.
        self._user_tables: dict[str, ComputedTable] = {}
        #: Weak registry of every live Function handle — the gc root set.
        #: Keyed by ``id(handle)`` with plain (callback-free) weakrefs:
        #: far cheaper per Function than a WeakSet, at the price of dead
        #: entries lingering until the amortized compaction below.
        self._handles: dict[int, _weakref] = {}
        self._handle_limit = 1 << 16
        self._gc_runs = 0
        self._gc_reclaimed = 0
        # Scratch stacks reused across _ite and _and calls (the machines
        # are not reentrant: no manager operation runs inside an apply).
        self._ite_tasks: list[tuple] = []
        self._ite_values: list[int] = []
        for name in var_names:
            self.add_var(name)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    @property
    def var_names(self) -> tuple[str, ...]:
        """Declared variable names, in declaration order."""
        return tuple(self._var_names)

    def var_order(self) -> tuple[str, ...]:
        """Variable names in the *current* BDD order (level 0 first)."""
        return tuple(self._var_names[v] for v in self._level_var)

    @property
    def n_vars(self) -> int:
        """Number of declared variables."""
        return len(self._var_names)

    def add_var(self, name: str) -> "Function":
        """Declare a new variable below all existing ones and return it."""
        if name in self._var_index:
            raise ValueError(f"variable {name!r} already declared")
        index = len(self._var_names)
        self._var_names.append(name)
        self._var_index[name] = index
        # New variables always enter below all existing levels, which
        # keeps both order maps consistent under any prior reorder.
        self._var_level.append(index)
        self._level_var.append(index)
        # Satcounts are relative to the declared space; widening it
        # invalidates them (the other tables key on edges only).
        self._satcount_cache.clear()
        return Function(self, self._mk(self._var_level[index], 0, 1))

    def var(self, name: str) -> "Function":
        """Return the projection function of a declared variable."""
        return Function(self, self._mk(self._var_level[self._var_index[name]], 0, 1))

    def var_at(self, index: int) -> "Function":
        """Return the projection function of the variable declared at ``index``."""
        return Function(self, self._mk(self._var_level[index], 0, 1))

    def level_of(self, name: str) -> int:
        """Return the current BDD level (order position) of variable ``name``."""
        return self._var_level[self._var_index[name]]

    # ------------------------------------------------------------------
    # Constants and cubes
    # ------------------------------------------------------------------
    @property
    def false(self) -> "Function":
        """The constant-0 function."""
        return Function(self, 0)

    @property
    def true(self) -> "Function":
        """The constant-1 function."""
        return Function(self, 1)

    def cube(self, assignment: dict[str, int | bool]) -> "Function":
        """Build the conjunction of literals described by ``assignment``.

        ``{"x1": 1, "x3": 0}`` yields the function ``x1 & ~x3``.  Built
        bottom-up with ``_mk`` only — no apply calls, no cache traffic.
        """
        levels = sorted(
            (
                (self._var_level[self._var_index[name]], bool(value))
                for name, value in assignment.items()
            ),
            reverse=True,
        )
        return Function(self, self._cube_edge(levels))

    def _cube_edge(self, levels: list[tuple[int, bool]]) -> int:
        """Bottom-up cube construction from ``(level, polarity)`` pairs
        sorted by level descending (deepest literal first)."""
        edge = 1
        for level, value in levels:
            edge = self._mk(level, 0, edge) if value else self._mk(level, edge, 0)
        return edge

    def minterm(self, minterm_index: int) -> "Function":
        """Build the single-minterm function for ``minterm_index``.

        Variable 0 is the most significant bit of the index (library-wide
        convention, see :mod:`repro.utils.bitops`).
        """
        n = self.n_vars
        level_var = self._level_var
        edge = 1
        for level in range(n - 1, -1, -1):
            bit = (minterm_index >> (n - 1 - level_var[level])) & 1
            edge = self._mk(level, 0, edge) if bit else self._mk(level, edge, 0)
        return Function(self, edge)

    def product(self, pos: int, neg: int) -> "Function":
        """Product function from literal masks (bit ``i`` = variable ``i``).

        Built bottom-up (deepest literal first) straight through the
        unique table — one node per literal, no apply calls — and
        memoized in the manager's shared product table.  This is the
        backend-neutral construction path for
        :meth:`repro.cover.cube.Cube.to_function`.
        """
        table = self.computed_table("product")
        key = (pos, neg)
        edge = table.get(key)
        if edge is None:
            edge = self._cube_edge(self._literal_levels(pos, neg))
            table.put(key, edge)
        return Function(self, edge)

    def spp_product(self, pos: int, neg: int, xors) -> "Function":
        """Pseudoproduct function: literal masks plus XOR factors.

        ``xors`` is an iterable of ``(i, j, phase)``-shaped factors.  The
        literal part is built bottom-up through the unique table; each
        XOR factor — a 3-node diagram, support-disjoint from everything
        else by the 2-pseudocube invariant — is conjoined with one
        cached apply.  Memoized alongside plain products.
        """
        factors = tuple(sorted(tuple(factor) for factor in xors))
        table = self.computed_table("product")
        key = (pos, neg, factors) if factors else (pos, neg)
        edge = table.get(key)
        if edge is None:
            var_level = self._var_level
            edge = self._cube_edge(self._literal_levels(pos, neg))
            for i, j, phase in factors:
                # The factor is symmetric in its variables; build it with
                # whichever sits higher in the *current* order on top.
                li, lj = var_level[i], var_level[j]
                if li > lj:
                    li, lj = lj, li
                xb = self._mk(lj, 0, 1)
                low = xb if phase else xb ^ 1
                edge = self._and(edge, self._mk(li, low, low ^ 1))
            table.put(key, edge)
        return Function(self, edge)

    def _literal_levels(self, pos: int, neg: int) -> list[tuple[int, bool]]:
        """(level, polarity) pairs of literal masks, deepest level first."""
        var_level = self._var_level
        literals: list[tuple[int, bool]] = []
        index = 0
        mask = pos | neg
        while mask:
            if mask & 1:
                literals.append((var_level[index], bool((pos >> index) & 1)))
            mask >>= 1
            index += 1
        if self._order_is_identity:
            literals.reverse()
        else:
            literals.sort(reverse=True)
        return literals

    def _wrap(self, edge: int) -> "Function":
        """Wrap a raw edge as a function handle (serializer hook)."""
        return Function(self, edge)

    def _constant_raw(self) -> tuple[int, int]:
        """Raw edges of the constants (serializer ref seeds)."""
        return 0, 1

    # ------------------------------------------------------------------
    # Core node construction
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        """The unique-table constructor; returns a canonical *edge*.

        Normalization: a reduced node is stored only with a regular
        (non-complemented) high edge — ``mk(v, l, ~h)`` is stored as
        ``~mk(v, ~l, h)`` — so ``f`` and ``~f`` always share one node.
        """
        if low == high:
            return low
        if high & 1:
            # Push the complement onto the resulting edge.
            key = (level, low ^ 1, high ^ 1)
            node = self._unique.get(key)
            if node is None:
                node = self._new_node(level, low ^ 1, high ^ 1, key)
            return (node << 1) | 1
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = self._new_node(level, low, high, key)
        return node << 1

    def _new_node(self, level: int, low: int, high: int, key: tuple) -> int:
        free = self._free
        if free:
            node = free.pop()
            self._level[node] = level
            self._low[node] = low
            self._high[node] = high
        else:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
        self._unique[key] = node
        return node

    # -- apply kernels: ite and and ----------------------------------------

    def _ite(self, f: int, g: int, h: int) -> int:
        """Iterative if-then-else on edges (explicit work stack).

        Serves the three-operand operations: :meth:`Function.ite`, ``^``,
        :meth:`_compose` and the semantic rebuilds onto reordered targets
        (``transfer``, the serializer and the bitset converter).  Every
        conjunction-shaped operation runs on :meth:`_and` instead.

        Each triple is normalized to a canonical *standard triple*
        before the computed-table lookup: arguments equal to the
        condition (or its complement) collapse to constants, the
        condition and then-argument are made regular (complements pushed
        to the result), and the symmetric forms of and/or/xnor are
        argument-ordered — all of which raises cache hit rates, exactly
        as in Brace–Rudell–Bryant.  The apply table holds these triples
        beside :meth:`_and`'s pairs; the key lengths keep them apart.
        """
        table = self._ite_cache
        cache = table.data
        # Fast path: most calls resolve by normalization or in the
        # computed table; handle those without allocating the machine.
        if f == 1:
            return g
        if f == 0:
            return h
        if g == f:
            g = 1
        elif g == f ^ 1:
            g = 0
        if h == f:
            h = 0
        elif h == f ^ 1:
            h = 1
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        if g == 0 and h == 1:
            return f ^ 1
        out = 0
        if f & 1:
            f ^= 1
            g, h = h, g
        if g == 1:
            if h >> 1 < f >> 1:
                f, h = h, f
        elif h == 0:
            if g >> 1 < f >> 1:
                f, g = g, f
        elif h == g ^ 1 and g >> 1 < f >> 1:
            f, g, h = g, f, f ^ 1
        if f & 1:
            f ^= 1
            g, h = h, g
        if g & 1:
            out = 1
            g ^= 1
            h ^= 1
        hit = cache.get((f, g, h))
        if hit is not None:
            table.hits += 1
            return hit ^ out
        capacity = table.capacity
        level_of = self._level
        low_of = self._low
        high_of = self._high
        unique = self._unique
        # Task encodings:  (0, f, g, h) — evaluate the triple, push its
        # result edge onto ``values``; (1, level, key, oc) — pop the
        # high then low results, rebuild via _mk, memoize under ``key``;
        # (2, level, key, oc, high) — high child resolved inline, pop
        # only the low result.  The low spine is descended without a
        # task round-trip, so an expanded node costs two pushes at most.
        tasks = self._ite_tasks
        values = self._ite_values
        tasks.clear()
        values.clear()
        tasks.append((0, f, g, h))
        while tasks:
            task = tasks.pop()
            if task[0] == 0:
                _, f, g, h = task
                oc = 0
                while True:
                    # Terminal conditions.
                    if f == 1:
                        values.append(g ^ oc)
                        break
                    if f == 0:
                        values.append(h ^ oc)
                        break
                    # Collapse arguments equal to the condition.
                    if g == f:
                        g = 1
                    elif g == f ^ 1:
                        g = 0
                    if h == f:
                        h = 0
                    elif h == f ^ 1:
                        h = 1
                    if g == h:
                        values.append(g ^ oc)
                        break
                    if g == 1 and h == 0:
                        values.append(f ^ oc)
                        break
                    if g == 0 and h == 1:
                        values.append(f ^ 1 ^ oc)
                        break
                    # Condition must be regular.
                    if f & 1:
                        f ^= 1
                        g, h = h, g
                    # Symmetric-operator argument ordering.
                    if g == 1:
                        if h >> 1 < f >> 1:
                            f, h = h, f
                    elif h == 0:
                        if g >> 1 < f >> 1:
                            f, g = g, f
                    elif h == g ^ 1 and g >> 1 < f >> 1:
                        f, g, h = g, f, f ^ 1
                    if f & 1:
                        f ^= 1
                        g, h = h, g
                    # Then-argument must be regular; complement the result.
                    if g & 1:
                        oc ^= 1
                        g ^= 1
                        h ^= 1
                    key = (f, g, h)
                    hit = cache.get(key)
                    if hit is not None:
                        table.hits += 1
                        values.append(hit ^ oc)
                        break
                    table.misses += 1
                    fi, gi, hi = f >> 1, g >> 1, h >> 1
                    level = fl = level_of[fi]
                    gl = level_of[gi]
                    if gl < level:
                        level = gl
                    hl = level_of[hi]
                    if hl < level:
                        level = hl
                    if fl == level:
                        fc = f & 1
                        f0, f1 = low_of[fi] ^ fc, high_of[fi] ^ fc
                    else:
                        f0 = f1 = f
                    if gl == level:
                        gc = g & 1
                        g0, g1 = low_of[gi] ^ gc, high_of[gi] ^ gc
                    else:
                        g0 = g1 = g
                    if hl == level:
                        hc = h & 1
                        h0, h1 = low_of[hi] ^ hc, high_of[hi] ^ hc
                    else:
                        h0 = h1 = h
                    # Peephole: resolve a trivially-terminal high child
                    # now and skip its task round-trip entirely.
                    if f1 == 1:
                        high = g1
                    elif f1 == 0:
                        high = h1
                    elif g1 == h1:
                        high = g1
                    elif g1 == 1 and h1 == 0:
                        high = f1
                    elif g1 == 0 and h1 == 1:
                        high = f1 ^ 1
                    else:
                        high = None
                    if high is None:
                        tasks.append((1, level, key, oc))
                        tasks.append((0, f1, g1, h1))
                    else:
                        tasks.append((2, level, key, oc, high))
                    f, g, h, oc = f0, g0, h0, 0
            else:
                if task[0] == 1:
                    _, level, key, oc = task
                    high = values.pop()
                else:
                    _, level, key, oc, high = task
                low = values.pop()
                # Inline _mk (this is the single hottest allocation site).
                if low == high:
                    result = low
                elif high & 1:
                    ukey = (level, low ^ 1, high ^ 1)
                    node = unique.get(ukey)
                    if node is None:
                        node = self._new_node(level, low ^ 1, high ^ 1, ukey)
                    result = (node << 1) | 1
                else:
                    ukey = (level, low, high)
                    node = unique.get(ukey)
                    if node is None:
                        node = self._new_node(level, low, high, ukey)
                    result = node << 1
                if len(cache) >= capacity:
                    for old in list(islice(cache, capacity // 2)):
                        del cache[old]
                    table.evictions += capacity // 2
                cache[key] = result
                values.append(result ^ oc)
        return values[-1] ^ out

    def _and(self, f: int, g: int) -> int:
        """Iterative conjunction on edges: :meth:`_ite` cut to two operands.

        Serves ``&``, ``|`` (as ``~(~f & ~g)``), ``-`` (as ``f & ~g``),
        the ISOP, the disjunction at quantified levels of :meth:`_exists`
        and the XOR factors of :meth:`spp_product` — CUDD's
        ``cuddBddAndRecur`` beside ``cuddBddIteRecur``.  Terminal cases
        are a constant operand, ``f == g`` and ``f == ~g``; operands are
        ordered ``f < g``, and the pair is memoized in the same apply
        table as :meth:`_ite`'s triples.  The descent is :meth:`_ite`'s
        (low child first, high child resolved inline when terminal), so
        the unique table gains the same nodes in the same order as
        ``ite(f, g, 0)`` would add.
        """
        if f > g:
            f, g = g, f
        if f <= 1:
            return g if f else 0
        if f == g:
            return f
        if f == g ^ 1:
            return 0
        table = self._ite_cache
        cache = table.data
        hit = cache.get((f, g))
        if hit is not None:
            table.hits += 1
            return hit
        capacity = table.capacity
        level_of = self._level
        low_of = self._low
        high_of = self._high
        unique = self._unique
        # Task encodings as in _ite, without the output complement:
        # (0, f, g) — evaluate the pair; (1, level, key) — pop the high
        # then low results and rebuild; (2, level, key, high) — high
        # child resolved inline, pop only the low result.
        tasks = self._ite_tasks
        values = self._ite_values
        tasks.clear()
        values.clear()
        tasks.append((0, f, g))
        while tasks:
            task = tasks.pop()
            if task[0] == 0:
                _, f, g = task
                while True:
                    if f > g:
                        f, g = g, f
                    if f <= 1:
                        values.append(g if f else 0)
                        break
                    if f == g:
                        values.append(f)
                        break
                    if f == g ^ 1:
                        values.append(0)
                        break
                    key = (f, g)
                    hit = cache.get(key)
                    if hit is not None:
                        table.hits += 1
                        values.append(hit)
                        break
                    table.misses += 1
                    fi, gi = f >> 1, g >> 1
                    fl = level_of[fi]
                    gl = level_of[gi]
                    level = fl if fl < gl else gl
                    if fl == level:
                        fc = f & 1
                        f0, f1 = low_of[fi] ^ fc, high_of[fi] ^ fc
                    else:
                        f0 = f1 = f
                    if gl == level:
                        gc = g & 1
                        g0, g1 = low_of[gi] ^ gc, high_of[gi] ^ gc
                    else:
                        g0 = g1 = g
                    # Peephole: resolve a trivially-terminal high child.
                    if f1 == 0 or g1 == 0 or f1 == g1 ^ 1:
                        high = 0
                    elif f1 == 1 or f1 == g1:
                        high = g1
                    elif g1 == 1:
                        high = f1
                    else:
                        high = None
                    if high is None:
                        tasks.append((1, level, key))
                        tasks.append((0, f1, g1))
                    else:
                        tasks.append((2, level, key, high))
                    f, g = f0, g0
            else:
                if task[0] == 1:
                    _, level, key = task
                    high = values.pop()
                else:
                    _, level, key, high = task
                low = values.pop()
                # Inline _mk, as in _ite.
                if low == high:
                    result = low
                elif high & 1:
                    ukey = (level, low ^ 1, high ^ 1)
                    node = unique.get(ukey)
                    if node is None:
                        node = self._new_node(level, low ^ 1, high ^ 1, ukey)
                    result = (node << 1) | 1
                else:
                    ukey = (level, low, high)
                    node = unique.get(ukey)
                    if node is None:
                        node = self._new_node(level, low, high, ukey)
                    result = node << 1
                if len(cache) >= capacity:
                    for old in list(islice(cache, capacity // 2)):
                        del cache[old]
                    table.evictions += capacity // 2
                cache[key] = result
                values.append(result)
        return values[-1]

    def _or(self, u: int, v: int) -> int:
        """Disjunction on edges, by De Morgan: ``~(~u & ~v)``."""
        return self._and(u ^ 1, v ^ 1) ^ 1

    def _and_is_false(self, f: int, g: int) -> bool:
        """Emptiness test for ``f & g`` without building the conjunction.

        The workhorse behind subset (``f <= g`` is ``f & ~g == 0``) and
        disjointness queries: a plain depth-first sweep that allocates no
        BDD nodes, exits on the first shared minterm, and memoizes
        definite verdicts per unordered edge pair.  Minimizer expansion
        loops issue these tests in huge numbers; skipping the unique
        table makes them several times cheaper than a full apply.
        """
        if f == 0 or g == 0:
            return True
        if f == 1 or g == 1 or f == g:
            return False
        if f == g ^ 1:
            return True
        table = self._test_cache
        cache = table.data
        level_of = self._level
        low_of = self._low
        high_of = self._high
        # Frame: [f, g, next_branch] — branch 0 (low pair) then 1 (high).
        root = [f, g, 0] if f <= g else [g, f, 0]
        hit = cache.get((root[0], root[1]))
        if hit is not None:
            table.hits += 1
            return hit
        table.misses += 1
        frames = [root]
        violated = False
        while frames:
            frame = frames[-1]
            if violated:
                # A shared minterm below: every open frame is non-disjoint.
                table.put((frame[0], frame[1]), False)
                frames.pop()
                continue
            branch = frame[2]
            if branch == 2:
                table.put((frame[0], frame[1]), True)
                frames.pop()
                continue
            frame[2] += 1
            f, g = frame[0], frame[1]
            fi, gi = f >> 1, g >> 1
            fl, gl = level_of[fi], level_of[gi]
            level = fl if fl < gl else gl
            if fl == level:
                fc = f & 1
                fs = (high_of[fi] if branch else low_of[fi]) ^ fc
            else:
                fs = f
            if gl == level:
                gc = g & 1
                gs = (high_of[gi] if branch else low_of[gi]) ^ gc
            else:
                gs = g
            if fs == 0 or gs == 0 or fs == gs ^ 1:
                continue
            if fs == 1 or gs == 1 or fs == gs:
                violated = True
                continue
            pair = (fs, gs) if fs <= gs else (gs, fs)
            hit = cache.get(pair)
            if hit is not None:
                table.hits += 1
                if hit is False:
                    violated = True
                continue
            table.misses += 1
            frames.append([pair[0], pair[1], 0])
        return not violated

    def _branches(self, edge: int, level: int) -> tuple[int, int]:
        """Semantic (low, high) cofactor edges of ``edge`` at ``level``."""
        index = edge >> 1
        if self._level[index] == level:
            complement = edge & 1
            return self._low[index] ^ complement, self._high[index] ^ complement
        return edge, edge

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Live physical nodes in the manager (the terminal included)."""
        return len(self._level) - len(self._free)

    def size(self, function: "Function") -> int:
        """Number of distinct subfunctions reachable from ``function``.

        Counts *edges* (node, polarity pairs), which coincides with the
        node count of the equivalent complement-free ROBDD — including
        both constants when both are reachable — so sizes are directly
        comparable with the literature (a projection variable has size
        3, a constant size 1).
        """
        seen: set[int] = set()
        stack = [function.node]
        low_of, high_of = self._low, self._high
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

    def computed_table(self, name: str, capacity: int | None = None) -> ComputedTable:
        """A named auxiliary computed table owned by this manager.

        Derived layers memoize their own edge-valued constructions here
        (e.g. cube/pseudoproduct conversions) instead of keeping private
        dicts: entries share the manager's lifecycle — size-bounded,
        reported by :meth:`stats`, and invalidated by :meth:`clear_caches`
        and :meth:`gc` (which a private dict would dangerously survive,
        since evicted or collected edges must not be reused).
        """
        table = self._user_tables.get(name)
        if table is None:
            table = ComputedTable(self._cache_size if capacity is None else capacity)
            self._user_tables[name] = table
        return table

    def clear_caches(self) -> None:
        """Drop all computed tables (unique table is kept)."""
        self._ite_cache.clear()
        self._test_cache.clear()
        self._cofactor_cache.clear()
        self._exists_cache.clear()
        self._compose_cache.clear()
        self._satcount_cache.clear()
        for table in self._user_tables.values():
            table.clear()

    def _slot_for(self, edge: int) -> int:
        """Intern ``edge`` in the handle slot table and return its slot.

        Every :class:`Function` holds a slot; equal edges share one slot
        while any holder is alive, so slot-derived hashes respect handle
        equality.  Freed slots (see :meth:`gc`) are recycled only after
        no live handle can hold the old edge.
        """
        slot = self._edge_slot.get(edge)
        if slot is None:
            free = self._slot_free
            if free:
                slot = free.pop()
                self._slot_edge[slot] = edge
            else:
                slot = len(self._slot_edge)
                self._slot_edge.append(edge)
            self._edge_slot[edge] = slot
        return slot

    def _compact_handles(self) -> None:
        """Drop dead weakrefs from the handle registry (amortized)."""
        live = {key: r for key, r in self._handles.items() if r() is not None}
        self._handles = live
        self._handle_limit = max(1 << 16, 2 * len(live))

    def stats(self) -> dict:
        """Manager health counters: nodes, tables, gc activity."""
        return {
            "n_vars": self.n_vars,
            "nodes": self.node_count(),
            "allocated": len(self._level),
            "free_slots": len(self._free),
            # O(1) registry size (live + not-yet-compacted dead refs);
            # stats() runs per decomposition, so no weakref scan here —
            # gc() reports the exact live count when it compacts.
            "tracked_handles": len(self._handles),
            "gc_runs": self._gc_runs,
            "gc_reclaimed": self._gc_reclaimed,
            "tables": {
                "ite": self._ite_cache.stats(),
                "test": self._test_cache.stats(),
                "cofactor": self._cofactor_cache.stats(),
                "exists": self._exists_cache.stats(),
                "compose": self._compose_cache.stats(),
                "satcount": self._satcount_cache.stats(),
                **{
                    f"user:{name}": table.stats()
                    for name, table in sorted(self._user_tables.items())
                },
            },
        }

    # ------------------------------------------------------------------
    # Garbage collection
    # ------------------------------------------------------------------
    def gc(self) -> dict:
        """Mark-and-sweep unreachable nodes; returns collection stats.

        Roots are the edges of every live :class:`Function` handle
        (tracked by weak references).  Unreachable nodes are unlinked
        from the unique table and their slots recycled by later ``_mk``
        calls; node indices of reachable nodes are **not** remapped, so
        existing handles (and hashes derived from them) stay valid.
        Computed tables are cleared — they may reference dead edges.

        Not safe to call from *inside* a manager operation (an apply in
        flight holds intermediate edges no handle roots yet); the engine
        only collects between decompositions.
        """
        self._compact_handles()
        marked = bytearray(len(self._level))
        marked[0] = 1
        stack = []
        for weak in self._handles.values():
            handle = weak()
            if handle is not None:
                stack.append(handle.node >> 1)
        low_of, high_of = self._low, self._high
        while stack:
            index = stack.pop()
            if marked[index]:
                continue
            marked[index] = 1
            stack.append(low_of[index] >> 1)
            stack.append(high_of[index] >> 1)
        already_free = set(self._free)
        swept = [
            index
            for index in range(1, len(self._level))
            if not marked[index] and index not in already_free
        ]
        for key, index in list(self._unique.items()):
            if not marked[index]:
                del self._unique[key]
        terminal = TERMINAL_LEVEL
        edge_slot = self._edge_slot
        slot_free = self._slot_free
        for index in swept:
            # Park dead slots on the terminal so stray reads are inert.
            self._level[index] = terminal
            self._low[index] = 0
            self._high[index] = 0
            # Release handle slots of both swept edges: no live handle
            # holds them (a held edge keeps its node marked), so the
            # slot ids are free for reuse.
            base = index << 1
            for edge in (base, base | 1):
                slot = edge_slot.pop(edge, None)
                if slot is not None:
                    slot_free.append(slot)
        self._free.extend(swept)
        self.clear_caches()
        self._gc_runs += 1
        self._gc_reclaimed += len(swept)
        return {
            "marked": int(sum(marked)),
            "swept": len(swept),
            "nodes": self.node_count(),
        }

    # ------------------------------------------------------------------
    # Dynamic variable reordering (Rudell sifting)
    # ------------------------------------------------------------------
    def reorder(self, max_growth: float = 1.2) -> dict:
        """Sift every variable to its locally best level; returns stats.

        Classic Rudell sifting over in-place adjacent-level swaps: each
        variable (most populated levels first) is moved through the
        whole order — toward the closer boundary first — the live node
        count is tracked at every position, and the variable is parked
        at the best position seen.  ``max_growth`` aborts a sifting
        direction once the table exceeds that multiple of the best size
        recorded for the variable.

        The swaps rewrite affected nodes *in place*: a node that stays
        live keeps its index, so every edge held by a live
        :class:`Function` keeps both its value and its function — the
        closing audit asserts each live handle still matches its slot.
        Runs :meth:`gc` first (computed tables hold edges of arbitrary
        reachability and are dropped wholesale), and like ``gc`` it is
        only legal between operations, never inside one.
        """
        with _obs_span("bdd.reorder") as sp:
            stats = self._reorder_sift(max_growth)
            sp.annotate(
                before=stats["before"], after=stats["after"], swaps=stats["swaps"]
            )
        return stats

    def _reorder_sift(self, max_growth: float) -> dict:
        n = self.n_vars
        if n < 2:
            return {
                "before": self.node_count(),
                "after": self.node_count(),
                "swaps": 0,
                "order": list(self.var_order()),
            }
        gc_stats = self.gc()
        before = self.node_count()
        # Reference counts over live nodes: one per stored child edge
        # plus one per live handle edge.  Post-gc every unique-table
        # node is live, so this is exact.
        ref = [0] * len(self._level)
        low_of, high_of = self._low, self._high
        for node in self._unique.values():
            ref[low_of[node] >> 1] += 1
            ref[high_of[node] >> 1] += 1
        for weak in self._handles.values():
            handle = weak()
            if handle is not None:
                ref[handle.node >> 1] += 1
        by_level: dict[int, set[int]] = {level: set() for level in range(n)}
        for key, node in self._unique.items():
            by_level[key[0]].add(node)
        size = len(self._unique)
        swaps = 0
        order = sorted(
            range(n), key=lambda v: (-len(by_level[self._var_level[v]]), v)
        )
        for var in order:
            size, done = self._sift_var(var, size, ref, by_level, max_growth)
            swaps += done
        self._order_is_identity = self._var_level == list(range(n))
        # Audit the slot invariant: reorder must not move handle edges.
        slot_edge = self._slot_edge
        for weak in self._handles.values():
            handle = weak()
            if handle is not None and slot_edge[handle._slot] != handle.node:
                raise AssertionError("reorder moved a live handle edge")
        return {
            "before": before,
            "after": self.node_count(),
            "swaps": swaps,
            "gc": gc_stats,
            "order": list(self.var_order()),
        }

    def _sift_var(
        self,
        var: int,
        size: int,
        ref: list[int],
        by_level: dict[int, set[int]],
        max_growth: float,
    ) -> tuple[int, int]:
        """Sift one variable to its best level; returns ``(size, swaps)``."""
        n = self.n_vars
        var_level = self._var_level
        start = var_level[var]
        best_size = size
        best_level = start
        swaps = 0

        def swap_toward(target: int) -> None:
            nonlocal size, swaps
            position = var_level[var]
            if position < target:
                size += self._swap_adjacent(position, ref, by_level)
            else:
                size += self._swap_adjacent(position - 1, ref, by_level)
            swaps += 1

        def sweep(target: int) -> None:
            nonlocal best_size, best_level
            while var_level[var] != target:
                swap_toward(target)
                if size < best_size:
                    best_size = size
                    best_level = var_level[var]
                elif size > best_size * max_growth:
                    break

        if start >= n - 1 - start:
            sweep(n - 1)
            sweep(0)
        else:
            sweep(0)
            sweep(n - 1)
        while var_level[var] != best_level:
            swap_toward(best_level)
        return size, swaps

    def _swap_adjacent(
        self, level: int, ref: list[int], by_level: dict[int, set[int]]
    ) -> int:
        """Swap the variables at ``level`` and ``level + 1`` in place.

        Nodes at ``level`` that depend on ``level + 1`` are rewritten in
        their own slots (children swapped per the standard level-swap
        cofactor identity), so no edge held by any parent or handle ever
        changes; independent upper nodes and surviving lower nodes just
        trade levels.  ``ref``/``by_level`` are the sifting scratch
        structures and are kept exact.  Returns the change in live node
        count (created minus killed).
        """
        unique = self._unique
        level_of, low_of, high_of = self._level, self._low, self._high
        lower_level = level + 1
        upper = by_level[level]
        lower = by_level[lower_level]

        # Phase A: pull every key of both levels so the re-inserts below
        # can never collide with a stale entry.
        for node in upper:
            del unique[(level, low_of[node], high_of[node])]
        for node in lower:
            del unique[(lower_level, low_of[node], high_of[node])]

        # Phase B: upper nodes with no child at the lower level keep
        # their children and simply move down one level.  Re-inserted
        # first, so the dependent rewrites below reuse them.
        dependents: list[int] = []
        moved_down: set[int] = set()
        for node in upper:
            lo, hi = low_of[node], high_of[node]
            if (
                level_of[lo >> 1] == lower_level
                or level_of[hi >> 1] == lower_level
            ):
                dependents.append(node)
            else:
                level_of[node] = lower_level
                unique[(lower_level, lo, hi)] = node
                moved_down.add(node)
        dependents.sort()

        created = 0
        born: set[int] = set()
        dead: list[int] = []
        edge_slot = self._edge_slot
        slot_free = self._slot_free
        terminal = TERMINAL_LEVEL

        def mk_local(low: int, high: int) -> int:
            # _mk pinned to ``lower_level``: increfs children on node
            # creation and keeps the scratch ref array in step.
            nonlocal created
            if low == high:
                return low
            out = 0
            if high & 1:
                low ^= 1
                high ^= 1
                out = 1
            key = (lower_level, low, high)
            node = unique.get(key)
            if node is None:
                node = self._new_node(lower_level, low, high, key)
                if node >= len(ref):
                    ref.extend([0] * (node + 1 - len(ref)))
                else:
                    ref[node] = 0
                ref[low >> 1] += 1
                ref[high >> 1] += 1
                born.add(node)
                created += 1
            return (node << 1) | out

        def kill(node: int) -> None:
            # Cascade-unlink a refcount-zero node.  Freed indices are
            # parked locally and handed to ``_free`` only after phase D:
            # mid-swap reuse would corrupt the level checks above.
            stack = [node]
            while stack:
                dying = stack.pop()
                key = (level_of[dying], low_of[dying], high_of[dying])
                if unique.get(key) == dying:
                    del unique[key]
                group = by_level.get(level_of[dying])
                if group is not None:
                    group.discard(dying)
                for child in (low_of[dying], high_of[dying]):
                    child_index = child >> 1
                    if child_index:
                        ref[child_index] -= 1
                        if ref[child_index] == 0:
                            stack.append(child_index)
                level_of[dying] = terminal
                low_of[dying] = 0
                high_of[dying] = 0
                base = dying << 1
                for edge in (base, base | 1):
                    slot = edge_slot.pop(edge, None)
                    if slot is not None:
                        slot_free.append(slot)
                dead.append(dying)

        # Phase C: rewrite each dependent in its own slot.  With upper
        # variable u and lower variable v, the swapped node is
        # v ? (u ? f11 : f01) : (u ? f10 : f00) — cofactors read from
        # the *original* children, which stay intact until the last
        # referencing dependent has been rewritten.
        for node in dependents:
            lo, hi = low_of[node], high_of[node]
            lo_index, lo_bit = lo >> 1, lo & 1
            hi_index = hi >> 1  # stored high edges are regular
            if level_of[lo_index] == lower_level:
                f00 = low_of[lo_index] ^ lo_bit
                f01 = high_of[lo_index] ^ lo_bit
            else:
                f00 = f01 = lo
            if level_of[hi_index] == lower_level:
                f10 = low_of[hi_index]
                f11 = high_of[hi_index]
            else:
                f10 = f11 = hi
            new_low = mk_local(f00, f10)
            new_high = mk_local(f01, f11)  # regular: f11 is a stored high
            ref[new_low >> 1] += 1
            ref[new_high >> 1] += 1
            for old in (lo, hi):
                old_index = old >> 1
                if old_index:
                    ref[old_index] -= 1
                    if ref[old_index] == 0:
                        kill(old_index)
            low_of[node] = new_low
            high_of[node] = new_high
            unique[(level, new_low, new_high)] = node

        # Phase D: surviving original lower nodes move up one level
        # (kill() already dropped the dead ones from ``lower``).
        for node in lower:
            level_of[node] = level
            unique[(level, low_of[node], high_of[node])] = node

        by_level[level] = set(dependents) | lower
        by_level[lower_level] = moved_down | born
        self._free.extend(dead)
        var_level, level_var = self._var_level, self._level_var
        u, v = level_var[level], level_var[lower_level]
        level_var[level], level_var[lower_level] = v, u
        var_level[u], var_level[v] = lower_level, level
        return created - len(dead)

    # ------------------------------------------------------------------
    # Quantification / substitution
    # ------------------------------------------------------------------
    def _cofactor(self, u: int, level: int, value: int) -> int:
        """Iterative single-variable cofactor with a persistent table."""
        level_of, low_of, high_of = self._level, self._low, self._high
        cache = self._cofactor_cache
        branch_of = high_of if value else low_of
        # (0, edge) — evaluate, push the result edge onto ``values``;
        # (1, edge) — pop the two child results and rebuild the node.
        tasks: list[tuple[int, int]] = [(0, u)]
        values: list[int] = []
        while tasks:
            phase, edge = tasks.pop()
            index = edge >> 1
            complement = edge & 1
            if phase == 0:
                node_level = level_of[index]
                if node_level > level:
                    values.append(edge)
                    continue
                if node_level == level:
                    values.append(branch_of[index] ^ complement)
                    continue
                hit = cache.data.get((edge, level, value))
                if hit is not None:
                    cache.hits += 1
                    values.append(hit)
                    continue
                cache.misses += 1
                tasks.append((1, edge))
                tasks.append((0, high_of[index] ^ complement))
                tasks.append((0, low_of[index] ^ complement))
            else:
                high = values.pop()
                low = values.pop()
                result = self._mk(level_of[index], low, high)
                cache.put((edge, level, value), result)
                values.append(result)
        return values[-1]

    def _restrict(self, u: int, assignment: dict[int, int]) -> int:
        """Iterative simultaneous cofactor (per-call memo)."""
        if not assignment:
            return u
        memo: dict[int, int] = {}
        level_of, low_of, high_of = self._level, self._low, self._high
        # (0, edge) — expand; (1, edge) — combine children.
        tasks: list[tuple[int, int]] = [(0, u)]
        while tasks:
            phase, edge = tasks.pop()
            if edge <= 1 or edge in memo:
                continue
            index = edge >> 1
            complement = edge & 1
            level = level_of[index]
            if phase == 0:
                if level in assignment:
                    child = (
                        high_of[index] if assignment[level] else low_of[index]
                    ) ^ complement
                    # Result equals the chosen child's result: alias it.
                    tasks.append((2, edge))
                    tasks.append((0, child))
                else:
                    tasks.append((1, edge))
                    tasks.append((0, high_of[index] ^ complement))
                    tasks.append((0, low_of[index] ^ complement))
            elif phase == 1:
                low = low_of[index] ^ complement
                high = high_of[index] ^ complement
                memo[edge] = self._mk(
                    level,
                    low if low <= 1 else memo[low],
                    high if high <= 1 else memo[high],
                )
            else:
                child = (
                    high_of[index] if assignment[level] else low_of[index]
                ) ^ complement
                memo[edge] = child if child <= 1 else memo[child]
        return u if u <= 1 else memo[u]

    def _exists(self, u: int, mask: int) -> int:
        """Iterative existential quantification with a persistent table.

        ``mask`` has bit ``level`` set for each quantified level.  It
        keys the computed table as ``(edge, mask)``, a tuple of ints,
        which the cyclic collector stops tracking at its first pass.  The
        walk tests membership in a set built once per call, because
        shifting a mask a thousand levels wide costs time in its width.

        Two exact prunings keep the walk off subgraphs whose result is
        already known.  Let ``floor`` be the top of the longest run of
        quantified levels at the bottom of the order: a non-FALSE edge
        whose node sits at or below ``floor`` depends on quantified
        variables only, so it quantifies to TRUE without a visit.  At a
        quantified level the low child is finished first, and if it
        quantifies to TRUE so does the node (``TRUE ∨ x``): its high
        child is never visited.  Results are canonical edges, so the
        computed table keeps its ``(edge, mask)`` keys.
        """
        if u <= 1:
            return u
        level_of, low_of, high_of = self._level, self._low, self._high
        levels = frozenset(bit_indices(mask))
        floor = self.n_vars
        while floor - 1 in levels:
            floor -= 1
        if level_of[u >> 1] >= floor:
            return 1
        cache = self._exists_cache
        memo: dict[int, int] = {}
        # (0, edge) — look up or expand; (2, edge) — the low child of a
        # quantified node is done: stop at TRUE or expand the high one;
        # (1, edge) — both children are done: combine.
        tasks: list[tuple[int, int]] = [(0, u)]
        while tasks:
            phase, edge = tasks.pop()
            if edge <= 1:
                continue
            index = edge >> 1
            complement = edge & 1
            if phase == 0:
                if edge in memo:
                    continue
                level = level_of[index]
                if level >= floor:
                    memo[edge] = 1
                    continue
                hit = cache.data.get((edge, mask))
                if hit is not None:
                    cache.hits += 1
                    memo[edge] = hit
                    continue
                cache.misses += 1
                if level in levels:
                    tasks.append((2, edge))
                else:
                    tasks.append((1, edge))
                    tasks.append((0, high_of[index] ^ complement))
                tasks.append((0, low_of[index] ^ complement))
            elif phase == 2:
                low = low_of[index] ^ complement
                if (low if low <= 1 else memo[low]) == 1:
                    cache.put((edge, mask), 1)
                    memo[edge] = 1
                else:
                    tasks.append((1, edge))
                    tasks.append((0, high_of[index] ^ complement))
            else:
                low = low_of[index] ^ complement
                high = high_of[index] ^ complement
                low_r = low if low <= 1 else memo[low]
                high_r = high if high <= 1 else memo[high]
                level = level_of[index]
                if level in levels:
                    result = self._or(low_r, high_r)
                else:
                    result = self._mk(level, low_r, high_r)
                cache.put((edge, mask), result)
                memo[edge] = result
        return memo[u]

    def _compose(self, u: int, level: int, v: int) -> int:
        """Iterative substitution with a persistent table."""
        level_of, low_of, high_of = self._level, self._low, self._high
        if level_of[u >> 1] > level:
            return u
        cache = self._compose_cache
        memo: dict[int, int] = {}
        tasks: list[tuple[int, int]] = [(0, u)]
        while tasks:
            phase, edge = tasks.pop()
            index = edge >> 1
            if level_of[index] > level:
                continue
            if phase == 0:
                if edge in memo:
                    continue
                hit = cache.data.get((edge, level, v))
                if hit is not None:
                    cache.hits += 1
                    memo[edge] = hit
                    continue
                cache.misses += 1
                complement = edge & 1
                tasks.append((1, edge))
                if level_of[index] != level:
                    tasks.append((0, high_of[index] ^ complement))
                    tasks.append((0, low_of[index] ^ complement))
            else:
                complement = edge & 1
                node_level = level_of[index]
                if node_level == level:
                    result = self._ite(
                        v, high_of[index] ^ complement, low_of[index] ^ complement
                    )
                else:
                    low = low_of[index] ^ complement
                    high = high_of[index] ^ complement
                    low_r = low if level_of[low >> 1] > level else memo[low]
                    high_r = high if level_of[high >> 1] > level else memo[high]
                    result = self._ite(self._mk(node_level, 0, 1), high_r, low_r)
                cache.put((edge, level, v), result)
                memo[edge] = result
        return memo[u]

    # ------------------------------------------------------------------
    # Counting and enumeration
    # ------------------------------------------------------------------
    def _satcount(self, u: int) -> int:
        """Iterative on-set count over the declared variable space."""
        n = self.n_vars
        level_of, low_of, high_of = self._level, self._low, self._high
        cache = self._satcount_cache
        memo: dict[int, int] = {0: 0, 1: 1}

        def effective_level(edge: int) -> int:
            level = level_of[edge >> 1]
            return n if level == TERMINAL_LEVEL else level

        tasks: list[tuple[int, int]] = [(0, u)]
        while tasks:
            phase, edge = tasks.pop()
            if edge <= 1:
                continue
            index = edge >> 1
            complement = edge & 1
            low = low_of[index] ^ complement
            high = high_of[index] ^ complement
            if phase == 0:
                if edge in memo:
                    continue
                hit = cache.data.get(edge)
                if hit is not None:
                    cache.hits += 1
                    memo[edge] = hit
                    continue
                cache.misses += 1
                tasks.append((1, edge))
                tasks.append((0, high))
                tasks.append((0, low))
            else:
                level = level_of[index]
                count = memo[low] << (effective_level(low) - level - 1)
                count += memo[high] << (effective_level(high) - level - 1)
                cache.put(edge, count)
                memo[edge] = count
        return memo[u] << effective_level(u)

    def _iter_minterms(self, u: int) -> Iterator[int]:
        n = self.n_vars
        level_of, low_of, high_of = self._level, self._low, self._high
        if self._order_is_identity:
            # Depth-first with an explicit stack, low branch first so
            # indices come out in increasing order.
            stack: list[tuple[int, int, int]] = [(u, 0, 0)]
            while stack:
                edge, level, prefix = stack.pop()
                if edge == 0:
                    continue
                if level == n:
                    yield prefix
                    continue
                index = edge >> 1
                if level_of[index] > level:
                    # Free variable: expand both branches.
                    stack.append((edge, level + 1, (prefix << 1) | 1))
                    stack.append((edge, level + 1, prefix << 1))
                else:
                    complement = edge & 1
                    stack.append(
                        (high_of[index] ^ complement, level + 1, (prefix << 1) | 1)
                    )
                    stack.append((low_of[index] ^ complement, level + 1, prefix << 1))
            return
        # Reordered: the bit weight of the variable at level ``l`` is its
        # declaration position, so indices no longer arrive sorted from a
        # low-first walk — collect and sort (same indices either way).
        level_var = self._level_var
        weights = [1 << (n - 1 - level_var[level]) for level in range(n)]
        out: list[int] = []
        stack = [(u, 0, 0)]
        while stack:
            edge, level, accum = stack.pop()
            if edge == 0:
                continue
            if level == n:
                out.append(accum)
                continue
            index = edge >> 1
            if level_of[index] > level:
                stack.append((edge, level + 1, accum | weights[level]))
                stack.append((edge, level + 1, accum))
            else:
                complement = edge & 1
                stack.append(
                    (high_of[index] ^ complement, level + 1, accum | weights[level])
                )
                stack.append((low_of[index] ^ complement, level + 1, accum))
        out.sort()
        yield from out

    def _support(self, u: int) -> set[int]:
        seen: set[int] = set()
        levels: set[int] = set()
        stack = [u >> 1]
        level_of, low_of, high_of = self._level, self._low, self._high
        while stack:
            index = stack.pop()
            if index == 0 or index in seen:
                continue
            seen.add(index)
            levels.add(level_of[index])
            stack.append(low_of[index] >> 1)
            stack.append(high_of[index] >> 1)
        return levels

    def _eval(self, u: int, minterm_index: int) -> bool:
        n = self.n_vars
        level_of, low_of, high_of = self._level, self._low, self._high
        level_var = self._level_var
        edge = u
        while edge > 1:
            index = edge >> 1
            complement = edge & 1
            var = level_var[level_of[index]]
            bit = (minterm_index >> (n - 1 - var)) & 1
            edge = (high_of[index] if bit else low_of[index]) ^ complement
        return edge == 1


class Function:
    """Handle to a BDD edge, with Boolean operator overloading.

    Handles compare equal iff they denote the same function (canonicity
    of the complemented-edge ROBDD guarantees this is an integer
    comparison).  The set view of a function — its on-set of minterms —
    supports ``&``, ``|``, ``^``, ``~``, and ``-`` (set difference),
    plus ``<=`` for implication (subset) tests.

    Every handle is registered (weakly) with its manager, forming the
    root set of :meth:`BDD.gc`.
    """

    __slots__ = ("mgr", "node", "_slot", "__weakref__")

    def __init__(self, mgr: BDD, node: int) -> None:
        self.mgr = mgr
        self.node = node
        # Slot indirection: ``node`` is the hot-path edge, ``_slot`` the
        # stable identity checked against the slot table at reorder
        # boundaries (reorder keeps edges in place, and asserts so).
        self._slot = mgr._slot_for(node)
        handles = mgr._handles
        handles[id(self)] = _weakref(self)
        if len(handles) > mgr._handle_limit:
            mgr._compact_handles()

    # -- identity ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Function)
            and other.mgr is self.mgr
            and other.node == self.node
        )

    def __hash__(self) -> int:
        # Slot, not edge: slots are interned per edge, so equal handles
        # hash equal, and the id survives reorders by construction.
        return hash((id(self.mgr), self._slot))

    def __repr__(self) -> str:
        return f"<Function node={self.node} nodes={self.mgr.size(self)}>"

    # -- constants ----------------------------------------------------------
    @property
    def is_false(self) -> bool:
        """True iff this is the constant-0 function."""
        return self.node == 0

    @property
    def is_true(self) -> bool:
        """True iff this is the constant-1 function."""
        return self.node == 1

    # -- connectives --------------------------------------------------------
    def _wrap(self, node: int) -> "Function":
        return Function(self.mgr, node)

    def _node_of(self, other: "Function | int | bool") -> int:
        if isinstance(other, Function):
            if other.mgr is not self.mgr:
                raise ValueError("mixing functions from different managers")
            return other.node
        return 1 if other else 0

    def __invert__(self) -> "Function":
        # Complemented edges: negation is one bit flip.
        return Function(self.mgr, self.node ^ 1)

    def __and__(self, other: "Function | int | bool") -> "Function":
        return self._wrap(self.mgr._and(self.node, self._node_of(other)))

    __rand__ = __and__

    def __or__(self, other: "Function | int | bool") -> "Function":
        return self._wrap(self.mgr._or(self.node, self._node_of(other)))

    __ror__ = __or__

    def __xor__(self, other: "Function | int | bool") -> "Function":
        v = self._node_of(other)
        return self._wrap(self.mgr._ite(self.node, v ^ 1, v))

    __rxor__ = __xor__

    def __sub__(self, other: "Function | int | bool") -> "Function":
        """Set difference: ``f - g`` is ``f & ~g``."""
        return self._wrap(self.mgr._and(self.node, self._node_of(other) ^ 1))

    def implies(self, other: "Function") -> "Function":
        """The function ``~self | other``."""
        return ~self | other

    def equiv(self, other: "Function") -> "Function":
        """The function ``self XNOR other``."""
        return ~(self ^ other)

    def ite(self, when_true: "Function", when_false: "Function") -> "Function":
        """If-then-else with ``self`` as the condition."""
        return self._wrap(
            self.mgr._ite(self.node, self._node_of(when_true), self._node_of(when_false))
        )

    # -- ordering as sets ----------------------------------------------------
    def __le__(self, other: "Function") -> bool:
        """Subset test: True iff ``self`` implies ``other`` everywhere."""
        return self.mgr._and_is_false(self.node, self._node_of(other) ^ 1)

    def __ge__(self, other: "Function") -> bool:
        return self.mgr._and_is_false(self._node_of(other), self.node ^ 1)

    def __lt__(self, other: "Function") -> bool:
        return self != other and self <= other

    def __gt__(self, other: "Function") -> bool:
        return self != other and self >= other

    def disjoint(self, other: "Function") -> bool:
        """True iff the two on-sets do not intersect."""
        return self.mgr._and_is_false(self.node, self._node_of(other))

    # -- structure -------------------------------------------------------------
    def support(self) -> tuple[str, ...]:
        """Names of the variables the function actually depends on.

        Always in declaration order, whatever the current BDD order.
        """
        mgr = self.mgr
        names = mgr.var_names
        level_var = mgr._level_var
        return tuple(
            names[var]
            for var in sorted(
                level_var[level] for level in mgr._support(self.node)
            )
        )

    def size(self) -> int:
        """Number of BDD nodes of this function."""
        return self.mgr.size(self)

    # -- evaluation / counting ---------------------------------------------------
    def __call__(self, minterm_index: int) -> bool:
        """Evaluate on a minterm index (variable 0 = most significant bit)."""
        return self.mgr._eval(self.node, minterm_index)

    def evaluate(self, assignment: dict[str, int | bool]) -> bool:
        """Evaluate on a full variable assignment given by name."""
        index = 0
        for name in self.mgr.var_names:
            index = (index << 1) | (1 if assignment[name] else 0)
        return self(index)

    def satcount(self) -> int:
        """Number of on-set minterms over all declared variables."""
        return self.mgr._satcount(self.node)

    def minterms(self) -> Iterator[int]:
        """Iterate on-set minterm indices in increasing order."""
        # Generator (not a bare return): the frame keeps this handle —
        # and therefore its nodes — alive across gc() while the caller
        # still holds the iterator, even if they dropped the Function.
        yield from self.mgr._iter_minterms(self.node)

    # -- cofactors / quantifiers ----------------------------------------------
    def cofactor(self, name: str, value: int | bool) -> "Function":
        """Shannon cofactor with respect to one variable."""
        return self._wrap(
            self.mgr._cofactor(self.node, self.mgr.level_of(name), 1 if value else 0)
        )

    def restrict(self, assignment: dict[str, int | bool]) -> "Function":
        """Simultaneous cofactor for several variables."""
        levels = {
            self.mgr.level_of(name): (1 if value else 0)
            for name, value in assignment.items()
        }
        return self._wrap(self.mgr._restrict(self.node, levels))

    def exists(self, names: Iterable[str]) -> "Function":
        """Existential quantification over ``names``."""
        mask = 0
        for name in names:
            mask |= 1 << self.mgr.level_of(name)
        return self._wrap(self.mgr._exists(self.node, mask))

    def forall(self, names: Iterable[str]) -> "Function":
        """Universal quantification over ``names``."""
        return ~((~self).exists(names))

    def compose(self, name: str, replacement: "Function") -> "Function":
        """Substitute ``replacement`` for variable ``name``."""
        return self._wrap(
            self.mgr._compose(self.node, self.mgr.level_of(name), replacement.node)
        )
