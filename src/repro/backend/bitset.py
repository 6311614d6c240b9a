"""Dense truth-table backend behind the :class:`~repro.bdd.manager.Function` API.

For functions over ``n <= ~20`` variables a packed-integer truth table —
one bit per minterm, bitwise operators implemented in C — beats BDD
applies by an order of magnitude: every connective, containment test,
satcount, and cofactor is a handful of big-int operations instead of a
memoized graph traversal.  :class:`BitsetBDD` and :class:`BitsetFunction`
expose the same interface as :class:`~repro.bdd.manager.BDD` and
:class:`~repro.bdd.manager.Function` (both register as virtual
subclasses of the protocol ABCs in :mod:`repro.backend.protocol`), so
the whole decomposition stack — quotients, operators, flexibility,
approximators, minimizers — runs unchanged on either representation.

Design notes:

* **Raw values are plain ints.**  A function's "edge" is its truth-table
  bitmask over the manager's declared variable space (bit ``i`` = value
  on minterm ``i``; variable 0 is the most significant bit of the
  minterm index, the library-wide convention).  The constants are ``0``
  and the all-ones mask.
* **Identity matches the BDD backend.**  Equal functions have equal
  bitmasks, and serialization (see :mod:`repro.bdd.serialize`) dumps a
  dense function through a declaration-order BDD, so dumps,
  ``canonical_hash`` fingerprints, and ResultCache keys are
  byte-identical across backends.
* **Late declaration is supported.**  :meth:`BitsetBDD.add_var` widens
  the space; live :class:`BitsetFunction` handles remember the width
  they were built in and re-align lazily (a new variable is added below
  all existing ones, so alignment duplicates each bit).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.bdd.manager import ComputedTable, DEFAULT_CACHE_SIZE
from repro.utils.bitops import mask_for

#: Hard feasibility cap: a dense table over more variables than this
#: would allocate >= 2^24 bits per function.
MAX_BITSET_VARS = 24


def _projection_bits(level: int, n_vars: int) -> int:
    """Truth-table mask of the projection of variable ``level``.

    Variable 0 is the most significant bit of the minterm index, so the
    mask is a run of ``2^(n-1-level)`` zeros then as many ones, repeated
    across the ``2^n``-bit table (built by doubling, not per bit).
    """
    block = 1 << (n_vars - 1 - level)
    pattern = ((1 << block) - 1) << block
    width = block << 1
    total = 1 << n_vars
    while width < total:
        pattern |= pattern << width
        width <<= 1
    return pattern


def _double_bits(bits: int, size: int) -> int:
    """Duplicate each of ``size`` bits in place (bit ``b`` -> bits 2b, 2b+1).

    This is the table expansion for one newly declared (deepest)
    variable; divide-and-conquer keeps it O(size log size) big-int work.
    """
    if bits == 0:
        return 0
    if size == 1:
        return 3
    half = size >> 1
    low = _double_bits(bits & ((1 << half) - 1), half)
    high = _double_bits(bits >> half, half)
    return (high << size) | low


class BitsetBDD:
    """Manager for dense truth-table functions (the "bitset" backend).

    Mirrors the :class:`~repro.bdd.manager.BDD` surface: variable
    declaration and lookup, constants, cubes and minterms, product /
    pseudoproduct construction with shared memo tables,
    ``computed_table`` for consumer-owned memos, ``stats``/``gc``
    bookkeeping hooks.  There is no unique table — canonical form *is*
    the bitmask.
    """

    #: Identifies the backend in dispatch helpers and ``stats()``.
    backend = "bitset"

    def __init__(
        self, var_names: Iterable[str] = (), cache_size: int = DEFAULT_CACHE_SIZE
    ) -> None:
        self._var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        #: Projection bitmask per level (over the current full space).
        self._var_bits: list[int] = []
        #: Complemented projection masks (precomputed: ``~v`` on a wide
        #: table allocates a fresh big int per use otherwise).
        self._nvar_bits: list[int] = []
        self._mask = 1  # mask_for(0): the 0-variable space has one minterm
        self._n = 0  # declared variable count (attribute: hot path)
        self._cache_size = cache_size
        self._user_tables: dict[str, ComputedTable] = {}
        #: The shared product memo of raw tables (also reachable as
        #: ``computed_table("product")`` for stats and cache clearing).
        self._product_table = self.computed_table("product")
        for name in var_names:
            self.add_var(name)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    @property
    def var_names(self) -> tuple[str, ...]:
        """Declared variable names, in order (index 0 on top)."""
        return tuple(self._var_names)

    @property
    def n_vars(self) -> int:
        """Number of declared variables."""
        return self._n

    def add_var(self, name: str) -> "BitsetFunction":
        """Declare a new variable below all existing ones and return it.

        Widening the space invalidates memoized tables (their cached
        bitmasks are in the old width); live function handles re-align
        lazily through :meth:`BitsetFunction._aligned_bits`.  The
        manager keeps masks, never handles: a handle points back at its
        manager, so one held here would make a reference cycle that only
        the cyclic collector frees.
        """
        if name in self._var_index:
            raise ValueError(f"variable {name!r} already declared")
        if len(self._var_names) >= MAX_BITSET_VARS:
            raise ValueError(
                f"bitset backend is capped at {MAX_BITSET_VARS} variables;"
                " use the BDD backend for wider spaces"
            )
        index = len(self._var_names)
        self._var_names.append(name)
        self._var_index[name] = index
        n = index + 1
        self._n = n
        mask = mask_for(n)
        self._mask = mask
        # Closed-form rebuild of every projection mask in the new width:
        # O(n log 2^n) shift work, no per-bit recursion.
        self._var_bits = [_projection_bits(level, n) for level in range(n)]
        self._nvar_bits = [bits ^ mask for bits in self._var_bits]
        self.clear_caches()
        return self._make(self._var_bits[index])

    def var(self, name: str) -> "BitsetFunction":
        """Return the projection function of a declared variable."""
        return self._make(self._var_bits[self._var_index[name]])

    def var_at(self, index: int) -> "BitsetFunction":
        """Return the projection function of the variable at ``index``."""
        return self._make(self._var_bits[index])

    def level_of(self, name: str) -> int:
        """Return the order position of variable ``name``."""
        return self._var_index[name]

    # ------------------------------------------------------------------
    # Constants, cubes, minterms
    # ------------------------------------------------------------------
    @property
    def false(self) -> "BitsetFunction":
        """The constant-0 function."""
        return self._make(0)

    @property
    def true(self) -> "BitsetFunction":
        """The constant-1 function."""
        return self._make(self._mask)

    def cube(self, assignment: dict[str, int | bool]) -> "BitsetFunction":
        """Build the conjunction of literals described by ``assignment``."""
        pos = neg = 0
        for name, value in assignment.items():
            bit = 1 << self._var_index[name]
            if value:
                pos |= bit
            else:
                neg |= bit
        return self.product(pos, neg)

    def minterm(self, minterm_index: int) -> "BitsetFunction":
        """Build the single-minterm function for ``minterm_index``."""
        return BitsetFunction(self, 1 << minterm_index)

    def _make(self, bits: int) -> "BitsetFunction":
        """Internal handle constructor for already-masked tables."""
        fn = BitsetFunction.__new__(BitsetFunction)
        fn.mgr = self
        fn.width = self._n
        fn.bits = bits
        return fn

    def product(self, pos: int, neg: int) -> "BitsetFunction":
        """Product function from literal masks (bit ``i`` = variable ``i``).

        Memoized in the shared ``"product"`` table, mirroring the BDD
        manager's cube construction path.  The table stores the raw
        table, not a handle, so it holds no reference back to the
        manager; the hit path is one dict lookup and one handle.
        """
        table = self._product_table
        key = (pos, neg)
        bits = table.data.get(key)
        if bits is None:
            table.misses += 1
            bits = self._product_bits(pos, neg)
            table.put(key, bits)
        else:
            table.hits += 1
        return self._make(bits)

    def _product_bits(self, pos: int, neg: int) -> int:
        """Truth table of a product, built bottom-up by doubling.

        Processing levels deepest-first, a bound level places the
        current pattern in one half of the doubled table and a free
        level replicates it — total work is one table's worth of shifts
        (geometric series), versus one full-width AND *per literal* in
        the naive form.
        """
        bound = pos | neg
        if not bound:
            return self._mask
        pattern = 1
        width = 1
        for level in range(self._n - 1, -1, -1):
            bit = 1 << level
            if bound & bit:
                if pos & bit:
                    pattern <<= width
            else:
                pattern |= pattern << width
            width <<= 1
        return pattern

    def spp_product(self, pos: int, neg: int, xors) -> "BitsetFunction":
        """Pseudoproduct function: literal masks plus XOR factors.

        ``xors`` is an iterable of ``(i, j, phase)``-shaped factors (the
        :class:`~repro.spp.pseudocube.XorFactor` named tuple matches).
        The same memo key layout as the BDD manager's product table.
        """
        if not xors:
            return self.product(pos, neg)
        table = self._product_table
        key = (pos, neg, xors) if isinstance(xors, frozenset) else None
        bits = table.data.get(key) if key is not None else None
        if bits is None:
            table.misses += 1
            bits = self._product_bits(pos, neg)
            for i, j, phase in sorted(tuple(x) for x in xors):
                factor = self._var_bits[i] ^ self._var_bits[j]
                if not phase:
                    factor ^= self._mask
                bits &= factor
            if key is not None:
                table.put(key, bits)
        else:
            table.hits += 1
        return self._make(bits)

    # ------------------------------------------------------------------
    # Bit-level helpers (shared by BitsetFunction and the serializer)
    # ------------------------------------------------------------------
    def _cofactor_bits(self, bits: int, level: int, value: int) -> int:
        """Shannon cofactor of a full-width table (keeps the arity)."""
        block = 1 << (self._n - 1 - level)
        if value:
            selected = bits & self._var_bits[level]
            return selected | (selected >> block)
        selected = bits & self._nvar_bits[level]
        return selected | (selected << block)

    def _depends_on(self, bits: int, level: int) -> bool:
        """True iff the table depends on the variable at ``level``."""
        block = 1 << (self._n - 1 - level)
        return bool((bits ^ (bits >> block)) & self._nvar_bits[level])

    def _top_level(self, bits: int) -> int:
        """Smallest level the table depends on (``n_vars`` for constants)."""
        n = self._n
        nvar_bits = self._nvar_bits
        for level in range(n):
            block = 1 << (n - 1 - level)
            if (bits ^ (bits >> block)) & nvar_bits[level]:
                return level
        return n

    def _support_levels(self, bits: int) -> list[int]:
        return [
            level for level in range(self._n) if self._depends_on(bits, level)
        ]

    # ------------------------------------------------------------------
    # Manager bookkeeping (BDD-surface parity)
    # ------------------------------------------------------------------
    def node_count(self) -> int:
        """Bitset functions have no node store; reported as 0."""
        return 0

    def size(self, function: "BitsetFunction") -> int:
        """Distinct subfunctions of ``function`` (= ROBDD edge count)."""
        return function.size()

    def computed_table(self, name: str, capacity: int | None = None) -> ComputedTable:
        """A named memo table sharing the manager's lifecycle."""
        table = self._user_tables.get(name)
        if table is None:
            table = ComputedTable(self._cache_size if capacity is None else capacity)
            self._user_tables[name] = table
        return table

    def clear_caches(self) -> None:
        """Drop all memo tables (cached bitmasks may be stale in width)."""
        for table in self._user_tables.values():
            table.clear()

    def gc(self) -> dict:
        """No node store to collect; clears memo tables for parity."""
        self.clear_caches()
        return {"marked": 0, "swept": 0, "nodes": 0}

    def reorder(self, max_growth: float = 1.2) -> dict:
        """Dense tables address variables positionally: a no-op, kept
        for surface parity with :meth:`repro.bdd.manager.BDD.reorder`."""
        return {
            "before": 0,
            "after": 0,
            "swaps": 0,
            "order": list(self.var_names),
        }

    def stats(self) -> dict:
        """Manager health counters (same shape as the BDD manager's)."""
        return {
            "backend": self.backend,
            "n_vars": self.n_vars,
            "nodes": 0,
            "allocated": 0,
            "free_slots": 0,
            "tracked_handles": 0,
            "gc_runs": 0,
            "gc_reclaimed": 0,
            "tables": {
                f"user:{name}": table.stats()
                for name, table in sorted(self._user_tables.items())
            },
        }

    # ------------------------------------------------------------------
    # Serializer hooks (see repro.bdd.serialize)
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        """Combine child tables under the variable at ``level``.

        The raw-value counterpart of the BDD manager's unique-table
        constructor: ``low``/``high`` are full-width tables and the
        result is ``(~v & low) | (v & high)``.  Used by the generic
        serializer load loop.
        """
        return (self._nvar_bits[level] & low) | (self._var_bits[level] & high)

    def _wrap(self, raw: int) -> "BitsetFunction":
        """Wrap a raw table value as a function handle."""
        return BitsetFunction(self, raw)

    def _constant_raw(self) -> tuple[int, int]:
        """Raw values of the constants (serializer ref seeds)."""
        return 0, self._mask


class BitsetFunction:
    """Handle to a dense truth table, with Boolean operator overloading.

    Drop-in for :class:`~repro.bdd.manager.Function`: identical operator
    surface, set-ordering comparisons, evaluation, counting, cofactor /
    quantifier / composition methods.  Handles compare equal iff they
    denote the same function in the same manager.
    """

    __slots__ = ("mgr", "bits", "width")

    def __init__(self, mgr: BitsetBDD, bits: int) -> None:
        self.mgr = mgr
        self.width = mgr._n
        self.bits = bits & mgr._mask

    # -- width alignment ---------------------------------------------------
    def _aligned_bits(self) -> int:
        """Table bits in the manager's *current* width.

        A variable declared after this handle was built sits below all
        existing ones, so alignment duplicates each bit once per new
        variable.  The handle is updated in place (amortized O(1)).
        """
        if self.width == self.mgr._n:
            return self.bits
        delta = self.mgr._n - self.width
        bits = self.bits
        size = 1 << self.width
        for _ in range(delta):
            bits = _double_bits(bits, size)
            size <<= 1
        self.bits = bits
        self.width = self.mgr._n
        return bits

    def _raw_of(self, other: "BitsetFunction | int | bool") -> int:
        if isinstance(other, BitsetFunction):
            if other.mgr is not self.mgr:
                raise ValueError("mixing functions from different managers")
            return other._aligned_bits()
        return self.mgr._mask if other else 0

    def _wrap(self, bits: int) -> "BitsetFunction":
        # Internal constructor: callers guarantee ``bits`` is already
        # masked to the current width, so skip the (wide) re-mask the
        # public __init__ performs.
        fn = BitsetFunction.__new__(BitsetFunction)
        fn.mgr = self.mgr
        fn.width = self.mgr._n
        fn.bits = bits
        return fn

    # -- identity ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitsetFunction)
            and other.mgr is self.mgr
            and other._aligned_bits() == self._aligned_bits()
        )

    def __hash__(self) -> int:
        return hash((id(self.mgr), self._aligned_bits()))

    def __repr__(self) -> str:
        return (
            f"<BitsetFunction n={self.mgr.n_vars}"
            f" count={self._aligned_bits().bit_count()}>"
        )

    # -- constants ----------------------------------------------------------
    @property
    def is_false(self) -> bool:
        """True iff this is the constant-0 function."""
        return self._aligned_bits() == 0

    @property
    def is_true(self) -> bool:
        """True iff this is the constant-1 function."""
        return self._aligned_bits() == self.mgr._mask

    # -- connectives --------------------------------------------------------
    def __invert__(self) -> "BitsetFunction":
        return self._wrap(self._aligned_bits() ^ self.mgr._mask)

    # The binary connectives fast-path the overwhelmingly common case —
    # two same-width handles of one manager — down to a single big-int
    # operation; the general path handles bool/int operands and stale
    # widths after add_var.

    def __and__(self, other: "BitsetFunction | int | bool") -> "BitsetFunction":
        mgr = self.mgr
        if (
            type(other) is BitsetFunction
            and other.mgr is mgr
            and self.width == mgr._n
            and other.width == mgr._n
        ):
            return mgr._make(self.bits & other.bits)
        return self._wrap(self._aligned_bits() & self._raw_of(other))

    __rand__ = __and__

    def __or__(self, other: "BitsetFunction | int | bool") -> "BitsetFunction":
        mgr = self.mgr
        if (
            type(other) is BitsetFunction
            and other.mgr is mgr
            and self.width == mgr._n
            and other.width == mgr._n
        ):
            return mgr._make(self.bits | other.bits)
        return self._wrap(self._aligned_bits() | self._raw_of(other))

    __ror__ = __or__

    def __xor__(self, other: "BitsetFunction | int | bool") -> "BitsetFunction":
        mgr = self.mgr
        if (
            type(other) is BitsetFunction
            and other.mgr is mgr
            and self.width == mgr._n
            and other.width == mgr._n
        ):
            return mgr._make(self.bits ^ other.bits)
        return self._wrap(self._aligned_bits() ^ self._raw_of(other))

    __rxor__ = __xor__

    def __sub__(self, other: "BitsetFunction | int | bool") -> "BitsetFunction":
        """Set difference: ``f - g`` is ``f & ~g``."""
        mgr = self.mgr
        if (
            type(other) is BitsetFunction
            and other.mgr is mgr
            and self.width == mgr._n
            and other.width == mgr._n
        ):
            return mgr._make(self.bits & (other.bits ^ mgr._mask))
        return self._wrap(self._aligned_bits() & ~self._raw_of(other))

    def implies(self, other: "BitsetFunction") -> "BitsetFunction":
        """The function ``~self | other``."""
        return ~self | other

    def equiv(self, other: "BitsetFunction") -> "BitsetFunction":
        """The function ``self XNOR other``."""
        return ~(self ^ other)

    def ite(
        self, when_true: "BitsetFunction", when_false: "BitsetFunction"
    ) -> "BitsetFunction":
        """If-then-else with ``self`` as the condition."""
        bits = self._aligned_bits()
        return self._wrap(
            (bits & self._raw_of(when_true))
            | (~bits & self.mgr._mask & self._raw_of(when_false))
        )

    # -- ordering as sets ----------------------------------------------------
    def __le__(self, other: "BitsetFunction") -> bool:
        """Subset test: True iff ``self`` implies ``other`` everywhere."""
        mgr = self.mgr
        if (
            type(other) is BitsetFunction
            and other.mgr is mgr
            and self.width == mgr._n
            and other.width == mgr._n
        ):
            return self.bits & ~other.bits == 0
        return self._aligned_bits() & ~self._raw_of(other) == 0

    def __ge__(self, other: "BitsetFunction") -> bool:
        return self._raw_of(other) & ~self._aligned_bits() == 0

    def __lt__(self, other: "BitsetFunction") -> bool:
        return self != other and self <= other

    def __gt__(self, other: "BitsetFunction") -> bool:
        return self != other and self >= other

    def disjoint(self, other: "BitsetFunction") -> bool:
        """True iff the two on-sets do not intersect."""
        mgr = self.mgr
        if (
            type(other) is BitsetFunction
            and other.mgr is mgr
            and self.width == mgr._n
            and other.width == mgr._n
        ):
            return self.bits & other.bits == 0
        return self._aligned_bits() & self._raw_of(other) == 0

    # -- structure -------------------------------------------------------------
    def support(self) -> tuple[str, ...]:
        """Names of the variables the function actually depends on."""
        names = self.mgr.var_names
        return tuple(
            names[level]
            for level in self.mgr._support_levels(self._aligned_bits())
        )

    def size(self) -> int:
        """Number of distinct subfunctions (= node count of the ROBDD).

        Matches :meth:`repro.bdd.manager.Function.size` — constants are
        counted when reachable, so a projection variable has size 3.
        """
        mgr = self.mgr
        seen: set[int] = set()
        stack = [self._aligned_bits()]
        while stack:
            bits = stack.pop()
            if bits in seen:
                continue
            seen.add(bits)
            if bits == 0 or bits == mgr._mask:
                continue
            level = mgr._top_level(bits)
            stack.append(mgr._cofactor_bits(bits, level, 0))
            stack.append(mgr._cofactor_bits(bits, level, 1))
        return len(seen)

    # -- evaluation / counting ---------------------------------------------------
    def __call__(self, minterm_index: int) -> bool:
        """Evaluate on a minterm index (variable 0 = most significant bit)."""
        return bool((self._aligned_bits() >> minterm_index) & 1)

    def evaluate(self, assignment: dict[str, int | bool]) -> bool:
        """Evaluate on a full variable assignment given by name."""
        index = 0
        for name in self.mgr.var_names:
            index = (index << 1) | (1 if assignment[name] else 0)
        return self(index)

    def satcount(self) -> int:
        """Number of on-set minterms over all declared variables."""
        return self._aligned_bits().bit_count()

    def minterms(self) -> Iterator[int]:
        """Iterate on-set minterm indices in increasing order."""
        bits = self._aligned_bits()
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    # -- cofactors / quantifiers ----------------------------------------------
    def cofactor(self, name: str, value: int | bool) -> "BitsetFunction":
        """Shannon cofactor with respect to one variable."""
        return self._wrap(
            self.mgr._cofactor_bits(
                self._aligned_bits(), self.mgr.level_of(name), 1 if value else 0
            )
        )

    def restrict(self, assignment: dict[str, int | bool]) -> "BitsetFunction":
        """Simultaneous cofactor for several variables."""
        bits = self._aligned_bits()
        for name, value in assignment.items():
            bits = self.mgr._cofactor_bits(
                bits, self.mgr.level_of(name), 1 if value else 0
            )
        return self._wrap(bits)

    def exists(self, names: Iterable[str]) -> "BitsetFunction":
        """Existential quantification over ``names``."""
        bits = self._aligned_bits()
        for name in names:
            level = self.mgr.level_of(name)
            bits = self.mgr._cofactor_bits(bits, level, 0) | self.mgr._cofactor_bits(
                bits, level, 1
            )
        return self._wrap(bits)

    def forall(self, names: Iterable[str]) -> "BitsetFunction":
        """Universal quantification over ``names``."""
        bits = self._aligned_bits()
        for name in names:
            level = self.mgr.level_of(name)
            bits = self.mgr._cofactor_bits(bits, level, 0) & self.mgr._cofactor_bits(
                bits, level, 1
            )
        return self._wrap(bits)

    def compose(self, name: str, replacement: "BitsetFunction") -> "BitsetFunction":
        """Substitute ``replacement`` for variable ``name``."""
        level = self.mgr.level_of(name)
        bits = self._aligned_bits()
        g = self._raw_of(replacement)
        low = self.mgr._cofactor_bits(bits, level, 0)
        high = self.mgr._cofactor_bits(bits, level, 1)
        return self._wrap((g & high) | (~g & self.mgr._mask & low))


def isop_dense(
    mgr: BitsetBDD, lower: int, upper: int
) -> tuple[int, tuple[tuple[tuple[int, bool], ...], ...]]:
    """Minato–Morreale ISOP over dense tables.

    Structurally mirrors the BDD recursion in
    :func:`repro.bdd.ops._isop_edges` — same branch order, same
    terminal handling, one memo entry per distinct pair of bounds — so
    the produced cube sequence is identical to the BDD backend's for
    equal bounds.  Returns ``(cover_bits, cubes)``; cubes are
    ``(level, polarity)`` tuples, top variable first.

    The recursion runs on *narrowed* tables (:func:`_isop_narrowed`):
    at depth ``level`` a bound is a ``2^(n-level)``-bit table over the
    variables not yet split, so every split is two shifts of a table
    that halves with depth instead of full-width cofactors.  The memo
    lives in this call's frame only and is freed when it returns.
    """
    mask = mgr._mask
    return _isop_narrowed(lower & mask, upper & mask, 0, mgr._n, {})


def _isop_narrowed(
    low: int, up: int, level: int, n_vars: int, memo: dict
) -> tuple[int, tuple]:
    """ISOP of ``[low, up]``, two tables over variables ``level..n-1``.

    Variable ``level`` is the most significant index bit of a
    ``2^(n-level)``-bit table, so its 0-cofactor is the low half and
    its 1-cofactor the high half.  Levels on which neither bound
    depends are skipped first (the BDD recursion never sees them), the
    memo is keyed ``(level, low, up)`` on the narrowed tables, and the
    cover is replicated back over the skipped levels on the way out.
    """
    if low == 0:
        return 0, ()
    width = 1 << (n_vars - level)
    if up == (1 << width) - 1:
        return up, ((),)
    start = level
    while True:
        # Terminates: bounds that depend on no variable are constants,
        # and those returned above.
        width >>= 1
        half = (1 << width) - 1
        low0, low1 = low & half, low >> width
        up0, up1 = up & half, up >> width
        if low0 != low1 or up0 != up1:
            break
        low, up = low0, up0
        level += 1
    key = (level, low, up)
    hit = memo.get(key)
    if hit is None:
        below = level + 1
        f0, cubes0 = _isop_narrowed(low0 & ~up1, up0, below, n_vars, memo)
        f1, cubes1 = _isop_narrowed(low1 & ~up0, up1, below, n_vars, memo)
        fd, cubes_d = _isop_narrowed(
            (low0 & ~f0) | (low1 & ~f1), up0 & up1, below, n_vars, memo
        )
        hit = (
            ((f1 | fd) << width) | f0 | fd,
            tuple(((level, False),) + cube for cube in cubes0)
            + tuple(((level, True),) + cube for cube in cubes1)
            + cubes_d,
        )
        memo[key] = hit
    cover, cubes = hit
    width <<= 1
    while level > start:
        cover |= cover << width
        width <<= 1
        level -= 1
    return cover, cubes


def function_from_bdd(function, target: BitsetBDD) -> BitsetFunction:
    """Tabulate a BDD function densely inside ``target`` (match by name).

    The direct counterpart of a serializer dump+load round trip —
    semantically identical, but a single iterative post-order walk with
    no intermediate payload.  Extra variables in ``target`` are simply
    unused (the projection masks encode positions, so independence
    duplicates automatically).
    """
    from repro.bdd.ops import level_map_by_name

    src = function.mgr
    level_map = level_map_by_name(src.var_names, target)
    # The walk reads *source levels*; route the declaration-indexed map
    # through the source's current order (a reordered BDD is fine here —
    # the per-node mask combination needs no monotonicity).
    level_map = [level_map[var] for var in src._level_var]
    mask = target._mask
    var_bits, nvar_bits = target._var_bits, target._nvar_bits
    src_level, src_low, src_high = src._level, src._low, src._high
    #: node index -> dense table of the *plain* (uncomplemented) function.
    copied: dict[int, int] = {0: 0}
    stack: list[tuple[int, bool]] = [(function.node >> 1, False)]
    while stack:
        index, expanded = stack.pop()
        if index in copied:
            continue
        low, high = src_low[index], src_high[index]
        if expanded:
            low_bits = copied[low >> 1] ^ (mask if low & 1 else 0)
            high_bits = copied[high >> 1] ^ (mask if high & 1 else 0)
            level = level_map[src_level[index]]
            copied[index] = (nvar_bits[level] & low_bits) | (
                var_bits[level] & high_bits
            )
        else:
            stack.append((index, True))
            stack.append((high >> 1, False))
            stack.append((low >> 1, False))
    bits = copied[function.node >> 1] ^ (mask if function.node & 1 else 0)
    return target._make(bits)


def function_to_bdd(function: BitsetFunction, target):
    """Rebuild a dense function as a BDD in ``target`` (match by name).

    Shannon recursion over narrowing sub-tables with memoization — the
    direct counterpart of a serializer round trip, minus the payload.
    """
    from repro.bdd.ops import level_map_by_name

    src = function.mgr
    level_map = level_map_by_name(src.var_names, target)
    # A reordered BDD target breaks the monotonicity the bottom-up
    # ``_mk`` rebuild relies on; fall back to a semantic ``ite`` build.
    structural = all(a < b for a, b in zip(level_map, level_map[1:]))
    n = src._n
    cache: dict[tuple[int, int], int] = {}

    def rec(level: int, bits: int, width: int) -> int:
        if bits == 0:
            return 0
        if bits == (1 << width) - 1:
            return 1
        key = (level, bits)
        cached = cache.get(key)
        if cached is not None:
            return cached
        half = width >> 1
        low = rec(level + 1, bits & ((1 << half) - 1), half)
        high = rec(level + 1, bits >> half, half)
        if structural:
            edge = target._mk(level_map[level], low, high)
        else:
            edge = target._ite(target._mk(level_map[level], 0, 1), high, low)
        cache[key] = edge
        return edge

    return target._wrap(rec(0, function._aligned_bits(), 1 << n))


def from_truthtable(mgr: BitsetBDD, table) -> BitsetFunction:
    """Wrap a :class:`~repro.boolfunc.truthtable.TruthTable` (same arity)."""
    if mgr.n_vars != table.n_vars:
        raise ValueError(
            f"manager has {mgr.n_vars} variables, table has {table.n_vars}"
        )
    return BitsetFunction(mgr, table.bits)


def to_truthtable(function: BitsetFunction):
    """Extract the packed table of a bitset function."""
    from repro.boolfunc.truthtable import TruthTable

    return TruthTable(function.mgr.n_vars, function._aligned_bits())


__all__ = [
    "MAX_BITSET_VARS",
    "BitsetBDD",
    "BitsetFunction",
    "from_truthtable",
    "isop_dense",
    "to_truthtable",
]
