"""Pseudoproducts with two-literal XOR factors (2-pseudocubes).

A 2-pseudoproduct is a conjunction of *factors*; each factor is either a
literal ``xi`` / ``~xi`` or a two-variable XOR constraint ``xi ^ xj == c``
(``c = 1`` is the XOR factor, ``c = 0`` the XNOR factor — the paper's
``xi ⊕ x̄j`` is the same as XNOR).  Every variable appears in at most one
factor, so a pseudoproduct over ``n`` variables with ``l`` literals and
``k`` XOR factors covers exactly ``2^(n - l - k)`` minterms.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from repro.bdd.manager import BDD, Function
from repro.cover.cube import Cube
from repro.utils.bitops import bit_indices


class XorFactor(NamedTuple):
    """Constraint ``x[i] ^ x[j] == phase`` with ``i < j``."""

    i: int
    j: int
    phase: int

    def evaluate(self, minterm: int, n_vars: int) -> bool:
        """Evaluate on a minterm index (variable 0 = MSB)."""
        bit_i = (minterm >> (n_vars - 1 - self.i)) & 1
        bit_j = (minterm >> (n_vars - 1 - self.j)) & 1
        return (bit_i ^ bit_j) == self.phase

    def to_function(self, mgr: BDD) -> Function:
        """Build the factor's function on any backend."""
        return mgr.spp_product(0, 0, frozenset((self,)))

    def to_expression(self, names) -> str:
        """Render as ``(a ^ b)`` or ``~(a ^ b)``."""
        body = f"({names[self.i]} ^ {names[self.j]})"
        return body if self.phase else "~" + body


def make_xor_factor(i: int, j: int, phase: int) -> XorFactor:
    """Normalize index order (``i < j``) of an XOR factor."""
    if i == j:
        raise ValueError("XOR factor needs two distinct variables")
    if i > j:
        i, j = j, i
    return XorFactor(i, j, phase & 1)


class Pseudocube:
    """A 2-pseudoproduct: literals (pos/neg masks) plus XOR factors."""

    __slots__ = ("n_vars", "pos", "neg", "xors")

    def __init__(
        self,
        n_vars: int,
        pos: int = 0,
        neg: int = 0,
        xors: frozenset[XorFactor] = frozenset(),
    ) -> None:
        if pos & neg:
            raise ValueError("contradictory literals")
        xor_vars = 0
        for factor in xors:
            mask = (1 << factor.i) | (1 << factor.j)
            if xor_vars & mask:
                raise ValueError("variable reused across XOR factors")
            xor_vars |= mask
        if xor_vars & (pos | neg):
            raise ValueError("variable used both as literal and in an XOR factor")
        self.n_vars = n_vars
        self.pos = pos
        self.neg = neg
        self.xors = frozenset(xors)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_cube(cls, cube: Cube) -> "Pseudocube":
        """Lift a plain cube (no XOR factors)."""
        return cls(cube.n_vars, cube.pos, cube.neg)

    @classmethod
    def tautology(cls, n_vars: int) -> "Pseudocube":
        """The factor-free pseudoproduct covering everything."""
        return cls(n_vars)

    # -- identity -----------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Pseudocube)
            and other.n_vars == self.n_vars
            and other.pos == self.pos
            and other.neg == self.neg
            and other.xors == self.xors
        )

    def __hash__(self) -> int:
        return hash((self.n_vars, self.pos, self.neg, self.xors))

    def __repr__(self) -> str:
        names = tuple(f"x{k + 1}" for k in range(self.n_vars))
        return f"Pseudocube({self.to_expression(names)})"

    # -- measures --------------------------------------------------------------
    @property
    def literal_count(self) -> int:
        """2-SPP literal cost: 1 per literal, 2 per XOR factor."""
        return (self.pos | self.neg).bit_count() + 2 * len(self.xors)

    @property
    def factor_count(self) -> int:
        """Number of factors (AND-gate fan-in of the pseudoproduct)."""
        return (self.pos | self.neg).bit_count() + len(self.xors)

    @property
    def bound_mask(self) -> int:
        """Bitmask of variables constrained by any factor."""
        mask = self.pos | self.neg
        for factor in self.xors:
            mask |= (1 << factor.i) | (1 << factor.j)
        return mask

    def minterm_count(self) -> int:
        """Number of covered minterms: each factor halves the space."""
        halvings = (self.pos | self.neg).bit_count() + len(self.xors)
        return 1 << (self.n_vars - halvings)

    @property
    def is_plain_cube(self) -> bool:
        """True iff there are no XOR factors."""
        return not self.xors

    def to_cube(self) -> Cube:
        """Convert back to a plain cube (requires :attr:`is_plain_cube`)."""
        if self.xors:
            raise ValueError("pseudocube has XOR factors")
        return Cube(self.n_vars, self.pos, self.neg)

    # -- semantics -----------------------------------------------------------------
    def contains_minterm(self, minterm: int) -> bool:
        """Evaluate the pseudoproduct on a minterm index."""
        for var in bit_indices(self.pos):
            if not (minterm >> (self.n_vars - 1 - var)) & 1:
                return False
        for var in bit_indices(self.neg):
            if (minterm >> (self.n_vars - 1 - var)) & 1:
                return False
        return all(factor.evaluate(minterm, self.n_vars) for factor in self.xors)

    def to_function(self, mgr: BDD) -> Function:
        """Build the pseudoproduct's function on any backend.

        Delegates to the manager's memoized ``spp_product`` construction
        (bottom-up literals plus one cached apply per XOR factor on the
        BDD backend; a handful of mask operations on the bitset one).
        """
        return mgr.spp_product(self.pos, self.neg, self.xors)

    def to_expression(self, names) -> str:
        """Human-readable product, e.g. ``x1 & (x3 ^ x4)``."""
        parts = []
        for var in range(self.n_vars):
            bit = 1 << var
            if self.pos & bit:
                parts.append(names[var])
            elif self.neg & bit:
                parts.append("~" + names[var])
        for factor in sorted(self.xors):
            parts.append(factor.to_expression(names))
        return " & ".join(parts) if parts else "1"

    # -- factor edits (expansion moves) ----------------------------------------------
    def factors(self) -> Iterator[tuple[str, object]]:
        """Iterate factors as ``("lit", (var, polarity))`` / ``("xor", XorFactor)``."""
        for var in bit_indices(self.pos):
            yield "lit", (var, True)
        for var in bit_indices(self.neg):
            yield "lit", (var, False)
        for factor in sorted(self.xors):
            yield "xor", factor

    def drop_literal(self, var: int) -> "Pseudocube":
        """Remove the literal on ``var`` (doubles coverage)."""
        bit = 1 << var
        return Pseudocube(self.n_vars, self.pos & ~bit, self.neg & ~bit, self.xors)

    def drop_xor(self, factor: XorFactor) -> "Pseudocube":
        """Remove an XOR factor (doubles coverage)."""
        return Pseudocube(self.n_vars, self.pos, self.neg, self.xors - {factor})

    def drop_factor(self, kind: str, payload) -> "Pseudocube":
        """Remove a factor returned by :meth:`factors`."""
        if kind == "lit":
            var, _polarity = payload
            return self.drop_literal(var)
        return self.drop_xor(payload)

    def pair_literals(self, var_a: int, var_b: int) -> "Pseudocube":
        """Weaken two literals into the XOR factor they imply.

        Literals ``(x_a = u, x_b = v)`` become the factor
        ``x_a ^ x_b == u ^ v``, doubling coverage.
        """
        bit_a, bit_b = 1 << var_a, 1 << var_b
        bound = self.pos | self.neg
        if not (bound & bit_a and bound & bit_b):
            raise ValueError("both variables must be bound as literals")
        value_a = 1 if self.pos & bit_a else 0
        value_b = 1 if self.pos & bit_b else 0
        factor = make_xor_factor(var_a, var_b, value_a ^ value_b)
        return Pseudocube(
            self.n_vars,
            self.pos & ~(bit_a | bit_b),
            self.neg & ~(bit_a | bit_b),
            self.xors | {factor},
        )

    def expansions(self) -> Iterator["Pseudocube"]:
        """All single-step expansions (each strictly doubles coverage)."""
        for kind, payload in self.factors():
            yield self.drop_factor(kind, payload)
        literal_vars = list(bit_indices(self.pos | self.neg))
        for index, var_a in enumerate(literal_vars):
            for var_b in literal_vars[index + 1 :]:
                yield self.pair_literals(var_a, var_b)
