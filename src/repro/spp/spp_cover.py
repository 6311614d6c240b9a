"""Sums of pseudoproducts (2-SPP covers)."""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.bdd.manager import BDD, Function
from repro.cover.cover import Cover
from repro.spp.pseudocube import Pseudocube


class SppCover:
    """An OR of 2-pseudoproducts — a three-level XOR-AND-OR form."""

    __slots__ = ("n_vars", "pseudocubes")

    def __init__(self, n_vars: int, pseudocubes: Iterable[Pseudocube] = ()) -> None:
        self.n_vars = n_vars
        self.pseudocubes: list[Pseudocube] = []
        for pc in pseudocubes:
            if pc.n_vars != n_vars:
                raise ValueError("pseudocube arity mismatch")
            self.pseudocubes.append(pc)

    # -- container behaviour ------------------------------------------------
    def __len__(self) -> int:
        return len(self.pseudocubes)

    def __iter__(self) -> Iterator[Pseudocube]:
        return iter(self.pseudocubes)

    def __getitem__(self, index: int) -> Pseudocube:
        return self.pseudocubes[index]

    def __repr__(self) -> str:
        return (
            f"SppCover({len(self.pseudocubes)} pseudoproducts,"
            f" {self.literal_count()} literals)"
        )

    # -- measures ----------------------------------------------------------------
    def literal_count(self) -> int:
        """2-SPP literal cost (2 per XOR factor, 1 per plain literal)."""
        return sum(pc.literal_count for pc in self.pseudocubes)

    def pseudoproduct_count(self) -> int:
        """Number of pseudoproducts (OR-gate fan-in)."""
        return len(self.pseudocubes)

    def xor_factor_count(self) -> int:
        """Total number of XOR factors across the cover."""
        return sum(len(pc.xors) for pc in self.pseudocubes)

    def cost(self) -> tuple[int, int]:
        """Lexicographic cost ``(pseudoproducts, literals)``."""
        return self.pseudoproduct_count(), self.literal_count()

    # -- semantics ------------------------------------------------------------------
    def contains_minterm(self, minterm: int) -> bool:
        """Evaluate the form on a minterm index."""
        return any(pc.contains_minterm(minterm) for pc in self.pseudocubes)

    def to_function(self, mgr: BDD) -> Function:
        """Build the BDD of the form."""
        result = mgr.false
        for pc in self.pseudocubes:
            result = result | pc.to_function(mgr)
        return result

    def to_expression(self, names) -> str:
        """Human-readable XOR-AND-OR expression."""
        if not self.pseudocubes:
            return "0"
        return " | ".join(pc.to_expression(names) for pc in self.pseudocubes)

    def is_plain_sop(self) -> bool:
        """True iff no pseudoproduct uses an XOR factor."""
        return all(pc.is_plain_cube for pc in self.pseudocubes)

    def to_cover(self) -> Cover:
        """Convert to a plain cover (requires :meth:`is_plain_sop`)."""
        return Cover(self.n_vars, [pc.to_cube() for pc in self.pseudocubes])
