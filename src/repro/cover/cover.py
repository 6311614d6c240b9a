"""Covers: sums of products over a fixed variable count.

A :class:`Cover` is an ordered list of :class:`~repro.cover.cube.Cube`
objects.  Its semantics are read off by evaluation or by conversion to
a manager's function; containment questions of the minimizers go to
:mod:`repro.twolevel.containment`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.bdd.manager import BDD, Function
from repro.boolfunc.truthtable import TruthTable
from repro.cover.cube import Cube


class Cover:
    """A sum of products (possibly redundant, possibly empty)."""

    __slots__ = ("n_vars", "cubes")

    def __init__(self, n_vars: int, cubes: Iterable[Cube] = ()) -> None:
        self.n_vars = n_vars
        self.cubes: list[Cube] = []
        for cube in cubes:
            if cube.n_vars != n_vars:
                raise ValueError("cube arity mismatch")
            self.cubes.append(cube)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_strings(cls, rows: Iterable[str]) -> "Cover":
        """Build from positional-cube strings (all the same length)."""
        cubes = [Cube.from_string(row) for row in rows]
        if not cubes:
            raise ValueError("cannot infer arity from an empty list")
        return cls(cubes[0].n_vars, cubes)

    @classmethod
    def from_isop(cls, n_vars: int, cube_dicts: list[dict[str, bool]], names) -> "Cover":
        """Build from :func:`repro.bdd.ops.isop` output."""
        index = {name: position for position, name in enumerate(names)}
        cubes = [
            Cube.from_literals(n_vars, {index[name]: val for name, val in entry.items()})
            for entry in cube_dicts
        ]
        return cls(n_vars, cubes)

    # -- basic container behaviour ---------------------------------------
    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self) -> Iterator[Cube]:
        return iter(self.cubes)

    def __getitem__(self, index: int) -> Cube:
        return self.cubes[index]

    def __repr__(self) -> str:
        return f"Cover({len(self.cubes)} cubes, {self.literal_count()} literals)"

    def copy(self) -> "Cover":
        """Shallow copy (cubes are immutable)."""
        return Cover(self.n_vars, list(self.cubes))

    # -- measures ------------------------------------------------------------
    def literal_count(self) -> int:
        """Total number of literals across all cubes (SOP cost)."""
        return sum(cube.literal_count for cube in self.cubes)

    def cube_count(self) -> int:
        """Number of products."""
        return len(self.cubes)

    # -- semantics --------------------------------------------------------------
    def contains_minterm(self, minterm: int) -> bool:
        """Evaluate the SOP on a minterm index."""
        return any(cube.contains_minterm(minterm) for cube in self.cubes)

    def to_function(self, mgr: BDD) -> Function:
        """Build the BDD of the SOP."""
        result = mgr.false
        for cube in self.cubes:
            result = result | cube.to_function(mgr)
        return result

    def to_truthtable(self) -> TruthTable:
        """Dense tabulation (small arity only)."""
        bits = 0
        for minterm in range(1 << self.n_vars):
            if self.contains_minterm(minterm):
                bits |= 1 << minterm
        return TruthTable(self.n_vars, bits)

    def to_expression(self, names) -> str:
        """Human-readable SOP string."""
        if not self.cubes:
            return "0"
        return " | ".join(
            cube.to_expression(names) if cube.literal_count else "1"
            for cube in self.cubes
        )

    # -- simple structural cleanups ------------------------------------------------
    def single_cube_containment(self) -> "Cover":
        """Drop cubes contained in a single other cube (cheap cleanup)."""
        kept: list[Cube] = []
        # Sort by decreasing coverage so containers come first.
        ordered = sorted(self.cubes, key=lambda c: c.literal_count)
        for cube in ordered:
            if any(existing.contains_cube(cube) for existing in kept):
                continue
            kept.append(cube)
        return Cover(self.n_vars, kept)
