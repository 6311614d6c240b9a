"""Mask-native cover algebra: an SOP cover as packed literal masks.

Espresso's passes (EXPAND, IRREDUNDANT, REDUCE) ask tiny questions of
every cube — "does dropping this literal hit the off-set?", "does that
cube contain this one?" — many times per minimization.  Routing each
question through a :class:`~repro.cover.cube.Cube` object allocates,
hashes and validates a handle per candidate, which profiling showed is
the floor on small-width rows.

:class:`CoverAlgebra` keeps a cover as two parallel arrays of packed
``(pos, neg)`` literal masks — bit ``i`` of ``pos``/``neg`` set when
variable ``i`` appears positively/negatively, exactly the
:class:`~repro.cover.cube.Cube` convention.  It holds what the
minimizer loop calls: constructors from a ``Cover``, from masks and
from ISOP output, the ``Cover`` view at the API boundary, per-cube
literal counts and the cost measures, and single-cube containment.
Everything else is plain integer arithmetic inlined where it is asked,
or a question for :mod:`repro.twolevel.containment`.  The 2-SPP passes
keep ``(pos, neg, xors)`` tuples instead (:mod:`repro.spp.synthesis`).
``tests/test_cover_algebra.py`` pins the round trips, measures and
single-cube containment against ``Cover``; the passes built on it are
checked against their contracts in ``tests/test_minimizer_contracts.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.cover.cover import Cover
from repro.cover.cube import Cube

__all__ = ["CoverAlgebra"]


class CoverAlgebra:
    """A cover as parallel arrays of packed ``(pos, neg)`` literal masks.

    Mutable (``append``) during construction inside minimizer loops;
    treat instances handed across function boundaries as frozen.
    """

    __slots__ = ("n_vars", "pos", "neg")

    def __init__(
        self,
        n_vars: int,
        pos: Iterable[int] = (),
        neg: Iterable[int] = (),
    ) -> None:
        self.n_vars = n_vars
        self.pos: list[int] = list(pos)
        self.neg: list[int] = list(neg)
        if len(self.pos) != len(self.neg):
            raise ValueError("pos and neg arrays must align")

    # -- constructors / views ---------------------------------------------
    @classmethod
    def from_cover(cls, cover: Cover) -> "CoverAlgebra":
        return cls(
            cover.n_vars,
            [cube.pos for cube in cover.cubes],
            [cube.neg for cube in cover.cubes],
        )

    @classmethod
    def from_masks(
        cls, n_vars: int, masks: Iterable[tuple[int, int]]
    ) -> "CoverAlgebra":
        out = cls(n_vars)
        for pos, neg in masks:
            out.pos.append(pos)
            out.neg.append(neg)
        return out

    @classmethod
    def from_isop(
        cls, n_vars: int, cube_dicts: list[dict[str, bool]], names
    ) -> "CoverAlgebra":
        """Build straight from :func:`repro.bdd.ops.isop` output."""
        index = {name: position for position, name in enumerate(names)}
        out = cls(n_vars)
        for entry in cube_dicts:
            pos = neg = 0
            for name, value in entry.items():
                bit = 1 << index[name]
                if value:
                    pos |= bit
                else:
                    neg |= bit
            out.pos.append(pos)
            out.neg.append(neg)
        return out

    def to_cover(self) -> Cover:
        """Materialize ``Cube`` views (the API boundary, not the hot loop)."""
        return Cover(
            self.n_vars,
            [
                Cube(self.n_vars, pos, neg)
                for pos, neg in zip(self.pos, self.neg)
            ],
        )

    # -- container behaviour ----------------------------------------------
    def __len__(self) -> int:
        return len(self.pos)

    def append(self, pos: int, neg: int) -> None:
        self.pos.append(pos)
        self.neg.append(neg)

    def masks(self) -> Iterator[tuple[int, int]]:
        return zip(self.pos, self.neg)

    def __repr__(self) -> str:
        return (
            f"CoverAlgebra({len(self.pos)} cubes,"
            f" {self.literal_count()} literals)"
        )

    # -- measures ----------------------------------------------------------
    def literal_counts(self) -> list[int]:
        """Per-cube literal counts, one popcount per cube."""
        return [
            (pos | neg).bit_count() for pos, neg in zip(self.pos, self.neg)
        ]

    def literal_count(self) -> int:
        return sum(self.literal_counts())

    def cube_count(self) -> int:
        return len(self.pos)

    # -- structural cleanups -------------------------------------------------
    def single_cube_containment(self) -> "CoverAlgebra":
        """Drop cubes contained in a single other cube.

        Exact mask-native counterpart of
        :meth:`repro.cover.cover.Cover.single_cube_containment`: stable
        ascending-literal-count order, keep a cube unless an already-kept
        cube contains it.
        """
        order = sorted(
            range(len(self.pos)),
            key=lambda i: (self.pos[i] | self.neg[i]).bit_count(),
        )
        kept_pos: list[int] = []
        kept_neg: list[int] = []
        for index in order:
            pos, neg = self.pos[index], self.neg[index]
            contained = False
            for k_pos, k_neg in zip(kept_pos, kept_neg):
                if not ((k_pos & ~pos) | (k_neg & ~neg)):
                    contained = True
                    break
            if not contained:
                kept_pos.append(pos)
                kept_neg.append(neg)
        return CoverAlgebra(self.n_vars, kept_pos, kept_neg)
