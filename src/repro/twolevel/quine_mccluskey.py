"""Exact two-level minimization (Quine–McCluskey with don't-cares).

Primes are generated over ``on ∪ dc`` by iterated pairwise merging of
implicants grouped by popcount; the minimum cover of the on-set is then
found by the branch-and-bound solver in :mod:`repro.twolevel.covering`.

Implicants are ``(value, mask)`` pairs in *minterm bit order* (variable 0
is the most significant bit): ``mask`` has 1-bits on don't-care positions
and ``value`` carries the fixed bits.  The whole pipeline — prime
generation, covering-column construction (``prime ⊇ minterm`` iff
``(minterm & ~mask) == value``), and the solver rows — runs on plain
integers; :class:`~repro.cover.cube.Cube` objects materialize only for
the chosen primes at the API boundary.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.cover.cover import Cover
from repro.cover.cube import Cube
from repro.twolevel.covering import CoveringProblem, solve_covering


def _implicant_to_cube(n_vars: int, value: int, mask: int) -> Cube:
    pos = neg = 0
    for var in range(n_vars):
        bit = 1 << (n_vars - 1 - var)
        if mask & bit:
            continue
        if value & bit:
            pos |= 1 << var
        else:
            neg |= 1 << var
    return Cube(n_vars, pos, neg)


def _prime_implicants(
    n_vars: int, minterms: set[int]
) -> list[tuple[int, int]]:
    """All prime ``(value, mask)`` implicants covering ``minterms``.

    Merged values always clear their mask bits (``value & mask == 0``),
    so containment of a minterm ``m`` is the single integer test
    ``(m & ~mask) == value``.
    """
    current: set[tuple[int, int]] = {(m, 0) for m in minterms}
    primes: list[tuple[int, int]] = []
    while current:
        merged_away: set[tuple[int, int]] = set()
        next_level: set[tuple[int, int]] = set()
        by_mask: dict[int, list[tuple[int, int]]] = {}
        for value, mask in current:
            by_mask.setdefault(mask, []).append((value, mask))
        for mask, group in by_mask.items():
            by_count: dict[int, list[int]] = {}
            for value, _ in group:
                by_count.setdefault(value.bit_count(), []).append(value)
            for count, values in by_count.items():
                partners = by_count.get(count + 1, [])
                for value in values:
                    for partner in partners:
                        diff = value ^ partner
                        if diff.bit_count() == 1:
                            next_level.add((value & partner, mask | diff))
                            merged_away.add((value, mask))
                            merged_away.add((partner, mask))
        primes.extend(imp for imp in current if imp not in merged_away)
        current = next_level
    return primes


def generate_primes(
    n_vars: int, on_minterms: Iterable[int], dc_minterms: Iterable[int] = ()
) -> list[Cube]:
    """All prime implicants of the interval [on, on ∪ dc]."""
    minterms = set(on_minterms) | set(dc_minterms)
    if not minterms:
        return []
    if len(minterms) == 1 << n_vars:
        return [Cube.tautology(n_vars)]
    return [
        _implicant_to_cube(n_vars, value, mask)
        for value, mask in _prime_implicants(n_vars, minterms)
    ]


def minimize_exact(
    n_vars: int,
    on_minterms: Iterable[int],
    dc_minterms: Iterable[int] = (),
    literal_weight: int = 1,
    product_weight: int = 1000,
    max_nodes: int = 200_000,
) -> Cover:
    """Minimum SOP cover of the on-set, using the dc-set freely.

    The default cost orders solutions primarily by product count and
    secondarily by literal count, matching classic two-level practice.
    ``tests/test_minimizer_contracts.py`` checks the cost against a
    brute-force minimum over sets of primes.
    """
    on_list = sorted(set(on_minterms))
    dc_set = set(dc_minterms)
    if not on_list:
        return Cover(n_vars, [])
    minterms = set(on_list) | dc_set
    if len(minterms) == 1 << n_vars:
        return Cover(n_vars, [Cube.tautology(n_vars)])
    primes = _prime_implicants(n_vars, minterms)

    columns: list[int] = []
    costs: list[float] = []
    usable: list[tuple[int, int]] = []
    for value, mask in primes:
        unfixed = ~mask
        covered = 0
        for row, minterm in enumerate(on_list):
            if (minterm & unfixed) == value:
                covered |= 1 << row
        if covered:
            columns.append(covered)
            costs.append(
                product_weight + literal_weight * (n_vars - mask.bit_count())
            )
            usable.append((value, mask))

    problem = CoveringProblem.from_masks(len(on_list), columns, costs)
    chosen = solve_covering(problem, max_nodes=max_nodes)
    return Cover(
        n_vars, [_implicant_to_cube(n_vars, *usable[j]) for j in chosen]
    )
