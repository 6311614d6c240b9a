"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.bdd.manager import BDD
from repro.boolfunc.convert import truthtable_to_function
from repro.boolfunc.isf import ISF
from repro.boolfunc.truthtable import TruthTable
from repro.utils.rng import make_rng


def fresh_manager(n_vars: int) -> BDD:
    """A manager with variables x1..xn (x1 on top of the order)."""
    return BDD([f"x{i + 1}" for i in range(n_vars)])


def reordered_manager(n_vars: int) -> BDD:
    """A manager with x1..xn (n >= 4) whose order differs from declaration.

    ``x1 x(h+1) + x2 x(h+2) + ...`` with ``h = n // 2`` is blocked in
    declaration order; sifting it interleaves the two halves.
    """
    mgr = fresh_manager(n_vars)
    half = n_vars // 2
    anchor = mgr.false
    for var in range(half):
        anchor = anchor | mgr.product((1 << var) | (1 << (var + half)), 0)
    mgr.reorder()
    assert mgr.var_order() != mgr.var_names
    return mgr


def function_of_bits(mgr, bits: int):
    """The function whose on-set is the minterms set in ``bits``.

    Built from ``minterm`` handles, so it follows declaration order on
    any backend and under any variable order.
    """
    result = mgr.false
    for minterm in range(1 << mgr.n_vars):
        if (bits >> minterm) & 1:
            result = result | mgr.minterm(minterm)
    return result


def isf_from_masks(mgr: BDD, on_bits: int, dc_bits: int) -> ISF:
    """Build an ISF from truth-table bitmasks (dc wins overlaps)."""
    n = mgr.n_vars
    dc_bits &= (1 << (1 << n)) - 1
    on_bits &= ~dc_bits
    on = truthtable_to_function(mgr, TruthTable(n, on_bits))
    dc = truthtable_to_function(mgr, TruthTable(n, dc_bits))
    return ISF(on, dc)


def load_into(isf: ISF, backend: str) -> ISF:
    """The same ISF decoded into a fresh manager of ``backend``."""
    from repro.engine import wire

    return wire.isf_from_payload(wire.isf_to_payload(isf), backend=backend)


def brute_force_equal(mgr: BDD, function, predicate) -> bool:
    """Compare a BDD function against a Python predicate on all minterms."""
    return all(
        bool(function(m)) == bool(predicate(m)) for m in range(1 << mgr.n_vars)
    )


@pytest.fixture
def rng():
    """Deterministic RNG, fresh per test."""
    return make_rng("pytest")


@pytest.fixture
def mgr4():
    """A 4-variable manager (the paper's figure size)."""
    return fresh_manager(4)


@pytest.fixture
def mgr5():
    """A 5-variable manager."""
    return fresh_manager(5)
