"""Depth-robustness regression tests (chain functions, many variables).

The pre-overhaul recursive core died with ``RecursionError`` around a
thousand chained variables (``_ite``), and earlier still when recursions
nested (``isop`` calling apply per frame).  Every algorithm here now
runs on explicit work stacks, so chain-structured functions far beyond
Python's recursion limit must work end to end: apply, satcount, minterm
enumeration, ISOP extraction, cross-manager transfer, canonical
serialization — and a full engine decomposition.
"""

from repro.bdd.manager import BDD
from repro.bdd.ops import isop, transfer
from repro.bdd.serialize import dump, function_fingerprint, load
from repro.engine.decomposer import Decomposer

#: Comfortably past the default interpreter recursion limit.
DEEP = 1200

_CHAIN_CACHE: dict[int, tuple] = {}


def _conjunction_chain(n: int) -> tuple[BDD, "object"]:
    # The chain build is O(n²) apply work; share it across the tests in
    # this module (they only read the function, never mutate state that
    # matters to another test).
    cached = _CHAIN_CACHE.get(n)
    if cached is None:
        mgr = BDD([f"x{i}" for i in range(n)])
        f = mgr.true
        for i in range(n):
            f = f & mgr.var(f"x{i}")
        cached = _CHAIN_CACHE[n] = (mgr, f)
    return cached


def test_deep_chain_apply_and_counting():
    mgr, f = _conjunction_chain(DEEP)
    assert f.size() == DEEP + 2
    assert f.satcount() == 1
    assert list(f.minterms()) == [(1 << DEEP) - 1]
    assert f((1 << DEEP) - 1) and not f((1 << DEEP) - 2)
    g = ~f
    assert g.satcount() == (1 << DEEP) - 1
    # One disjunction and one difference down the whole chain.
    last = f"x{DEEP - 1}"
    flipped = mgr.cube({**{f"x{i}": 1 for i in range(DEEP - 1)}, last: 0})
    union = f | flipped
    assert union == f.exists([last]) and union.satcount() == 2
    assert union - f == flipped


def test_deep_parity_chain():
    n = DEEP
    mgr = BDD([f"x{i}" for i in range(n)])
    parity = mgr.false
    for i in range(n):
        parity = parity ^ mgr.var(f"x{i}")
    # size() reports canonical subfunctions (complement-free view): one
    # root, even and odd parity on every level below, both constants.
    # Physically the complemented-edge manager stores one node per level;
    # the ~n²/2 intermediate prefix parities are reclaimed by gc() once
    # their handles die.
    assert parity.size() == 2 * n + 1
    assert mgr.node_count() > n
    mgr.gc()
    assert mgr.node_count() <= n + 2
    assert parity.satcount() == 1 << (n - 1)
    assert parity((1 << n) - 1) == (n % 2 == 1)


def test_deep_chain_isop_single_cube():
    mgr, f = _conjunction_chain(DEEP)
    cubes, realized = isop(f, f)
    assert realized == f
    assert len(cubes) == 1
    assert len(cubes[0]) == DEEP
    assert all(value for value in cubes[0].values())


def test_deep_chain_transfer_and_serialize():
    mgr, f = _conjunction_chain(DEEP)
    payload = dump(f)
    assert len(payload["nodes"]) == DEEP
    other = BDD([f"x{i}" for i in range(DEEP)])
    copied = transfer(f, other)
    assert function_fingerprint(copied) == function_fingerprint(f)
    reloaded = load(payload)
    assert function_fingerprint(reloaded) == function_fingerprint(f)


def test_deep_chain_quantifiers_and_substitution():
    mgr, f = _conjunction_chain(DEEP)
    mid = f"x{DEEP // 2}"
    # Freeing one variable of the conjunction doubles the count.
    assert f.cofactor(mid, 1).satcount() == 2
    assert f.cofactor(mid, 0).is_false
    assert f.exists([mid]).satcount() == 2
    assert f.restrict({mid: 1, "x0": 1}).satcount() == 4
    # Substituting x0 for the mid variable drops the mid constraint
    # (x0 already appears positively), i.e. the positive cofactor.
    assert f.compose(mid, mgr.var("x0")) == f.cofactor(mid, 1)


def test_400_var_chain_decomposes():
    """The acceptance check: a 400-variable chain through the engine."""
    mgr, f = _conjunction_chain(400)
    engine = Decomposer(minimizer="espresso")
    result = engine.decompose(f, op="AND", approximator=f)
    assert result.verified
    assert result.literal_cost == 400
    assert result.bdd_stats is not None and result.bdd_stats["nodes"] > 400
