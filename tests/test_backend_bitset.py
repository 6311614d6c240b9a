"""Bitset backend: protocol conformance, BDD-oracle properties, identity.

Three layers of guarantees:

* **protocol** — :class:`BitsetBDD`/:class:`BitsetFunction` satisfy the
  :mod:`repro.backend.protocol` ABCs and the full Function surface;
* **semantics** — every operation agrees with the BDD backend on random
  functions (negation, connectives, ordering, cofactors, quantifiers,
  composition, satcount, support, evaluation, quotients);
* **identity** — serialization is byte-identical across backends
  (canonical hashes, dumps, isop cube sequences), which is what makes
  cache keys and wire payloads backend-independent.
"""

import pytest

from repro.backend import (
    DEFAULT_BITSET_MAX_VARS,
    DEFAULT_BITSET_SUPPORT,
    MAX_BITSET_VARS,
    BitsetBDD,
    BitsetFunction,
    BooleanFunction,
    BooleanManager,
    backend_of,
    choose_backend,
    from_truthtable,
    make_manager,
    support_size,
    to_truthtable,
)
from repro.bdd import serialize
from repro.bdd.manager import BDD, Function
from repro.bdd.ops import isop, transfer
from repro.boolfunc.convert import function_to_truthtable, truthtable_to_function
from repro.boolfunc.isf import ISF
from repro.boolfunc.truthtable import TruthTable
from repro.core.flexibility import semantic_full_quotient
from repro.core.operators import TABLE_I_ORDER, ApproximationKind, operator_by_name
from repro.core.quotient import full_quotient
from repro.utils.rng import make_rng
from tests.conftest import fresh_manager


def bitset_manager(n_vars: int) -> BitsetBDD:
    return BitsetBDD([f"x{i + 1}" for i in range(n_vars)])


def random_pair(rng, n):
    """Equal random functions in both backends plus their raw bits."""
    bits = rng.randrange(1 << (1 << n))
    bdd_mgr = fresh_manager(n)
    bit_mgr = bitset_manager(n)
    f_bdd = truthtable_to_function(bdd_mgr, TruthTable(n, bits))
    f_bit = from_truthtable(bit_mgr, TruthTable(n, bits))
    return f_bdd, f_bit, bits


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


def test_protocol_registration():
    assert issubclass(BDD, BooleanManager)
    assert issubclass(BitsetBDD, BooleanManager)
    assert issubclass(Function, BooleanFunction)
    assert issubclass(BitsetFunction, BooleanFunction)
    mgr = bitset_manager(3)
    assert isinstance(mgr, BooleanManager)
    assert isinstance(mgr.true, BooleanFunction)
    assert backend_of(mgr) == "bitset"
    assert backend_of(mgr.false) == "bitset"
    assert backend_of(fresh_manager(2)) == "bdd"


def test_backend_of_rejects_foreign_objects():
    with pytest.raises(TypeError):
        backend_of(object())


def test_choose_backend_policy():
    # (declared variables, support, spec) -> backend of the new manager.
    assert choose_backend(6, 2, "auto") == "bitset"
    assert choose_backend(6, 2, "bdd") == "bdd"
    assert choose_backend(6, 2, "bitset") == "bitset"
    assert choose_backend(6, DEFAULT_BITSET_SUPPORT + 1, "auto") == "bdd"
    assert choose_backend(DEFAULT_BITSET_MAX_VARS + 1, 2, "auto") == "bdd"
    with pytest.raises(ValueError):
        choose_backend(6, 2, "dense")
    assert choose_backend(MAX_BITSET_VARS + 1, 1, "auto") == "bdd"
    assert choose_backend(MAX_BITSET_VARS, 1, "bitset") == "bitset"
    with pytest.raises(ValueError):
        choose_backend(MAX_BITSET_VARS + 1, 1, "bitset")
    assert isinstance(make_manager("bitset", ["a"]), BitsetBDD)
    assert isinstance(make_manager("bdd", ["a"]), BDD)


def test_support_size_counts_union_of_on_and_dc():
    mgr = bitset_manager(5)
    f = ISF(mgr.var("x1") & mgr.var("x2"), mgr.var("x4") - (mgr.var("x1") & mgr.var("x2")))
    assert support_size(f) == 3
    assert support_size(f, ISF.completely_specified(mgr.var("x5"))) == 4


# ---------------------------------------------------------------------------
# Semantics vs the BDD oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_operations_match_bdd_backend(seed):
    rng = make_rng(("bitset-ops", seed))
    n = 2 + seed % 4
    f_bdd, f_bit, _ = random_pair(rng, n)
    g_bdd = truthtable_to_function(f_bdd.mgr, TruthTable(n, rng.randrange(1 << (1 << n))))
    g_bit = from_truthtable(f_bit.mgr, function_to_truthtable(g_bdd))

    def same(a: Function, b: BitsetFunction):
        assert function_to_truthtable(a).bits == to_truthtable(b).bits

    same(~f_bdd, ~f_bit)
    same(f_bdd & g_bdd, f_bit & g_bit)
    same(f_bdd | g_bdd, f_bit | g_bit)
    same(f_bdd ^ g_bdd, f_bit ^ g_bit)
    same(f_bdd - g_bdd, f_bit - g_bit)
    same(f_bdd.implies(g_bdd), f_bit.implies(g_bit))
    same(f_bdd.equiv(g_bdd), f_bit.equiv(g_bit))
    same(f_bdd.ite(g_bdd, ~g_bdd), f_bit.ite(g_bit, ~g_bit))
    assert (f_bdd <= g_bdd) == (f_bit <= g_bit)
    assert (f_bdd >= g_bdd) == (f_bit >= g_bit)
    assert (f_bdd < g_bdd) == (f_bit < g_bit)
    assert f_bdd.disjoint(g_bdd) == f_bit.disjoint(g_bit)
    assert f_bdd.satcount() == f_bit.satcount()
    assert list(f_bdd.minterms()) == list(f_bit.minterms())
    assert f_bdd.support() == f_bit.support()
    assert f_bdd.size() == f_bit.size()
    assert f_bdd.is_false == f_bit.is_false
    assert f_bdd.is_true == f_bit.is_true
    for m in range(1 << n):
        assert f_bdd(m) == f_bit(m)
    name = f_bdd.mgr.var_names[rng.randrange(n)]
    same(f_bdd.cofactor(name, 1), f_bit.cofactor(name, 1))
    same(f_bdd.cofactor(name, 0), f_bit.cofactor(name, 0))
    same(f_bdd.restrict({name: 1}), f_bit.restrict({name: 1}))
    same(f_bdd.exists([name]), f_bit.exists([name]))
    same(f_bdd.forall([name]), f_bit.forall([name]))
    same(f_bdd.compose(name, g_bdd), f_bit.compose(name, g_bit))


def test_equality_and_hash_are_value_based():
    mgr = bitset_manager(3)
    a = mgr.var("x1") & mgr.var("x2")
    b = mgr.var("x2") & mgr.var("x1")
    assert a == b and hash(a) == hash(b)
    other = bitset_manager(3)
    assert a != (other.var("x1") & other.var("x2"))  # different manager
    assert a != ~a


def test_manager_surface_parity():
    mgr = bitset_manager(4)
    assert mgr.n_vars == 4
    assert mgr.var_names == ("x1", "x2", "x3", "x4")
    assert mgr.level_of("x3") == 2
    assert mgr.var_at(0) == mgr.var("x1")
    assert mgr.false.is_false and mgr.true.is_true
    cube = mgr.cube({"x1": 1, "x3": 0})
    assert cube.satcount() == 4
    assert mgr.minterm(5).satcount() == 1
    stats = mgr.stats()
    assert stats["backend"] == "bitset" and "tables" in stats
    assert mgr.gc()["swept"] == 0
    with pytest.raises(ValueError):
        mgr.add_var("x1")


def test_mixing_managers_raises():
    a, b = bitset_manager(2), bitset_manager(2)
    with pytest.raises(ValueError):
        a.true & b.true


def test_add_var_realigns_live_handles():
    mgr = bitset_manager(2)
    f = mgr.var("x1") & mgr.var("x2")
    assert f.satcount() == 1
    mgr.add_var("x3")
    assert f.satcount() == 2  # duplicated along the new deepest axis
    assert f.support() == ("x1", "x2")
    oracle = fresh_manager(3)
    expected = oracle.var("x1") & oracle.var("x2")
    assert function_to_truthtable(expected).bits == to_truthtable(f).bits


def test_bitset_var_cap():
    with pytest.raises(ValueError):
        BitsetBDD([f"x{i}" for i in range(MAX_BITSET_VARS + 1)])


# ---------------------------------------------------------------------------
# Quotients (the paper's core algebra) on the bitset backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op_name", TABLE_I_ORDER)
def test_full_quotient_round_trip_matches_bdd(op_name):
    rng = make_rng(("bitset-quotient", op_name))
    n = 4
    op = operator_by_name(op_name)
    for _ in range(3):
        on = rng.randrange(1 << (1 << n))
        dc = rng.randrange(1 << (1 << n)) & ~on
        bdd_mgr, bit_mgr = fresh_manager(n), bitset_manager(n)
        f_bdd = ISF(
            truthtable_to_function(bdd_mgr, TruthTable(n, on)),
            truthtable_to_function(bdd_mgr, TruthTable(n, dc)),
        )
        f_bit = ISF(
            from_truthtable(bit_mgr, TruthTable(n, on)),
            from_truthtable(bit_mgr, TruthTable(n, dc)),
        )
        divisors = {
            ApproximationKind.OVER_F: (f_bdd.upper, f_bit.upper),
            ApproximationKind.UNDER_F: (f_bdd.on, f_bit.on),
            ApproximationKind.OVER_COMPLEMENT: (~f_bdd.on, ~f_bit.on),
            ApproximationKind.UNDER_COMPLEMENT: (f_bdd.off, f_bit.off),
            ApproximationKind.ANY: (f_bdd.on, f_bit.on),
        }
        g_bdd, g_bit = divisors[op.approximation]
        h_bdd = full_quotient(f_bdd, g_bdd, op)
        h_bit = full_quotient(f_bit, g_bit, op)
        assert function_to_truthtable(h_bdd.on).bits == to_truthtable(h_bit.on).bits
        assert function_to_truthtable(h_bdd.dc).bits == to_truthtable(h_bit.dc).bits
        # The semantic (Table-II-free) derivation agrees on the backend too.
        semantic = semantic_full_quotient(f_bit, g_bit, op)
        assert semantic == h_bit


# ---------------------------------------------------------------------------
# Serialization identity (cache keys, wire payloads)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_dump_and_fingerprint_identical_across_backends(seed):
    rng = make_rng(("bitset-serialize", seed))
    n = 1 + seed
    f_bdd, f_bit, bits = random_pair(rng, n)
    assert serialize.dump(f_bdd) == serialize.dump(f_bit)
    assert serialize.function_fingerprint(f_bdd) == serialize.function_fingerprint(
        f_bit
    )
    # Round trips in all four direction pairs.
    assert to_truthtable(serialize.load(serialize.dump(f_bdd), bitset_manager(n))).bits == bits
    reloaded = serialize.load(serialize.dump(f_bit), fresh_manager(n))
    assert function_to_truthtable(reloaded).bits == bits


def test_shared_dag_dump_identity():
    rng = make_rng("bitset-dag")
    n = 4
    bdd_mgr, bit_mgr = fresh_manager(n), bitset_manager(n)
    pairs = []
    for label in ("a", "b", "c"):
        bits = rng.randrange(1 << (1 << n))
        pairs.append(
            (
                label,
                truthtable_to_function(bdd_mgr, TruthTable(n, bits)),
                from_truthtable(bit_mgr, TruthTable(n, bits)),
            )
        )
    dump_bdd = serialize.dump_many([(l, f) for l, f, _ in pairs])
    dump_bit = serialize.dump_many([(l, f) for l, _, f in pairs])
    assert dump_bdd == dump_bit


def test_transfer_cross_backend_round_trip():
    rng = make_rng("bitset-transfer")
    n = 5
    f_bdd, f_bit, bits = random_pair(rng, n)
    moved = transfer(f_bdd, f_bit.mgr)
    assert moved == f_bit
    back = transfer(f_bit, f_bdd.mgr)
    assert back == f_bdd
    # Into a wider bitset manager (extra deepest variable).
    wider = BitsetBDD([f"x{i + 1}" for i in range(n)] + ["extra"])
    widened = transfer(f_bdd, wider)
    assert widened.support() == f_bdd.support()
    assert widened.satcount() == 2 * f_bdd.satcount()
    with pytest.raises(ValueError):
        transfer(f_bit, BitsetBDD(["z1"]))


def function_over(mgr, bits: int, used: list[int]):
    """The function of a truth table over the variables ``used`` (the
    first is the most significant index bit); every other variable of
    the manager is ignored."""
    if bits == 0:
        return mgr.false
    if bits == (1 << (1 << len(used))) - 1:
        return mgr.true
    width = 1 << (len(used) - 1)
    rest = used[1:]
    return mgr.var_at(used[0]).ite(
        function_over(mgr, bits >> width, rest),
        function_over(mgr, bits & ((1 << width) - 1), rest),
    )


#: Seeds 4-9: (n, dc-heavy) for bounds over a few scattered variables,
#: so the dense recursion skips levels and replicates covers.
WIDE_ISOP_CASES = {4: (8, False), 5: (10, True), 6: (12, False),
                   7: (14, True), 8: (16, False), 9: (16, True)}


@pytest.mark.parametrize("seed", range(10))
def test_isop_identical_cube_sequences(seed):
    rng = make_rng(("bitset-isop", seed))
    if seed in WIDE_ISOP_CASES:
        n, dc_heavy = WIDE_ISOP_CASES[seed]
        # Variable 0, the last variable and at least one more are ignored.
        used = sorted(rng.sample(range(1, n - 1), min(7, n - 3)))
        size = 1 << len(used)
        on = rng.getrandbits(size)
        dc = rng.getrandbits(size)
        if dc_heavy:
            dc |= rng.getrandbits(size)
        else:
            on &= rng.getrandbits(size)
        dc &= ~on
    else:
        n = 3 + seed
        used = list(range(n))
        on = rng.randrange(1 << (1 << n))
        dc = rng.randrange(1 << (1 << n)) & ~on
    bdd_mgr, bit_mgr = fresh_manager(n), bitset_manager(n)
    lower_bdd = function_over(bdd_mgr, on, used)
    upper_bdd = function_over(bdd_mgr, on | dc, used)
    lower_bit = function_over(bit_mgr, on, used)
    upper_bit = function_over(bit_mgr, on | dc, used)
    cubes_bdd, realized_bdd = isop(lower_bdd, upper_bdd)
    cubes_bit, realized_bit = isop(lower_bit, upper_bit)
    assert cubes_bdd == cubes_bit
    assert serialize.dump(realized_bdd) == serialize.dump(realized_bit)
