"""Cross-backend transfer and serializer round trips on benchmark loads.

Loads real multi-output benchmarks, moves every output across the
bdd↔bitset boundary in both directions (via ``transfer`` and via the
canonical serializer), and checks that canonical hashes and sampled
evaluations survive every hop — the property the netsyn divisor pool
and the backend-free cache keys rest on.
"""

from random import Random

import pytest

from repro.backend.bitset import BitsetBDD
from repro.bdd.manager import BDD
from repro.bdd.ops import transfer
from repro.bdd.serialize import dump, function_fingerprint, load
from repro.benchgen.registry import load_benchmark
from repro.engine.wire import isf_fingerprint, isf_from_payload, isf_to_payload

BENCHES = ("newtpla2", "z4", "dist")


def sampled_minterms(n_vars: int, rng: Random, count: int = 64) -> list[int]:
    space = 1 << n_vars
    if space <= count:
        return list(range(space))
    return [rng.randrange(space) for _ in range(count)]


@pytest.mark.parametrize("name", BENCHES)
def test_transfer_round_trip_preserves_hash_and_semantics(name):
    instance = load_benchmark(name, "bdd")
    mgr = instance.mgr
    rng = Random(f"transfer:{name}")
    bitset_mgr = BitsetBDD(mgr.var_names)
    back_mgr = BDD(mgr.var_names)
    for index, isf in enumerate(instance.outputs):
        for label, function in (("on", isf.on), ("dc", isf.dc)):
            dense = transfer(function, bitset_mgr)
            assert function_fingerprint(dense) == function_fingerprint(
                function
            ), f"{name}/o{index}.{label}: bdd->bitset hash drift"
            back = transfer(dense, back_mgr)
            assert function_fingerprint(back) == function_fingerprint(
                function
            ), f"{name}/o{index}.{label}: bitset->bdd hash drift"
            for minterm in sampled_minterms(mgr.n_vars, rng):
                expected = bool(function(minterm))
                assert bool(dense(minterm)) == expected
                assert bool(back(minterm)) == expected


@pytest.mark.parametrize("name", BENCHES)
def test_serializer_round_trip_across_backends(name):
    instance = load_benchmark(name, "bdd")
    mgr = instance.mgr
    rng = Random(f"serialize:{name}")
    for index, isf in enumerate(instance.outputs):
        payload = isf_to_payload(isf)
        # ISF fingerprints must be identical whichever backend re-dumps.
        dense_mgr = BitsetBDD(mgr.var_names)
        dense_isf = isf_from_payload(payload, dense_mgr)
        assert isf_fingerprint(dense_isf) == isf_fingerprint(isf), (
            f"{name}/o{index}: payload hash drift through bitset backend"
        )
        rebuilt = isf_from_payload(payload, backend="bdd")
        assert isf_fingerprint(rebuilt) == isf_fingerprint(isf)
        for minterm in sampled_minterms(mgr.n_vars, rng):
            assert dense_isf(minterm) == isf(minterm)
            assert rebuilt(minterm) == isf(minterm)


@pytest.mark.parametrize("name", BENCHES)
def test_single_function_dump_is_backend_invariant(name):
    instance = load_benchmark(name, "bdd")
    mgr = instance.mgr
    dense_mgr = BitsetBDD(mgr.var_names)
    for isf in instance.outputs:
        payload = dump(isf.on)
        dense = load(payload, dense_mgr)
        assert dump(dense) == payload
        assert load(dump(dense)).mgr is not mgr  # fresh manager rebuild
