"""Randomized differential oracle for the whole decomposition engine.

Every engine-produced decomposition is re-checked against an
*independent* brute-force oracle: the realized covers are evaluated
minterm by minterm (``contains_minterm`` — no BDDs in the recomposition
path) and combined with the operator's truth table, then compared to the
ground-truth bitmasks the random function was built from.  The oracle
also checks the don't-care contract (the realized quotient stays inside
the full quotient's flexibility; dc minterms of ``f`` are unconstrained)
and the approximation-error bounds each strategy promises.

Every case is additionally a **cross-backend** differential: the same
input is loaded into a bitset manager, the request is executed there,
and the results must be *identical* to the BDD backend's — same
canonical dump of ``g``, same ``h`` payload, same covers (pseudocube
lists), same metrics and candidate outcomes — which is what licenses
sharing ResultCache entries across backends.

Coverage: all ten Table I operators × three strategies × seven seeds
(210 seeded cases, 3–5 variables) plus a handful of 8-variable cases.
"""

import pytest

from repro.core.operators import OPERATORS, TABLE_I_ORDER, ApproximationKind
from repro.engine import Decomposer
from repro.engine import wire
from repro.utils.rng import make_rng
from tests.conftest import fresh_manager, isf_from_masks, load_into

#: Payload keys that identify a result (timings and manager stats are
#: run-dependent and excluded from identity by design).
IDENTITY_KEYS = ("op", "approximator", "minimizer", "g", "h", "g_cover",
                 "h_cover", "metadata", "literal_cost", "error_rate",
                 "verified", "candidates")


def result_identity(result) -> dict:
    payload = wire.result_to_payload(result)
    return {key: payload[key] for key in IDENTITY_KEYS}


def assert_backends_identical(result_bdd, f):
    """Re-run the request on ``f`` loaded as bitset; compare identities."""
    engine = Decomposer(
        approximator=result_bdd.request.approximator
        or result_bdd.approximator_name,
        minimizer=result_bdd.minimizer_name,
    )
    result_bit = engine.decompose(load_into(f, "bitset"), result_bdd.request.op)
    assert engine.stats["backend_bitset"] == 1
    assert result_identity(result_bit) == result_identity(result_bdd)

#: Strategy specs exercised against every operator.
STRATEGIES = ("expand-full", "expand-bounded:0.1", "random:0.3")

SEEDS = tuple(range(7))


def test_case_budget_meets_spec():
    """The sweep below runs >= 200 seeded random cases over all ten ops."""
    assert len(TABLE_I_ORDER) * len(STRATEGIES) * len(SEEDS) >= 200
    assert set(TABLE_I_ORDER) == set(OPERATORS)


def _random_case(op_name: str, strategy: str, seed: int, n_vars: int):
    """Deterministic random ISF (with its ground-truth masks)."""
    rng = make_rng(("differential", op_name, strategy, seed, n_vars))
    mgr = fresh_manager(n_vars)
    space = 1 << (1 << n_vars)
    on_bits = rng.randrange(space)
    # Sparser dc-set: intersection of two draws (~25% density).
    dc_bits = rng.randrange(space) & rng.randrange(space)
    on_bits &= ~dc_bits
    return isf_from_masks(mgr, on_bits, dc_bits), on_bits, dc_bits


def _oracle_check(result, on_bits: int, dc_bits: int, n_vars: int, strategy: str):
    """Brute-force recomposition + flexibility + error-bound checks."""
    decomposition = result.decomposition
    op = OPERATORS[result.op_name]
    g_cover = decomposition.g_cover
    h_cover = decomposition.h_cover
    assert g_cover is not None and h_cover is not None

    def f_value(m):  # 1, 0, or None (don't-care) from the ground truth
        if (dc_bits >> m) & 1:
            return None
        return (on_bits >> m) & 1

    mismatches = []
    error_count = 0
    eligible = {"on": 0, "off": 0, "care": 0}
    for m in range(1 << n_vars):
        g_bit = g_cover.contains_minterm(m)
        h_bit = h_cover.contains_minterm(m)

        # The realized h must be a completion of the full quotient.
        if decomposition.h.on(m):
            assert h_bit, f"h cover drops required on-set minterm {m}"
        elif not decomposition.h.dc(m):
            assert not h_bit, f"h cover asserts off-set minterm {m}"

        value = f_value(m)
        if value is None:
            continue  # dc: any recomposition is acceptable
        eligible["care"] += 1
        eligible["on" if value else "off"] += 1

        if int(op(g_bit, h_bit)) != value:
            mismatches.append(m)

        # Divisor-kind contract (Definitions 1-3) and error accounting.
        kind = op.approximation
        if kind is ApproximationKind.OVER_F:
            assert not (value and not g_bit), f"g not a 0->1 approx at {m}"
            error_count += int(g_bit and not value)
        elif kind is ApproximationKind.UNDER_F:
            assert not (not value and g_bit), f"g not a 1->0 approx at {m}"
            error_count += int(value and not g_bit)
        elif kind is ApproximationKind.OVER_COMPLEMENT:
            assert not (not value and not g_bit), f"g not a 0->1 approx of ~f at {m}"
            error_count += int(g_bit and value)
        elif kind is ApproximationKind.UNDER_COMPLEMENT:
            assert not (value and g_bit), f"g not a 1->0 approx of ~f at {m}"
            error_count += int(not value and not g_bit)
        else:  # ANY: both flip directions count
            error_count += int(bool(g_bit) != bool(value))

    assert mismatches == [], (
        f"{result.op_name}/{strategy}: recomposition differs from f on care"
        f" minterms {mismatches[:8]}"
    )
    assert result.verified

    # The engine's reported error rate must agree with the oracle's count.
    assert error_count == round(result.error_rate * (1 << n_vars))

    # Per-strategy error bounds.
    kind = op.approximation
    if strategy.startswith("random:"):
        rate = float(strategy.split(":")[1])
        if kind in (ApproximationKind.OVER_F, ApproximationKind.UNDER_COMPLEMENT):
            pool = eligible["off"]
        elif kind in (ApproximationKind.UNDER_F, ApproximationKind.OVER_COMPLEMENT):
            pool = eligible["on"]
        else:
            pool = eligible["care"]
        assert error_count <= min(pool, round(rate * pool))
    elif strategy.startswith("expand-bounded:"):
        budget = float(strategy.split(":")[1])
        assert result.error_rate <= budget + 1e-12


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("op_name", TABLE_I_ORDER)
def test_differential_oracle(op_name, strategy):
    engine = Decomposer(approximator=strategy, minimizer="spp")
    for seed in SEEDS:
        n_vars = 3 + seed % 3  # 3, 4, 5 variables
        f, on_bits, dc_bits = _random_case(op_name, strategy, seed, n_vars)
        result = engine.decompose(f, op_name)
        _oracle_check(result, on_bits, dc_bits, n_vars, strategy)
        assert_backends_identical(result, f)


@pytest.mark.parametrize("op_name", ("AND", "OR", "XOR", "NAND"))
def test_differential_oracle_eight_vars(op_name):
    """The sweep's upper arity: 8-variable random functions."""
    engine = Decomposer(approximator="random:0.1", minimizer="espresso")
    f, on_bits, dc_bits = _random_case(op_name, "random:0.1", seed=99, n_vars=8)
    result = engine.decompose(f, op_name)
    _oracle_check(result, on_bits, dc_bits, 8, "random:0.1")
    assert_backends_identical(result, f)


def test_differential_oracle_under_auto_search():
    """op='auto' winners must satisfy the same oracle (both backends)."""
    engine = Decomposer(approximator="expand-full", minimizer="spp")
    for seed in SEEDS[:3]:
        f, on_bits, dc_bits = _random_case("auto", "expand-full", seed, 4)
        result = engine.decompose(f, "auto")
        _oracle_check(result, on_bits, dc_bits, 4, "expand-full")
        assert_backends_identical(result, f)
