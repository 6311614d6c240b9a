"""Tests for the expansion-based 0->1 approximation (Section IV-A)."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.approx.expansion import (
    _cost_per_gain,
    _expanded,
    _expansion_candidates,
    _finalize,
    approximate_expand_bounded,
    approximate_expand_full,
)
from repro.bdd.expr import parse_expression
from repro.boolfunc.isf import ISF
from repro.core.quotient import validate_divisor
from repro.spp.pseudocube import Pseudocube, make_xor_factor
from repro.spp.spp_cover import SppCover
from repro.spp.synthesis import (
    _merge_fixpoint_masks,
    _spp_irredundant_masks,
    minimize_spp,
)
from tests.conftest import (
    fresh_manager,
    function_of_bits,
    isf_from_masks,
    manager_of_kind,
)

tt_bits = st.integers(min_value=1, max_value=2**16 - 1)


@given(tt_bits, st.sampled_from(["aggressive", "conservative"]))
@settings(max_examples=30, deadline=None)
def test_g_is_valid_over_approximation(on_bits, policy):
    mgr = fresh_manager(4)
    f = isf_from_masks(mgr, on_bits, 0)
    result = approximate_expand_full(f, policy=policy)
    validate_divisor(f, result.g, "AND")  # f_on <= g_on
    assert result.n_errors == (result.g & f.off).satcount()
    assert result.error_rate == result.n_errors / 16


@given(tt_bits)
@settings(max_examples=25, deadline=None)
def test_errors_confined_to_extended_dc(on_bits):
    mgr = fresh_manager(4)
    f = isf_from_masks(mgr, on_bits, 0)
    result = approximate_expand_full(f)
    # Every introduced error was explicitly moved to the dc-set first.
    assert (result.g & f.off) <= result.extended_dc


def test_figure2_expansion_choice_is_available():
    """The paper's expansion (drop x1 from x1(x3^x4)) is one of the
    candidates; the heuristic picks an expansion with the same cost."""
    mgr = fresh_manager(4)
    f = ISF.completely_specified(parse_expression(mgr, "(x1 | x2) & (x3 ^ x4)"))
    result = approximate_expand_full(f)
    # Two pseudoproducts, each expandable with cost 2; either choice gives
    # a single-pseudoproduct g with two literals and two errors.
    assert result.n_errors == 2
    assert result.g_cover.pseudoproduct_count() == 1
    assert result.g_cover.literal_count() == 2


def test_initial_cover_is_respected():
    mgr = fresh_manager(4)
    f = ISF.completely_specified(parse_expression(mgr, "(x1 | x2) & (x3 ^ x4)"))
    initial = minimize_spp(f)
    result = approximate_expand_full(f, initial=initial)
    assert result.initial_cover is initial


def test_rounds_monotonically_extend_dc():
    mgr = fresh_manager(5)
    f = isf_from_masks(mgr, 0x0F0F_3A5C, 0)
    one_round = approximate_expand_full(f, rounds=1)
    two_rounds = approximate_expand_full(f, rounds=2)
    assert one_round.extended_dc <= two_rounds.extended_dc
    assert two_rounds.n_errors >= 0
    validate_divisor(f, two_rounds.g, "AND")


@given(
    st.sampled_from(("bdd", "bitset", "reordered")),
    st.integers(4, 7),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_light_resynthesis_matches_reference_passes(kind, n_vars, seed):
    """The conservative policy's light resynthesis is the merge fixpoint
    and the irredundancy sweep of the expanded cover against the relaxed
    dc-set, no EXPAND and no exact engine."""
    mgr = manager_of_kind(kind, n_vars)
    rng = Random(seed)
    size = 1 << n_vars
    dc = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
    # Quarter-density on-sets: the exact engine, which minimize_spp runs
    # at 6 variables or fewer, takes seconds on dense 6-variable tables.
    on = rng.getrandbits(size) & rng.getrandbits(size) & ~dc
    assume(on)
    f = ISF(function_of_bits(mgr, on), function_of_bits(mgr, dc))
    initial = minimize_spp(f)
    extended_dc = mgr.false
    expanded_pcs = []
    for pc in initial:
        candidates = _expansion_candidates(pc, f.off, mgr)
        if candidates:
            _cost, _gain, factor = min(candidates, key=_cost_per_gain)
            pc = _expanded(pc, factor)
            extended_dc = extended_dc | (pc.to_function(mgr) & f.off)
        expanded_pcs.append(pc)
    expanded = SppCover(n_vars, expanded_pcs)
    result = _finalize(f, initial, extended_dc, expanded, "light")
    relaxed_dc = (f.dc | extended_dc) - f.on
    if (f.on | relaxed_dc).is_true:
        # A full interval takes the heuristic's one-item shortcut.
        expected = [Pseudocube.tautology(n_vars)]
    else:
        triples = [(pc.pos, pc.neg, pc.xors) for pc in expanded]
        kept = _spp_irredundant_masks(_merge_fixpoint_masks(triples), relaxed_dc, mgr)
        expected = [Pseudocube(n_vars, *triple) for triple in kept]
    assert result.g_cover.pseudocubes == expected


def test_bad_policy_rejected():
    mgr = fresh_manager(3)
    f = ISF.completely_specified(mgr.var("x1"))
    with pytest.raises(ValueError):
        approximate_expand_full(f, policy="reckless")


class TestBounded:
    @given(tt_bits, st.floats(min_value=0.0, max_value=0.5))
    @settings(max_examples=25, deadline=None)
    def test_budget_is_respected(self, on_bits, budget):
        mgr = fresh_manager(4)
        f = isf_from_masks(mgr, on_bits, 0)
        result = approximate_expand_bounded(f, error_budget=budget)
        assert result.extended_dc.satcount() <= int(budget * 16)
        validate_divisor(f, result.g, "AND")

    def test_zero_budget_gives_exact_g(self):
        mgr = fresh_manager(4)
        f = isf_from_masks(mgr, 0b0101_1010_0011_1100, 0)
        result = approximate_expand_bounded(f, error_budget=0.0)
        assert result.n_errors == 0
        assert result.g == f.on

    def test_invalid_budget_rejected(self):
        mgr = fresh_manager(3)
        f = ISF.completely_specified(mgr.var("x1"))
        with pytest.raises(ValueError):
            approximate_expand_bounded(f, error_budget=1.5)

    def test_larger_budget_allows_more_errors(self):
        mgr = fresh_manager(4)
        f = ISF.completely_specified(
            parse_expression(mgr, "(x1 | x2) & (x3 ^ x4)")
        )
        small = approximate_expand_bounded(f, error_budget=0.05)
        large = approximate_expand_bounded(f, error_budget=0.5)
        assert small.n_errors <= large.n_errors


def test_expansion_never_expands_to_tautology():
    # Even at maximum aggressiveness a pseudoproduct keeps >= 1 factor.
    mgr = fresh_manager(4)
    f = ISF.completely_specified(parse_expression(mgr, "x1"))
    result = approximate_expand_full(f, rounds=3)
    assert not result.g.is_true


def test_dc_of_f_is_preserved_in_resynthesis():
    mgr = fresh_manager(4)
    f = isf_from_masks(mgr, 0b0000_1111_0000_1100, 0b1111_0000_0000_0000)
    result = approximate_expand_full(f)
    # g may use f's dc freely but must cover the on-set.
    assert f.on <= result.g


@pytest.mark.parametrize("approximator", ["expand-full", "expand-bounded:0.05"])
def test_ranking_is_exact_on_a_2000_variable_declaration(approximator):
    # Over 2000 declared variables, minterm counts and 2^n leave the
    # float range; the expansion ranking and budget compare exactly.
    from repro.bdd.manager import BDD
    from repro.engine import Decomposer

    mgr = BDD([f"x{i}" for i in range(2000)])
    f = ISF.completely_specified(parse_expression(mgr, "x0 & x1 | x2"))
    result = Decomposer(approximator=approximator).decompose(f)
    assert result.verified
    assert result.decomposition.f is f


# ---------------------------------------------------------------------------
# The counting kernel: expansion_costs
# ---------------------------------------------------------------------------


def _reference_costs(pc, off, mgr):
    """What the kernel counts, by building each expansion's function."""
    return [
        (pc.drop_factor(kind, payload).to_function(mgr) & off).satcount()
        for kind, payload in pc.factors()
    ]


@st.composite
def pseudoproducts(draw, n_vars):
    """A 2-pseudoproduct over ``n_vars``: each variable free, a literal of
    either polarity, or paired with the next one in an XOR or XNOR."""
    order = draw(st.permutations(range(n_vars)))
    roles = draw(
        st.lists(
            st.sampled_from(("free", "pos", "neg", "xor", "xnor")),
            min_size=n_vars,
            max_size=n_vars,
        )
    )
    pos = neg = 0
    xors = set()
    index = 0
    while index < n_vars:
        var, role = order[index], roles[index]
        if role in ("xor", "xnor") and index + 1 < n_vars:
            xors.add(make_xor_factor(var, order[index + 1], int(role == "xor")))
            index += 2
            continue
        if role == "pos":
            pos |= 1 << var
        elif role == "neg":
            neg |= 1 << var
        index += 1
    return Pseudocube(n_vars, pos, neg, frozenset(xors))


@given(st.data(), st.sampled_from(("bdd", "reordered", "bitset")), st.integers(4, 8))
@settings(max_examples=200, deadline=None)
def test_expansion_costs_count_what_the_built_products_hold(data, kind, n_vars):
    mgr = manager_of_kind(kind, n_vars)
    if data.draw(st.booleans()):
        # A random table: the off-set depends on nearly every variable.
        off = function_of_bits(mgr, data.draw(st.integers(0, 2 ** (1 << n_vars) - 1)))
    else:
        # A union of pseudoproducts: levels the off-set skips, under the
        # pseudoproduct's literals and XOR tops alike.
        off = mgr.false
        for item in data.draw(st.lists(pseudoproducts(n_vars), max_size=4)):
            off = off | item.to_function(mgr)
    pc = data.draw(pseudoproducts(n_vars))
    costs = mgr.expansion_costs(off, pc.pos, pc.neg, pc.xors)
    assert costs == _reference_costs(pc, off, mgr)


@pytest.mark.parametrize(
    "pc_spec",
    [
        # Rows at the top, bottom and middle of the chain: the walk
        # descends all 1,200 levels between them.
        ((1 << 0) | (1 << 600), 1 << 1, ((2, 1199, 0),)),
        # Rows only at the top: below them the count is the chain's
        # satcount, read from the persistent table.
        ((1 << 0) | (1 << 4), 1 << 1, ((2, 3, 0),)),
    ],
)
def test_expansion_costs_are_exact_past_2_to_the_1024_on_a_deep_chain(pc_spec):
    from repro.bdd.manager import BDD
    from tests.test_bdd_deep import DEEP

    mgr = BDD([f"x{i}" for i in range(DEEP)])
    # Every minterm but the all-ones one: the complement of a chain one
    # node per level deep, far past the interpreter's recursion limit.
    off = ~mgr.cube({f"x{i}": 1 for i in range(DEEP)})
    pos, neg, xors = pc_spec
    pc = Pseudocube(DEEP, pos, neg, frozenset(make_xor_factor(*x) for x in xors))
    costs = mgr.expansion_costs(off, pc.pos, pc.neg, pc.xors)
    # Four factors, so each expansion holds 2^(n-3) minterms; only the
    # one that drops ~x1 takes in the all-ones minterm, which off lacks.
    # Factor order: positive literals, negative literals, XOR factors.
    size = 1 << (DEEP - 3)
    assert costs == [size, size, size - 1, size]
    assert costs == _reference_costs(pc, off, mgr)
    assert min(costs) > 2**1024


def test_expansion_candidates_build_no_node_and_leave_the_apply_tables_alone():
    mgr = fresh_manager(6)
    rng = Random(5)
    f = ISF.completely_specified(
        function_of_bits(mgr, rng.getrandbits(64) & rng.getrandbits(64))
    )
    off = f.off
    pcs = list(minimize_spp(f))
    pcs.append(Pseudocube(6, 0b000101, 0b100000, frozenset({make_xor_factor(1, 3, 1)})))

    def snapshot():
        tables = mgr.stats()["tables"]
        return mgr.node_count(), [
            (tables[name]["size"], tables[name]["hits"], tables[name]["misses"])
            for name in ("ite", "test")
        ]

    before = snapshot()
    candidates = [item for pc in pcs for item in _expansion_candidates(pc, off, mgr)]
    assert len(candidates) >= len(pcs)
    assert snapshot() == before


# ---------------------------------------------------------------------------
# Unbuilt candidates against the build-every-candidate reference
# ---------------------------------------------------------------------------


def _reference_candidates(pc, off, mgr):
    """Every single-factor expansion of ``pc``, built, with its
    ``(cost, gain)``: the candidate list before the ranking kept factor
    indexes instead of pseudoproducts."""
    if pc.factor_count < 2:
        return []
    costs = mgr.expansion_costs(off, pc.pos, pc.neg, pc.xors)
    candidates = []
    for (kind, payload), cost in zip(pc.factors(), costs):
        expanded = pc.drop_factor(kind, payload)
        candidates.append((cost, pc.literal_count - expanded.literal_count, expanded))
    return candidates


def _reference_expand_bounded(f, error_budget):
    """The bounded expansion that builds ``expanded & off`` for every
    ranked candidate it reaches and recounts ``|extended_dc|`` each time."""
    mgr = f.mgr
    spp = minimize_spp(f)
    off = f.off
    budget = int(Fraction(error_budget) * (1 << f.n_vars))
    ranked = []
    for index, pc in enumerate(spp):
        for cost, gain, expanded in _reference_candidates(pc, off, mgr):
            ranked.append((Fraction(gain, cost + 1), cost, index, expanded))
    ranked.sort(key=lambda item: -item[0])
    extended_dc = mgr.false
    chosen = {}
    for _ratio, _cost, index, expanded in ranked:
        if index in chosen:
            continue
        new_errors = (expanded.to_function(mgr) & off) - extended_dc
        introduced = new_errors.satcount()
        if extended_dc.satcount() + introduced > budget:
            continue
        extended_dc = extended_dc | new_errors
        chosen[index] = expanded
    expanded_cover = SppCover(
        spp.n_vars, [chosen.get(index, pc) for index, pc in enumerate(spp)]
    )
    return _finalize(f, spp, extended_dc, expanded_cover)


@given(
    st.sampled_from(("bdd", "bitset", "reordered")),
    st.integers(4, 7),
    st.integers(0, 2**32 - 1),
    st.sampled_from((0.0, 0.02, 0.05, 0.1, 0.25, 0.5)),
)
@settings(max_examples=40, deadline=None)
def test_unbuilt_candidates_rank_and_bound_as_the_built_reference(
    kind, n_vars, seed, budget
):
    mgr = manager_of_kind(kind, n_vars)
    rng = Random(seed)
    size = 1 << n_vars
    dc = rng.getrandbits(size) & rng.getrandbits(size) & rng.getrandbits(size)
    # Quarter-density on-sets keep the exact engine (6 variables or
    # fewer) fast, as in the light-resynthesis test above.
    on = rng.getrandbits(size) & rng.getrandbits(size) & ~dc
    assume(on)
    f = ISF(function_of_bits(mgr, on), function_of_bits(mgr, dc))
    for pc in minimize_spp(f):
        candidates = _expansion_candidates(pc, f.off, mgr)
        reference = _reference_candidates(pc, f.off, mgr)
        assert [(c, g, _expanded(pc, i)) for c, g, i in candidates] == reference
        if candidates:
            _cost, _gain, factor = min(candidates, key=_cost_per_gain)
            assert _expanded(pc, factor) == min(reference, key=_cost_per_gain)[2]
    result = approximate_expand_bounded(f, budget)
    expected = _reference_expand_bounded(f, budget)
    assert result.g_cover.pseudocubes == expected.g_cover.pseudocubes
    assert result.n_errors == expected.n_errors
    assert result.extended_dc == expected.extended_dc
