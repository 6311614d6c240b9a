"""Tests for the expansion-based 0->1 approximation (Section IV-A)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.expansion import (
    approximate_expand_bounded,
    approximate_expand_full,
)
from repro.bdd.expr import parse_expression
from repro.boolfunc.isf import ISF
from repro.core.quotient import validate_divisor
from repro.spp.synthesis import minimize_spp
from tests.conftest import fresh_manager, isf_from_masks

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
