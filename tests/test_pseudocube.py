"""Tests for 2-pseudoproducts (pseudocubes with 2-literal XOR factors)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cover.cube import Cube
from repro.spp.pseudocube import Pseudocube, XorFactor, make_xor_factor
from tests.conftest import fresh_manager


def pseudocube_strategy(n_vars=4):
    """Random valid pseudocubes: partition variables into roles."""

    @st.composite
    def build(draw):
        roles = draw(
            st.lists(
                st.sampled_from(["free", "pos", "neg", "pair"]),
                min_size=n_vars,
                max_size=n_vars,
            )
        )
        pos = neg = 0
        pair_pool = []
        for var, role in enumerate(roles):
            if role == "pos":
                pos |= 1 << var
            elif role == "neg":
                neg |= 1 << var
            elif role == "pair":
                pair_pool.append(var)
        xors = set()
        while len(pair_pool) >= 2:
            i = pair_pool.pop(0)
            j = pair_pool.pop(0)
            phase = draw(st.integers(min_value=0, max_value=1))
            xors.add(make_xor_factor(i, j, phase))
        return Pseudocube(n_vars, pos, neg, frozenset(xors))

    return build()


def minterm_set(pc: Pseudocube) -> set[int]:
    return {m for m in range(1 << pc.n_vars) if pc.contains_minterm(m)}


class TestXorFactor:
    def test_normalization(self):
        assert make_xor_factor(3, 1, 1) == XorFactor(1, 3, 1)
        assert make_xor_factor(1, 3, 2) == XorFactor(1, 3, 0)

    def test_same_variable_rejected(self):
        with pytest.raises(ValueError):
            make_xor_factor(2, 2, 1)

    def test_evaluate(self):
        factor = make_xor_factor(0, 1, 1)  # x1 ^ x2 (MSB positions)
        assert factor.evaluate(0b10_00, 4)
        assert factor.evaluate(0b01_00, 4)
        assert not factor.evaluate(0b11_00, 4)
        assert not factor.evaluate(0b00_00, 4)

    def test_to_function_matches_evaluate(self):
        mgr = fresh_manager(4)
        for phase in (0, 1):
            factor = make_xor_factor(1, 3, phase)
            fn = factor.to_function(mgr)
            for m in range(16):
                assert fn(m) == factor.evaluate(m, 4)


class TestValidity:
    def test_variable_reuse_across_xors_rejected(self):
        with pytest.raises(ValueError):
            Pseudocube(
                4,
                xors=frozenset(
                    {make_xor_factor(0, 1, 1), make_xor_factor(1, 2, 0)}
                ),
            )

    def test_variable_as_literal_and_xor_rejected(self):
        with pytest.raises(ValueError):
            Pseudocube(4, pos=0b0001, xors=frozenset({make_xor_factor(0, 1, 1)}))

    def test_contradictory_literals_rejected(self):
        with pytest.raises(ValueError):
            Pseudocube(4, pos=0b0001, neg=0b0001)


class TestSemantics:
    @given(pseudocube_strategy())
    @settings(max_examples=60, deadline=None)
    def test_minterm_count(self, pc):
        assert pc.minterm_count() == len(minterm_set(pc))

    @given(pseudocube_strategy())
    @settings(max_examples=60, deadline=None)
    def test_to_function_matches_contains(self, pc):
        mgr = fresh_manager(4)
        fn = pc.to_function(mgr)
        for m in range(16):
            assert fn(m) == pc.contains_minterm(m)

    def test_paper_example_pseudoproduct(self):
        # x1 (x3 ^ x4): the building block of Figure 2.
        pc = Pseudocube(4, pos=0b0001, xors=frozenset({make_xor_factor(2, 3, 1)}))
        assert pc.literal_count == 3
        assert pc.minterm_count() == 4
        assert minterm_set(pc) == {0b1001, 0b1010, 0b1101, 0b1110}

    def test_cube_roundtrip(self):
        cube = Cube.from_string("1-0-")
        pc = Pseudocube.from_cube(cube)
        assert pc.is_plain_cube
        assert pc.to_cube() == cube
        with_xor = Pseudocube(4, xors=frozenset({make_xor_factor(0, 1, 1)}))
        with pytest.raises(ValueError):
            with_xor.to_cube()


class TestMeasures:
    def test_literal_count_xor_is_two(self):
        pc = Pseudocube(
            4, pos=0b0001, xors=frozenset({make_xor_factor(1, 2, 0)})
        )
        assert pc.literal_count == 3
        assert pc.factor_count == 2
        assert pc.bound_mask == 0b0111

    def test_tautology(self):
        pc = Pseudocube.tautology(4)
        assert pc.literal_count == 0
        assert pc.minterm_count() == 16


class TestExpansions:
    @given(pseudocube_strategy())
    @settings(max_examples=50, deadline=None)
    def test_single_step_expansions_double_coverage(self, pc):
        base = minterm_set(pc)
        for expanded in pc.expansions():
            grown = minterm_set(expanded)
            assert base <= grown
            assert len(grown) == 2 * len(base)

    def test_drop_literal_and_xor(self):
        factor = make_xor_factor(2, 3, 1)
        pc = Pseudocube(4, pos=0b0001, xors=frozenset({factor}))
        no_literal = pc.drop_literal(0)
        assert no_literal.pos == 0 and no_literal.xors == {factor}
        no_xor = pc.drop_xor(factor)
        assert no_xor.pos == 0b0001 and not no_xor.xors

    def test_pair_literals_covers_both_patterns(self):
        pc = Pseudocube(4, pos=0b0001, neg=0b0010)  # x1 & ~x2
        paired = pc.pair_literals(0, 1)
        assert len(paired.xors) == 1
        (factor,) = paired.xors
        assert factor.phase == 1  # 1 ^ 0
        original = minterm_set(pc)
        mirrored = {m ^ 0b1100 for m in original}
        assert minterm_set(paired) == original | mirrored

    def test_pair_literals_requires_bound_vars(self):
        pc = Pseudocube(4, pos=0b0001)
        with pytest.raises(ValueError):
            pc.pair_literals(0, 1)

    def test_expression_rendering(self):
        names = ("x1", "x2", "x3", "x4")
        pc = Pseudocube(
            4, pos=0b0001, neg=0b0010, xors=frozenset({make_xor_factor(2, 3, 0)})
        )
        text = pc.to_expression(names)
        assert "x1" in text and "~x2" in text and "~(x3 ^ x4)" in text
        assert Pseudocube.tautology(4).to_expression(names) == "1"
