"""Tests for SOP covers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cover.cover import Cover
from repro.cover.cube import Cube
from tests.conftest import fresh_manager

cover_strategy = st.builds(
    lambda rows: Cover(4, [Cube.from_string("".join(r)) for r in rows]),
    st.lists(
        st.lists(st.sampled_from("01-"), min_size=4, max_size=4),
        min_size=0,
        max_size=6,
    ),
)


def brute_on_set(cover: Cover) -> set[int]:
    return {m for m in range(1 << cover.n_vars) if cover.contains_minterm(m)}


def test_empty_cover_is_constant_zero():
    cover = Cover(3, [])
    assert brute_on_set(cover) == set()
    assert cover.literal_count() == 0


def test_from_strings():
    cover = Cover.from_strings(["1--0", "01--"])
    assert cover.cube_count() == 2
    assert cover.n_vars == 4


def test_from_strings_empty_rejected():
    with pytest.raises(ValueError):
        Cover.from_strings([])


def test_arity_mismatch_rejected():
    with pytest.raises(ValueError):
        Cover(3, [Cube.from_string("10-1")])


@given(cover_strategy)
@settings(max_examples=60, deadline=None)
def test_to_function_matches_contains(cover):
    mgr = fresh_manager(4)
    function = cover.to_function(mgr)
    assert {m for m in function.minterms()} == brute_on_set(cover)
    assert cover.to_truthtable().bits == sum(
        1 << m for m in brute_on_set(cover)
    )


def test_single_cube_containment():
    cover = Cover.from_strings(["1---", "10--", "1011"])
    cleaned = cover.single_cube_containment()
    assert cleaned.cube_count() == 1
    assert cleaned.cubes[0].to_string() == "1---"


def test_single_cube_containment_keeps_incomparable():
    cover = Cover.from_strings(["1---", "0--1"])
    assert cover.single_cube_containment().cube_count() == 2


def test_expression_rendering():
    cover = Cover.from_strings(["1-0-", "---1"])
    names = ("a", "b", "c", "d")
    assert cover.to_expression(names) == "a & ~c | d"
    assert Cover(4, []).to_expression(names) == "0"


def test_copy_is_independent():
    cover = Cover.from_strings(["1---"])
    clone = cover.copy()
    clone.cubes.append(Cube.tautology(4))
    assert cover.cube_count() == 1
