"""Shared low-level utilities: bit manipulation and deterministic RNG."""

from repro.utils.bitops import (
    bit_count,
    bit_indices,
    gray_code,
    iter_minterms,
    mask_for,
    minterm_to_assignment,
    popcount_below,
)
from repro.utils.rng import make_rng

__all__ = [
    "bit_count",
    "bit_indices",
    "gray_code",
    "iter_minterms",
    "make_rng",
    "mask_for",
    "minterm_to_assignment",
    "popcount_below",
]
