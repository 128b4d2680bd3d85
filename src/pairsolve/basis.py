"""Seniority-zero pair basis over N doubly degenerate levels.

Each basis state is a bit pattern: bit i set means level i holds a pair.
States with a fixed pair count are enumerated in ascending integer order.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvariantViolation, TooLarge

#: Largest basis enumerate_basis allocates.
DEFAULT_MAX_DIM = 5_000_000


def check_integers(**values):
    """Reject each value that is not an integer (numpy integers pass)
    with InvariantViolation."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise InvariantViolation(f"{name} must be an integer, got {value!r}") from None


def _check_sizes(n_levels: int, n_pairs: int):
    check_integers(n_levels=n_levels, n_pairs=n_pairs)
    if n_levels < 1 or n_levels > 63:
        # patterns are stored in int64; bit 63 would flip the sign
        raise InvariantViolation(f"n_levels must be in 1..63, got {n_levels}")
    if n_pairs < 0 or n_pairs > n_levels:
        raise InvariantViolation(
            f"n_pairs must be in 0..{n_levels}, got {n_pairs}"
        )


def sector_dimension(n_levels: int, n_pairs: int) -> int:
    """Number of seniority-zero states: C(n_levels, n_pairs)."""
    _check_sizes(n_levels, n_pairs)
    return math.comb(n_levels, n_pairs)


def enumerate_patterns(n_levels: int, n_pairs: int) -> np.ndarray:
    """All n_levels-bit patterns with n_pairs set bits, ascending.

    Built level by level in colex order: the c-pair patterns over levels
    0..l are those over 0..l-1 without level l, then the (c - 1)-pair
    ones with it, which are all larger.  Only pair counts that can still
    reach n_pairs are kept, so each level costs one vectorized copy and
    OR of arrays no larger than the sector.
    """
    sector_dimension(n_levels, n_pairs)
    empty = np.empty(0, dtype=np.int64)
    by_count = {0: np.zeros(1, dtype=np.int64)}
    for level in range(n_levels):
        low = max(0, n_pairs - (n_levels - level - 1))
        grown = {}
        for c in range(low, min(n_pairs, level + 1) + 1):
            without, below = by_count.get(c, empty), by_count.get(c - 1, empty)
            grown[c] = out = np.empty(len(without) + len(below), dtype=np.int64)
            out[: len(without)] = without
            np.bitwise_or(below, 1 << level, out=out[len(without) :])
        by_count = grown
    return by_count[n_pairs]


@dataclass(frozen=True)
class PairBasis:
    """Ordered basis of one (n_levels, n_pairs) sector.

    ``patterns`` is ascending, so the ordinal of a state never depends on
    how the basis was produced.
    """

    n_levels: int
    n_pairs: int
    patterns: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.patterns)


def enumerate_basis(n_levels: int, n_pairs: int) -> PairBasis:
    """Enumerate one sector, guarding against runaway dimensions.

    Raises TooLarge before allocating anything if C(n_levels, n_pairs)
    exceeds DEFAULT_MAX_DIM.
    """
    dim = sector_dimension(n_levels, n_pairs)
    if dim > DEFAULT_MAX_DIM:
        raise TooLarge(
            f"sector dimension C({n_levels},{n_pairs}) = {dim} exceeds "
            f"the budget of {DEFAULT_MAX_DIM} states"
        )
    return PairBasis(
        n_levels=n_levels,
        n_pairs=n_pairs,
        patterns=enumerate_patterns(n_levels, n_pairs),
    )
