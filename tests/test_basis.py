import tracemalloc

import numpy as np
import pytest

from pairsolve import InvariantViolation, TooLarge, enumerate_basis, sector_dimension
from pairsolve.basis import DEFAULT_MAX_DIM, enumerate_patterns


def test_sector_dimension():
    assert sector_dimension(2, 1) == 2
    assert sector_dimension(4, 2) == 6
    assert sector_dimension(16, 8) == 12870
    assert sector_dimension(12, 0) == 1
    assert sector_dimension(5, 5) == 1


def test_sector_dimension_bounds():
    with pytest.raises(InvariantViolation):
        sector_dimension(0, 0)
    with pytest.raises(InvariantViolation):
        sector_dimension(64, 1)  # int64 sign bit
    with pytest.raises(InvariantViolation):
        sector_dimension(4, 5)
    with pytest.raises(InvariantViolation):
        sector_dimension(4, -1)


def test_enumerate_patterns_small():
    got = enumerate_patterns(4, 2)
    assert got.tolist() == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]


def test_enumerate_patterns_properties():
    pats = enumerate_patterns(8, 3)
    assert len(pats) == 56
    assert (np.diff(pats) > 0).all()  # strictly ascending
    for p in pats:
        assert int(p).bit_count() == 3
        assert int(p) < (1 << 8)


def test_enumerate_patterns_edges():
    assert enumerate_patterns(6, 0).tolist() == [0]
    assert enumerate_patterns(6, 6).tolist() == [(1 << 6) - 1]
    assert enumerate_patterns(1, 1).tolist() == [1]


def gosper(n, m):
    """Reference: every n-bit pattern with m set bits, ascending, by the
    next-higher-same-popcount step."""
    if m == 0:
        return [0]
    out, v = [], (1 << m) - 1
    while v < 1 << n:
        out.append(v)
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r
    return out


@pytest.mark.parametrize(
    "n, m", [(n, m) for n in range(1, 13) for m in range(n + 1)] + [(20, 10), (30, 3)]
)
def test_enumerate_patterns_matches_gosper(n, m):
    got = enumerate_patterns(n, m)
    assert got.dtype == np.int64
    assert got.tolist() == gosper(n, m)


def test_basis_dim_and_alias():
    basis = enumerate_basis(7, 3)
    assert basis.dim == 35


def test_enumerate_basis_too_large():
    # C(30, 15) int64 patterns would take 1.2 GB; the budget refuses them
    # before any array is allocated
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge) as exc:
            enumerate_basis(30, 15)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "155117520" in str(exc.value)
    assert peak < 1 << 16
    # default budget allows anything at or under five million states
    assert sector_dimension(24, 12) < DEFAULT_MAX_DIM
    assert enumerate_basis(16, 8).dim == 12870
