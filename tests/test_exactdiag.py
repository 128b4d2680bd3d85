import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

from pairsolve import (
    DimensionMismatch,
    FamilyKind,
    HamiltonianAction,
    IntegrableSpec,
    InvariantViolation,
    NoConvergence,
    PairingModel,
    PatternMismatch,
    SpectrumResult,
    TooLarge,
    build_integrable,
    build_reduced_bcs,
    dense_spectrum,
    enumerate_basis,
    iterative_ground,
    matrix_element,
)
from pairsolve import exactdiag
from pairsolve.exactdiag import (
    DENSE_THRESHOLD,
    eigensolver_entries,
    lowest_eigenpairs,
)


def random_model(rng, n):
    v1 = rng.normal(size=(n, n))
    v1 = 0.5 * (v1 + v1.T)
    np.fill_diagonal(v1, 0.0)
    v2 = rng.normal(size=(n, n))
    v2 = 0.5 * (v2 + v2.T)
    np.fill_diagonal(v2, 0.0)
    return PairingModel(eps=rng.normal(size=n), v1=v1, v2=v2)


def dense_by_elements(model, basis):
    """Independent dense build straight from single matrix elements."""
    h = np.empty((basis.dim, basis.dim))
    for a, s in enumerate(basis.patterns):
        for b, t in enumerate(basis.patterns):
            h[a, b] = matrix_element(model, int(s), int(t))
    return h


# Pinned spectrum of the four-level toy: eps = 1..4, constant hop -1.
TOY_N4_SPECTRUM = [
    4.5103478446361525,
    7.999999999999998,
    9.999999999999995,
    10.0,
    12.79186372036242,
    14.697788435001431,
]

# Pinned full 20-state spectrum of a fixed trigonometric parameter set
# (g = 0.17, epsilon = .3/.9/1.7/2.2/3.1/3.8, eta = .15/.6/1.0/1.45/1.9/2.35,
# three pairs), generated once from the closed-form couplings.
TRIG_N6_SPECTRUM = [
    4.102765847519379,
    4.170380477136098,
    5.579937120400721,
    5.676128271443529,
    6.552156519804019,
    6.920192194261758,
    7.442860777308163,
    8.635915589695198,
    8.749135569370763,
    9.003545561412253,
    9.575726299280332,
    9.912663606175059,
    11.036342980337526,
    11.647305642663603,
    11.895042970038237,
    12.419294416367947,
    14.188811736832188,
    14.383786328695363,
    16.862511788644237,
    19.370193588355416,
]

# Pinned ground energy of the twelve-level half-filled constant-pairing
# model with eps = 1..12 and G = 0.5 (924 states), from a dense solve.
BCS_N12_GROUND = 39.83917274845056


def test_matrix_element_two_levels():
    model = PairingModel(
        eps=np.array([-1.0, 1.0]),
        v1=np.array([[0.0, -1.0], [-1.0, 0.0]]),
        v2=np.zeros((2, 2)),
    )
    assert matrix_element(model, 0b01, 0b01) == -2.0
    assert matrix_element(model, 0b10, 0b10) == 2.0
    assert matrix_element(model, 0b01, 0b10) == -1.0
    assert matrix_element(model, 0b10, 0b01) == -1.0


def test_matrix_element_rejects_pair_count_mismatch():
    model = build_reduced_bcs([1.0, 2.0, 3.0], 0.5)
    with pytest.raises(PatternMismatch):
        matrix_element(model, 0b011, 0b001)


def test_matrix_element_vanishes_beyond_single_hop():
    model = random_model(np.random.default_rng(3), 6)
    # two pairs moved at once
    assert matrix_element(model, 0b000011, 0b001100) == 0.0
    assert matrix_element(model, 0b010101, 0b101010) == 0.0


def test_matrix_element_diagonal_with_constant_monopole():
    n, w = 8, 0.3
    v2 = np.full((n, n), w)
    np.fill_diagonal(v2, 0.0)
    eps = np.arange(1.0, n + 1.0)
    model = PairingModel(eps=eps, v1=np.zeros((n, n)), v2=v2)
    rng = np.random.default_rng(5)
    for m in (1, 3, 5):
        for _ in range(10):
            occ = rng.choice(n, size=m, replace=False)
            pattern = int(np.sum(1 << occ))
            expected = 2.0 * eps[occ].sum() + 4.0 * m * (m - 1) * w
            assert matrix_element(model, pattern, pattern) == pytest.approx(expected, rel=1e-14)


def test_matrix_element_symmetry():
    rng = np.random.default_rng(17)
    model = random_model(rng, 6)
    basis = enumerate_basis(6, 3)
    for _ in range(60):
        a, b = rng.integers(0, basis.dim, size=2)
        s, t = int(basis.patterns[a]), int(basis.patterns[b])
        assert matrix_element(model, s, t) == matrix_element(model, t, s)


def test_action_matches_single_elements():
    rng = np.random.default_rng(23)
    model = random_model(rng, 6)
    basis = enumerate_basis(6, 3)
    action = HamiltonianAction(model, basis)
    h_ref = dense_by_elements(model, basis)
    assert np.allclose(action.dense_matrix(), h_ref, atol=1e-13)
    x = rng.normal(size=basis.dim)
    assert np.allclose(action.apply(x), h_ref @ x, atol=1e-12)


@pytest.mark.parametrize(
    "n, m",
    [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (6, 0), (6, 6), (7, 3), (7, 4), (8, 4), (10, 8)],
)
def test_action_footprint_and_edge_sectors(n, m):
    # C holds min(M, N-M) unit entries per state, with int32 indices into
    # the smaller neighbouring sector: M - 1 pairs, or M + 1 above half
    # filling; (10, 8) must take the raising side, C(10, 9) = 10 << C(10, 7).
    # A general hop adds the level axis and K = v1; a constant one
    # (reduced BCS, or any model of at most two levels) holds K = [[g]]
    rng = np.random.default_rng(n * 11 + m)
    # build_reduced_bcs's model, which needs two levels to build
    v1 = np.full((n, n), -0.7)
    np.fill_diagonal(v1, 0.0)
    bcs = PairingModel(eps=rng.normal(size=n), v1=v1, v2=np.zeros((n, n)))
    basis = enumerate_basis(n, m)
    width = min(m, n - m)
    other = math.comb(n, width - 1) if width else 0
    f, i = np.dtype(float), np.dtype(np.int32)
    for model in (random_model(rng, n), bcs):
        action = HamiltonianAction(model, basis)
        expected = [(f, (basis.dim,)), (i, (basis.dim, width)), (i, (basis.dim + 1,))]
        levels = n if model is not bcs and n > 2 else 1
        if levels > 1:
            expected += [(f, (n, n))]
        else:
            expected += [(f, (1, 1))]
        arrays = [v for v in vars(action).values() if isinstance(v, np.ndarray)]
        assert sorted((str(a.dtype), a.shape) for a in arrays) == sorted(
            (str(d), shape) for d, shape in expected
        )
        # the CSR matrix shares the held index arrays rather than copying
        # them (an empty one, at M = 0 or M = N, shares no memory)
        (c,) = [v for v in vars(action).values() if scipy.sparse.issparse(v)]
        assert c.shape == (basis.dim, levels * other)
        assert np.array_equal(np.diff(c.indptr), np.full(basis.dim, width))
        assert np.all(c.data == 1.0)
        held = [a for a in arrays if a.dtype == i]
        for a in (c.indices, c.indptr):
            assert any(a.size == b.size and (np.shares_memory(a, b) or not a.size) for b in held)
        h_ref = dense_by_elements(model, basis)
        off = ~np.eye(basis.dim, dtype=bool)
        assert np.array_equal(action.dense_matrix()[off], h_ref[off])
        x = np.random.default_rng(m).normal(size=basis.dim)
        assert np.allclose(action.apply(x), h_ref @ x, rtol=0.0, atol=1e-12)
        with pytest.raises(DimensionMismatch):
            action.apply(np.ones(basis.dim + 1))
        with pytest.raises(DimensionMismatch):
            action.apply(np.ones((basis.dim, 1)))


@pytest.mark.parametrize("n, m", [(10, 4), (10, 7)])
def test_apply_multiplies_by_k_in_column_blocks(monkeypatch, n, m):
    # K multiplies C^T x _BLOCK entries, _BLOCK // len(K) columns, at a
    # time, in place; at 7 columns the neighbouring sector (120 states at
    # M = 4, 45 at M = 7) ends in a part block, and apply still gives the
    # one-block dense matrix's product and the matrix of single elements
    rng = np.random.default_rng(n + m)
    v1 = np.full((n, n), -0.7)
    np.fill_diagonal(v1, 0.0)
    bcs = PairingModel(eps=rng.normal(size=n), v1=v1, v2=np.zeros((n, n)))
    other = math.comb(n, min(m, n - m) - 1)
    assert other % 7 and 7 < other < exactdiag._BLOCK // n
    for model, levels in ((random_model(rng, n), n), (bcs, 1)):
        basis = enumerate_basis(n, m)
        action = HamiltonianAction(model, basis)
        h = action.dense_matrix()
        h_ref = dense_by_elements(model, basis)
        x = rng.normal(size=basis.dim)
        with monkeypatch.context() as patch:
            patch.setattr(exactdiag, "_BLOCK", 7 * levels)
            y = action.apply(x)
        assert np.allclose(y, h @ x, rtol=0.0, atol=1e-12)
        assert np.allclose(y, h_ref @ x, rtol=0.0, atol=1e-12)


def test_general_action_holds_less_than_one_level_by_sector_array():
    # beyond C (unit data and int32 index arrays) and the diagonal, a
    # general action keeps K = v1 and object headers; an (N, d) array of
    # doubles for the product with K, d = C(14, 6) = 3003, would not fit
    n, m = 14, 7
    model = random_model(np.random.default_rng(4), n)
    basis = enumerate_basis(n, m)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        action = HamiltonianAction(model, basis)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    (c,) = [v for v in vars(action).values() if scipy.sparse.issparse(v)]
    known = c.data.nbytes + c.indices.nbytes + c.indptr.nbytes + action.diagonal.nbytes
    assert 0 <= held - known < 8 * n * math.comb(n, m - 1)


def occupancy_slots_and_diagonal(model, basis, collapsed):
    """The slot table and diagonal from the (dim, N) occupancy matrix:
    the cleared levels by flatnonzero, their colex ranks by cumulative
    sums of binomials."""
    n, m = basis.n_levels, basis.n_pairs
    width = min(m, n - m)
    other = math.comb(n, width - 1) if width else 0
    binom = np.array([[math.comb(p, c) for c in range(width + 1)] for p in range(n)])
    k = np.arange(width)
    occ = (basis.patterns[:, None] >> np.arange(n)) & 1
    f = occ.astype(float)
    diagonal = 2.0 * f @ model.eps + 4.0 * np.einsum("ai,ai->a", f @ model.v2, f)
    pos = (np.flatnonzero(occ if m == width else 1 - occ) % n).reshape(len(occ), width)
    kept, moved = binom[pos, k + 1], binom[pos, k]
    rank = np.cumsum(kept, axis=1) - kept
    rank += np.cumsum(moved[:, ::-1], axis=1)[:, ::-1] - moved
    return (rank if collapsed else pos * other + rank), diagonal


@pytest.mark.parametrize("kind", ["reduced_bcs", "general"])
@pytest.mark.parametrize("n", [9, 10])
def test_action_slots_and_diagonal_match_the_occupancy_formula(n, kind):
    # every filling, with the hole side above half filling, M = 0 and
    # M = N; the general model has a non-zero v2, so its diagonal takes
    # the v2 product that reduced BCS skips
    rng = np.random.default_rng(n)
    if kind == "general":
        model = random_model(rng, n)
        assert np.any(model.v2)
    else:
        model = build_reduced_bcs(rng.normal(size=n), 0.6)
    for m in range(n + 1):
        basis = enumerate_basis(n, m)
        action = HamiltonianAction(model, basis)
        slots, diagonal = occupancy_slots_and_diagonal(model, basis, kind == "reduced_bcs")
        assert action._slots.shape == slots.shape
        assert np.array_equal(action._slots, slots)
        err = np.abs(action.diagonal - diagonal).max()
        assert err <= 1e-14 * np.abs(diagonal).max()


def test_action_rejects_level_mismatch():
    model = build_reduced_bcs([1.0, 2.0, 3.0, 4.0], 0.5)
    basis = enumerate_basis(6, 3)
    with pytest.raises(DimensionMismatch):
        HamiltonianAction(model, basis)


def test_dense_spectrum_non_interacting():
    model = build_reduced_bcs([1.0, 2.0, 3.0, 4.0], 0.0)
    res = dense_spectrum(model, enumerate_basis(4, 2))
    assert np.allclose(res.energies, [6.0, 8.0, 10.0, 10.0, 12.0, 14.0], atol=1e-12)
    assert res.method == "dense"
    assert res.residual < 1e-10


def test_dense_spectrum_four_level_toy():
    model = build_reduced_bcs([1.0, 2.0, 3.0, 4.0], 1.0)
    res = dense_spectrum(model, enumerate_basis(4, 2))
    assert np.allclose(res.energies, TOY_N4_SPECTRUM, atol=1e-12)
    assert res.ground_vector is not None
    assert np.linalg.norm(res.ground_vector) == pytest.approx(1.0, abs=1e-12)


def test_dense_spectrum_trigonometric_regression():
    spec = IntegrableSpec(
        g=0.17,
        epsilon=(0.3, 0.9, 1.7, 2.2, 3.1, 3.8),
        eta=(0.15, 0.6, 1.0, 1.45, 1.9, 2.35),
        family=FamilyKind.TRIGONOMETRIC,
    )
    res = dense_spectrum(build_integrable(spec), enumerate_basis(6, 3))
    assert np.allclose(res.energies, TRIG_N6_SPECTRUM, atol=1e-10)


def test_dense_spectrum_too_large():
    model = build_reduced_bcs(np.arange(1.0, 17.0), 0.5)
    basis = enumerate_basis(16, 8)
    assert basis.dim > DENSE_THRESHOLD
    with pytest.raises(TooLarge):
        dense_spectrum(model, basis)


@pytest.mark.parametrize("k", [1, 3, 20])
def test_iterative_ground_is_dense_spectrum_bitwise_on_a_dense_sector(k):
    # one dense path: the lowest k energies are the oracle's, bit for bit
    model = build_reduced_bcs(np.arange(1.0, 7.0), 0.3)
    basis = enumerate_basis(6, 3)  # 20 states
    res = iterative_ground(model, basis, k=k)
    assert res.method == "dense"
    assert res.energies.tobytes() == dense_spectrum(model, basis).energies[:k].tobytes()


def test_uniform_level_shift_moves_spectrum_rigidly():
    rng = np.random.default_rng(41)
    model = random_model(rng, 6)
    shift = 0.37
    shifted = PairingModel(eps=model.eps + shift, v1=model.v1, v2=model.v2)
    basis = enumerate_basis(6, 2)
    e0 = dense_spectrum(model, basis).energies
    e1 = dense_spectrum(shifted, basis).energies
    assert np.allclose(e1, e0 + 2 * 2 * shift, atol=1e-10)


def test_constant_monopole_moves_spectrum_rigidly():
    rng = np.random.default_rng(43)
    model = random_model(rng, 6)
    w = 0.21
    bump = np.full((6, 6), w)
    np.fill_diagonal(bump, 0.0)
    shifted = PairingModel(eps=model.eps, v1=model.v1, v2=model.v2 + bump)
    m = 3
    basis = enumerate_basis(6, m)
    e0 = dense_spectrum(model, basis).energies
    e1 = dense_spectrum(shifted, basis).energies
    assert np.allclose(e1, e0 + 4 * m * (m - 1) * w, atol=1e-10)


def test_level_permutation_invariance():
    rng = np.random.default_rng(47)
    model = random_model(rng, 7)
    perm = rng.permutation(7)
    permuted = PairingModel(
        eps=model.eps[perm],
        v1=model.v1[np.ix_(perm, perm)],
        v2=model.v2[np.ix_(perm, perm)],
    )
    basis = enumerate_basis(7, 3)
    e0 = dense_spectrum(model, basis).energies
    e1 = dense_spectrum(permuted, basis).energies
    assert np.allclose(e1, e0, atol=1e-9)


def test_rational_eta_equals_eps_reduces_to_constant_pairing():
    # eta == epsilon turns the rational family into the constant-coupling
    # model up to a rigid shift 2gM(M-1) - 2gM(N-1)
    n, m, g = 6, 3, -0.2
    eps = np.arange(1.0, n + 1.0)
    spec = IntegrableSpec(g=g, epsilon=eps, eta=eps, family=FamilyKind.RATIONAL)
    basis = enumerate_basis(n, m)
    e_int = dense_spectrum(build_integrable(spec), basis).energies
    e_bcs = dense_spectrum(build_reduced_bcs(eps, -2.0 * g), basis).energies
    shift = 2 * g * m * (m - 1) - 2 * g * m * (n - 1)
    assert np.allclose(e_int, e_bcs + shift, atol=1e-9)


def test_iterative_matches_dense():
    model = build_reduced_bcs(np.arange(1.0, 11.0), 0.7)
    basis = enumerate_basis(10, 5)  # 252 states, above the dense fallback of 3 pairs
    res_it = iterative_ground(model, basis, k=3, tol=1e-12)
    res_d = dense_spectrum(model, basis)
    assert res_it.method == "iterative"
    assert np.allclose(res_it.energies, res_d.energies[:3], rtol=1e-9, atol=1e-9)
    assert res_it.residual < 1e-6


def test_iterative_is_deterministic():
    model = build_reduced_bcs(np.arange(1.0, 11.0), 0.4)
    basis = enumerate_basis(10, 5)  # 252 states, above the dense fallback of 2 pairs
    a = iterative_ground(model, basis, k=2, tol=1e-11, seed=9)
    b = iterative_ground(model, basis, k=2, tol=1e-11, seed=9)
    assert a.method == "iterative"
    assert np.array_equal(a.energies, b.energies)


def test_iterative_small_sector_falls_back_to_dense():
    model = build_reduced_bcs(np.arange(1.0, 7.0), 0.5)
    res = iterative_ground(model, enumerate_basis(6, 3), k=2)
    assert res.method == "dense"
    basis = enumerate_basis(8, 1)
    res = iterative_ground(build_reduced_bcs(np.arange(1.0, 9.0), 0.5), basis, k=7)
    assert res.method == "dense"  # k too close to the dimension
    assert len(res.energies) == 7


def test_iterative_argument_validation():
    model = build_reduced_bcs([1.0, 2.0, 3.0, 4.0], 0.5)
    basis = enumerate_basis(4, 2)
    with pytest.raises(InvariantViolation):
        iterative_ground(model, basis, k=0)
    with pytest.raises(InvariantViolation):
        iterative_ground(model, basis, k=7)
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(InvariantViolation):
            iterative_ground(model, basis, tol=tol)
        with pytest.raises(InvariantViolation):
            lowest_eigenpairs(lambda x: x, 100, tol=tol, diagonal=np.ones(100))
    with pytest.raises(InvariantViolation):
        iterative_ground(model, basis, seed=-1)
    with pytest.raises(InvariantViolation):
        lowest_eigenpairs(lambda x: x, 100, tol=1e-10, seed=-1, diagonal=np.ones(100))


@pytest.mark.parametrize(
    "bad",
    [{"k": 0}, {"k": 253}, {"tol": math.nan}, {"tol": math.inf}, {"tol": 0.0}, {"seed": -1}],
    ids=["k=0", "k=dim+1", "tol=nan", "tol=inf", "tol=0", "seed=-1"],
)
def test_iterative_ground_checks_its_inputs_before_building_the_action(monkeypatch, bad):
    # refused before the action is built, not by lowest_eigenpairs after
    def built(*args):
        raise AssertionError("the action was built")

    monkeypatch.setattr(exactdiag, "HamiltonianAction", built)
    model = build_reduced_bcs(np.arange(1.0, 11.0), 0.4)
    with pytest.raises(InvariantViolation):
        iterative_ground(model, enumerate_basis(10, 5), **bad)  # 252 states


def cap_davidson(monkeypatch, steps):
    """Cap every Davidson solve at ``steps`` steps, in place of
    lowest_eigenpairs' 10 n."""
    davidson = exactdiag._davidson
    monkeypatch.setattr(exactdiag, "_davidson", lambda *args: davidson(*args[:-1], steps))


def test_ground_state_solve_needs_the_diagonal():
    # every iterative solve runs Davidson, which the diagonal preconditions
    for k in (1, 2):
        with pytest.raises(TypeError, match="diagonal"):
            lowest_eigenpairs(lambda x: x, 100, k, tol=1e-10)


def test_iterative_reports_non_convergence(monkeypatch):
    model = build_reduced_bcs(np.arange(1.0, 13.0), 0.5)
    basis = enumerate_basis(12, 6)  # 924 states
    cap_davidson(monkeypatch, 1)
    with pytest.raises(NoConvergence) as exc:
        iterative_ground(model, basis, tol=1e-15)
    err = exc.value
    assert "converge" in str(err)
    # one Davidson step: the Rayleigh quotient of the start vector
    assert len(err.energies) == 1
    assert err.energies[0] >= BCS_N12_GROUND
    assert err.residual > 0


@pytest.mark.parametrize("n", [65, 8834, 184_756])
def test_eigensolver_entries_counts_what_davidson_holds(n):
    # the largest count of doubles that _davidson, or a numpy function it
    # called (eigh, qr, stack), has allocated and it still holds, read at
    # each matvec through a restart.  The operator, 3 - (shift left) -
    # (shift right) on a ring, has a constant diagonal, so the correction
    # does not speed the iteration.
    rng = np.random.default_rng(n)
    diagonal = np.full(n, 3.0)
    here = tracemalloc.Filter(
        True, exactdiag.__file__, all_frames=True, domain=np.lib.tracemalloc_domain
    )
    held = []

    def matvec(x):
        snapshot = tracemalloc.take_snapshot().filter_traces([here])
        held.append(sum(t.size for t in snapshot.traces) // 8)
        return 3.0 * x - np.roll(x, 1) - np.roll(x, -1)

    cap = exactdiag._davidson_window(n, 1)
    steps = cap + 2
    tracemalloc.start(10)
    try:
        with pytest.raises(NoConvergence):
            exactdiag._davidson(matvec, diagonal, rng.normal(size=(1, n)), 1e-12, steps)
    finally:
        tracemalloc.stop()
    assert len(held) == steps
    # at least the subspace, its image and their projection, and no more
    # than the count the DMRG storage bound charges
    assert 2 * cap * n + cap**2 <= max(held) <= eigensolver_entries(n)


def test_non_convergence_pairs_energies_with_their_vectors(monkeypatch):
    # four steps for three pairs: the start block and one correction, so
    # the subspace is spanned by the four vectors H was applied to, and a
    # Rayleigh-Ritz on them gives the energies and the residuals of their
    # own vectors that NoConvergence must carry; here the middle pair's
    # residual is the worst
    model = build_reduced_bcs(np.arange(1.0, 11.0), 0.4)
    basis = enumerate_basis(10, 5)  # 252 states, above the dense fallback of 3 pairs
    action = HamiltonianAction(model, basis)
    seen = []

    def matvec(x):
        seen.append(x.copy())
        return action.apply(x)

    cap_davidson(monkeypatch, 4)
    with pytest.raises(NoConvergence) as exc:
        lowest_eigenpairs(matvec, basis.dim, 3, tol=1e-10, diagonal=action.diagonal)
    err = exc.value
    v = np.array(seen)
    hv = np.array([action.apply(x) for x in v])
    assert np.allclose(v @ v.T, np.eye(4), rtol=0.0, atol=1e-14)
    theta, y = np.linalg.eigh(0.5 * (v @ hv.T + hv @ v.T))
    theta, y = theta[:3], y[:, :3]
    residuals = np.linalg.norm(y.T @ hv - theta[:, None] * (y.T @ v), axis=1)
    assert np.argmax(residuals) == 1
    assert np.all(np.diff(err.energies) > 0)
    assert np.allclose(err.energies, theta, rtol=1e-13, atol=0.0)
    assert err.residual == pytest.approx(residuals.max(), rel=1e-10)
    # Ritz values lie above the eigenvalues they approximate
    assert np.all(err.energies >= dense_spectrum(model, basis).energies[:3])
    # iterative_ground starts from the same block and raises the same
    with pytest.raises(NoConvergence) as again:
        iterative_ground(model, basis, k=3)
    assert np.array_equal(again.value.energies, err.energies)
    assert again.value.residual == err.residual


@pytest.mark.parametrize(
    "n, k, method",
    [
        (64, 1, "dense"),
        (65, 1, "iterative"),
        (65, 63, "dense"),
        (65, 64, "dense"),
        (128, 2, "dense"),
        (129, 2, "iterative"),
        (384, 6, "dense"),
        (385, 6, "iterative"),
        (512, 9, "dense"),
        (513, 9, "iterative"),
        (513, 511, "iterative"),
        (513, 512, "dense"),
    ],
)
def test_lowest_eigenpairs_dense_crossover(n, k, method):
    rng = np.random.default_rng(n)
    diag = rng.permutation(n) - 10.0
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    a = (q * diag) @ q.T
    energies, vectors, used, residual, matvecs = lowest_eigenpairs(
        lambda x: a @ x, n, k, tol=1e-12, diagonal=np.diag(a).copy()
    )
    assert used == method
    # the reported residual is the solve's own, not a bound
    want = np.linalg.norm(a @ vectors - vectors * energies, axis=0).max()
    assert 0.0 < residual <= 1e-12 * np.abs(energies).max()
    assert abs(residual - want) <= n * np.finfo(float).eps * np.abs(diag).max()
    assert matvecs >= n if method == "dense" else matvecs > k
    assert vectors.shape == (n, k)
    assert np.allclose(energies, np.sort(diag)[:k], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("k", [1, 3, 8, 20])
def test_davidson_starts_at_the_lowest_diagonal_entries(monkeypatch, k):
    # each start row's unit entry sits where a stable argsort of the
    # diagonal puts its k lowest entries, ties at the k-th value taken
    # by index
    n = 600
    diagonal = np.random.default_rng(k).integers(0, 60, n).astype(float)
    assert np.count_nonzero(diagonal == np.sort(diagonal)[k - 1]) > 1
    starts = []

    def davidson(matvec, diagonal, start, tol, maxiter):
        starts.append(start)
        return np.zeros(k), np.zeros((n, k)), 0.0, 0

    monkeypatch.setattr(exactdiag, "_davidson", davidson)
    lowest_eigenpairs(lambda x: diagonal * x, n, k, tol=1e-10, diagonal=diagonal)
    want = np.argsort(diagonal, kind="stable")[:k]
    assert np.array_equal(np.argmax(starts[0], axis=1), want)


@pytest.mark.parametrize("k, ceiling", [(1, 449), (2, 560), (4, 795), (8, 1209), (9, 1303), (20, 5130)])
def test_davidson_many_pairs_where_the_diagonal_says_little(k, ceiling):
    # the crossover test's 513-state operator Q diag(lambda) Q^T: each
    # ceiling is the count of a restart from the k Ritz vectors alone, in
    # 24 + 2(k - 1) vectors, which at k = 20 ran out of its default 10 n
    # steps
    n = 513
    rng = np.random.default_rng(n)
    diag = rng.permutation(n) - 10.0
    q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    a = (q * diag) @ q.T
    pairs = lowest_eigenpairs(lambda x: a @ x, n, k, tol=1e-12, diagonal=np.diag(a).copy())
    assert pairs.method == "iterative"
    assert pairs.matvecs < ceiling
    assert np.allclose(pairs.energies, np.sort(diag)[:k], rtol=0.0, atol=1e-10)


def test_twelve_level_ground_energy_pinned():
    model = build_reduced_bcs(np.arange(1.0, 13.0), 0.5)
    basis = enumerate_basis(12, 6)
    dense = dense_spectrum(model, basis)
    assert dense.energies[0] == pytest.approx(BCS_N12_GROUND, abs=1e-9)
    it = iterative_ground(model, basis, tol=1e-12)
    assert it.energies[0] == pytest.approx(BCS_N12_GROUND, abs=1e-8)


def test_davidson_ground_residual_is_certified_afresh():
    # this 924-state sector takes more Davidson steps than the six-vector
    # window holds, so the solve restarts before it stops
    model = random_model(np.random.default_rng(1), 12)
    basis = enumerate_basis(12, 6)
    res = iterative_ground(model, basis, tol=1e-12)
    assert res.matvecs > 26
    x, e = res.ground_vector, res.energies[0]
    assert res.residual == np.linalg.norm(HamiltonianAction(model, basis).apply(x) - e * x)
    assert res.residual <= 1e-12 * abs(e)


def test_iterative_certifies_every_pair_afresh():
    # each of the k pairs gets one fresh ||H x - E x||, counted in matvecs;
    # this 924-state sector restarts before the three pairs converge
    model = random_model(np.random.default_rng(1), 12)
    basis = enumerate_basis(12, 6)
    res = iterative_ground(model, basis, k=3, tol=1e-12)
    action = HamiltonianAction(model, basis)
    pairs = lowest_eigenpairs(action.apply, basis.dim, 3, tol=1e-12, diagonal=action.diagonal)
    assert pairs.matvecs > 28
    fresh = [np.linalg.norm(action.apply(x) - e * x) for e, x in zip(pairs.energies, pairs.vectors.T)]
    assert np.array_equal(res.energies, pairs.energies)
    assert res.residual == max(fresh)
    assert res.matvecs == pairs.matvecs + 3
    assert res.residual <= 1e-12 * np.abs(res.energies).max()


def test_davidson_recurrence_residual_survives_restarts():
    # a shifted ring with a nearly constant diagonal: over a hundred
    # steps, so many restarts; the recurrence's residual stays within
    # roundoff of a fresh product's
    n = 400
    diagonal = 3.0 + 1e-3 * np.arange(n)

    def matvec(x):
        return diagonal * x - np.roll(x, 1) - np.roll(x, -1)

    pairs = lowest_eigenpairs(matvec, n, tol=1e-10, diagonal=diagonal)
    # more steps than four restarts of even a 24-vector subspace take;
    # restarting from the last step's Ritz vector too keeps the count
    # under 200 (205 from the Ritz vector alone, in 24 vectors)
    assert 4 * 24 < pairs.matvecs < 200
    x, e = pairs.vectors[:, 0], pairs.energies[0]
    fresh = np.linalg.norm(matvec(x) - e * x)
    assert abs(pairs.residual - fresh) <= pairs.matvecs * np.finfo(float).eps * 4.0


def test_spectrum_result_json_keys():
    model = build_reduced_bcs([1.0, 2.0], 0.3)
    res = dense_spectrum(model, enumerate_basis(2, 1))
    doc = res.to_json_dict()
    assert set(doc) == {"energies", "residual", "method", "n_levels", "n_pairs", "matvecs"}
    assert doc["n_levels"] == 2
    assert doc["n_pairs"] == 1
    assert doc["matvecs"] == 2
    assert all(isinstance(e, float) for e in doc["energies"])
    # an iterative solve reports the matvecs it spent
    model = build_reduced_bcs(np.arange(1.0, 9.0), 0.5)
    res = iterative_ground(model, enumerate_basis(8, 4), tol=1e-12)
    assert 1 < res.to_json_dict()["matvecs"] < 70


def test_two_level_ground_closed_form():
    # eps = -+1, hop -1: ground of [[-2,-1],[-1,2]] is -sqrt(5)
    model = PairingModel(
        eps=np.array([-1.0, 1.0]),
        v1=np.array([[0.0, -1.0], [-1.0, 0.0]]),
        v2=np.zeros((2, 2)),
    )
    res = dense_spectrum(model, enumerate_basis(2, 1))
    assert res.energies[0] == pytest.approx(-math.sqrt(5.0), abs=1e-12)


def run_fresh(code):
    """stdout of ``code`` run in a fresh interpreter on these sources."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(exactdiag.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_dmrg_and_dense_eigensolves_run_without_scipy(tmp_path):
    # scipy made unimportable: importing pairsolve, loading a model, a DMRG
    # run whose superblocks take Davidson, both eigensolver branches, and
    # the build and dmrg commands all run on numpy alone
    code = f"""
import sys
sys.modules["scipy"] = None
import numpy as np
import pairsolve
from pairsolve import cli, dmrg
model = pairsolve.load_model({{"type": "reduced_bcs", "eps": list(range(1, 17)), "G": 0.4}})
methods, solve = [], dmrg.lowest_eigenpairs

def recorded(*args, **kwargs):
    pairs = solve(*args, **kwargs)
    methods.append(pairs.method)
    return pairs

dmrg.lowest_eigenpairs = recorded
pairsolve.run_infinite(model, pairsolve.DmrgConfig(m=16, total_pairs=8))
assert set(methods) == {{"dense", "iterative"}}, methods
diagonal = np.arange(100.0)
branches = [
    solve(lambda x: diagonal[:n] * x, n, tol=1e-10, diagonal=diagonal[:n]).method
    for n in (64, 100)
]
assert branches == ["dense", "iterative"], branches
out = {str(tmp_path)!r}
assert cli.main(["build", "--bcs-g", "0.4", "--epsilon", "1,2,3,4,5,6,7,8,9,10,11,12",
                 "--out", out + "/m.json", "--no-timestamp"]) == 0
assert cli.main(["dmrg", "--model", out + "/m.json", "--pairs", "6", "--m", "16",
                 "--out", out + "/d.json", "--no-timestamp"]) == 0
"""
    run_fresh(code)


def test_iterative_ground_loads_scipy_sparse_alone():
    # the Hamiltonian action is the one user of scipy, and no eigensolve
    # needs scipy.linalg
    code = """
import sys
import pairsolve
model = pairsolve.build_reduced_bcs(range(1, 11), 0.4)
pairsolve.iterative_ground(model, pairsolve.enumerate_basis(10, 5))
print(*sorted(m for m in sys.modules if m in ("scipy.sparse", "scipy.linalg")
              or m.startswith("scipy.linalg.")))
"""
    assert run_fresh(code) == "scipy.sparse\n"
