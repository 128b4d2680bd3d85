"""Randomized differential tests of the exact-diagonalization layer.

Random general, integrable and reduced BCS models with up to ten levels,
at every filling, are checked against the matrix built one element at a
time with ``matrix_element`` and against exact invariants of the
spectrum, and reduced BCS also at every filling of eight and nine
levels; the Davidson ground states and four lowest states of sectors
above the dense fallback size are checked against the dense spectrum.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsolve import (
    FamilyKind,
    HamiltonianAction,
    IntegrableSpec,
    PairingModel,
    build_integrable,
    build_reduced_bcs,
    dense_spectrum,
    enumerate_basis,
    iterative_ground,
    matrix_element,
)


def general_model(rng, n):
    v1 = rng.normal(size=(n, n))
    v1 = 0.5 * (v1 + v1.T)
    np.fill_diagonal(v1, 0.0)
    v2 = rng.normal(size=(n, n))
    v2 = 0.5 * (v2 + v2.T)
    np.fill_diagonal(v2, 0.0)
    return PairingModel(eps=rng.normal(size=n), v1=v1, v2=v2)


def integrable_model(rng, n, family):
    # eta gaps in [0.1, 0.3] keep every |d_eta| in (0.1, pi), away from
    # degenerate and singular kernels
    eta = np.cumsum(rng.uniform(0.1, 0.3, size=n))
    spec = IntegrableSpec(
        g=float(rng.normal()),
        epsilon=np.sort(rng.normal(size=n)),
        eta=eta,
        family=family,
    )
    return build_integrable(spec)


def elementwise_matrix(model, basis):
    h = np.empty((basis.dim, basis.dim))
    for a, s in enumerate(basis.patterns):
        for b, t in enumerate(basis.patterns):
            h[a, b] = matrix_element(model, int(s), int(t))
    return h


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(2, 10),
    kind=st.sampled_from(["general", "reduced_bcs", *FamilyKind]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_action_agrees_with_matrix_elements_and_invariants(n, kind, seed, data):
    m = data.draw(st.integers(0, n), label="pairs")
    rng = np.random.default_rng(seed)
    if kind == "general":
        model = general_model(rng, n)
    elif kind == "reduced_bcs":
        # the constant hop collapses the action's level axis
        sign = data.draw(st.sampled_from([-1.0, 0.0, 1.0]), label="sign of G")
        model = build_reduced_bcs(rng.normal(size=n), sign * rng.uniform(0.1, 2.0))
    else:
        model = integrable_model(rng, n, kind)
    basis = enumerate_basis(n, m)
    action = HamiltonianAction(model, basis)

    # every off-diagonal entry is one v1 value, so the hop part is exact;
    # the diagonal sums the same terms in another order, so its rounding
    # is bounded by the sum of the terms' magnitudes
    ref = elementwise_matrix(model, basis)
    bound = elementwise_matrix(
        PairingModel(eps=np.abs(model.eps), v1=np.abs(model.v1), v2=np.abs(model.v2)),
        basis,
    )
    h = action.dense_matrix()
    off = ~np.eye(basis.dim, dtype=bool)
    assert np.array_equal(h[off], ref[off])
    assert np.all(np.abs(np.diag(h) - np.diag(ref)) <= 1e-13 * np.diag(bound))

    x = rng.normal(size=basis.dim)
    assert np.all(np.abs(action.apply(x) - ref @ x) <= 1e-12 * (bound @ np.abs(x)))

    dense = dense_spectrum(model, basis).energies
    k = min(3, basis.dim)
    iterative = iterative_ground(model, basis, k=k, tol=1e-12).energies
    assert np.allclose(iterative, dense[:k], rtol=1e-9, atol=1e-9)

    # a uniform level shift c moves every energy by 2Mc
    c = float(rng.normal())
    shifted = PairingModel(eps=model.eps + c, v1=model.v1, v2=model.v2)
    assert np.allclose(
        dense_spectrum(shifted, basis).energies, dense + 2 * m * c, atol=1e-9
    )

    # relabelling the levels leaves the spectrum unchanged
    perm = rng.permutation(n)
    permuted = PairingModel(
        eps=model.eps[perm],
        v1=model.v1[np.ix_(perm, perm)],
        v2=model.v2[np.ix_(perm, perm)],
    )
    assert np.allclose(dense_spectrum(permuted, basis).energies, dense, atol=1e-9)


@pytest.mark.parametrize("g", [-1.3, 0.0, 0.8])
@pytest.mark.parametrize("n", [8, 9])
def test_constant_hop_action_is_exact_at_every_filling(n, g):
    # the collapsed form g (P^T P - min(M, N-M)) at every M, above half
    # filling too: one v1 value per off-diagonal entry, and apply within
    # the rounding bound of the property test above
    model = build_reduced_bcs(np.random.default_rng(n).normal(size=n), g)
    for m in range(n + 1):
        basis = enumerate_basis(n, m)
        action = HamiltonianAction(model, basis)
        ref = elementwise_matrix(model, basis)
        off = ~np.eye(basis.dim, dtype=bool)
        assert np.array_equal(action.dense_matrix()[off], ref[off])
        x = np.random.default_rng(m).normal(size=basis.dim)
        bound = np.abs(ref) @ np.abs(x)
        assert np.all(np.abs(action.apply(x) - ref @ x) <= 1e-12 * bound)


def _davidson_cases():
    """Sectors above the dense fallback of one pair (64 states): random
    general models at N = 8, 10, 12 on seeds 0-2, and reduced BCS with
    degenerate levels (all equal, or 1, 2, 3 four times each) at
    attractive and repulsive G; each for the ground state and for the four
    lowest states, where a degenerate level needs more than one start
    direction (Davidson from 257 states on)."""
    cases = []
    for seed in range(3):
        for n in (8, 10, 12):
            for m in range(n + 1):
                if math.comb(n, m) > 64:
                    cases.append((("general", n, m, seed), f"general-n{n}-m{m}-seed{seed}"))
    for name in ("equal", "triple"):
        for g in (-1.0, -0.3, 0.3, 1.0):
            for m in range(2, 11):
                cases.append(((name, 12, m, g), f"bcs-{name}-m{m}-g{g}"))
    for k in (1, 4):
        for values, name in cases:
            yield pytest.param(*values, k, id=name if k == 1 else f"{name}-k{k}")


@pytest.mark.parametrize("kind, n, m, param, k", _davidson_cases())
def test_davidson_ground_matches_dense(kind, n, m, param, k):
    if kind == "general":
        model = general_model(np.random.default_rng(param), n)
    else:
        eps = np.ones(n) if kind == "equal" else np.repeat([1.0, 2.0, 3.0], 4)
        model = build_reduced_bcs(eps, param)
    basis = enumerate_basis(n, m)
    res = iterative_ground(model, basis, k=k, tol=1e-12)
    # up to 64 states per wanted pair the dense build takes fewer matvecs
    # than Davidson would, so Davidson runs only where it spends fewer
    if basis.dim <= 64 * min(k, 8):
        assert res.method == "dense"
    else:
        assert res.method == "iterative"
        assert 0 < res.matvecs < basis.dim
    # relative, except where an energy is below the models' unit scale:
    # equal levels at G = 1 and M = 10 have a ground energy of 0
    exact = dense_spectrum(model, basis).energies[:k]
    assert np.all(np.abs(res.energies - exact) <= 1e-10 * np.maximum(np.abs(exact), 1.0))
