import dataclasses
import math
import re
import threading
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pairsolve import (
    Block,
    DmrgConfig,
    EmptySector,
    FamilyKind,
    GrownBlock,
    InfeasibleTarget,
    InvariantViolation,
    NoConvergence,
    NotNormalized,
    OddN,
    PairingModel,
    build_reduced_bcs,
    dense_spectrum,
    enumerate_basis,
    history_csv,
    iterative_ground,
    matrix_element,
    memory_report,
    reduced_density,
    run_infinite,
    sector_dimension,
    summary_dict,
    target_pairs,
)
from pairsolve import dmrg, exactdiag
from pairsolve.dmrg import (
    DimensionMismatch,
    Modes,
    _plan,
    _Superblock,
    _truncate_with_basis,
    vacuum_block,
)
from pairsolve.errors import PairsolveError
from test_ed_differential import integrable_model
from test_exactdiag import cap_davidson

import dense_blocks


def toy_model():
    """Four levels eps = 1..4, constant hop -1."""
    return build_reduced_bcs([1.0, 2.0, 3.0, 4.0], 1.0)


def random_model(rng, n):
    v1 = rng.normal(size=(n, n)) * 0.3
    v1 = 0.5 * (v1 + v1.T)
    np.fill_diagonal(v1, 0.0)
    v2 = rng.normal(size=(n, n)) * 0.2
    v2 = 0.5 * (v2 + v2.T)
    np.fill_diagonal(v2, 0.0)
    return PairingModel(eps=np.sort(rng.normal(size=n)) * 2.0, v1=v1, v2=v2)


def exact_block(model, levels):
    """Untruncated block over ``levels``, every level bare."""
    return GrownBlock(vacuum_block(), levels, model)


def identity_states(block):
    """Every basis state of the block as a kept-state candidate, all of one
    weight, as ``_Superblock.schmidt`` gives them: per sector, (vectors,
    weights)."""
    return {s: (np.eye(d), np.full(d, 1.0 / block.dim)) for s, d in block.dims.items()}


def rows(block, s):
    """Basis indices of the block's sector s, in order."""
    return np.flatnonzero(block.sectors == s)


def dense_h(block):
    """The block Hamiltonian on the whole basis, from its sector blocks."""
    h = np.zeros((block.dim, block.dim))
    for s, hs in block.h.items():
        h[np.ix_(rows(block, s), rows(block, s))] = hs
    return h


def dense_modes(block, kind):
    """Every mode of ``kind`` on the whole basis, (r, dim, dim): the
    explicit parts from their sector edges on the core, then the bare
    level's part."""
    ops, span = block.modes[kind]
    core = block.sectors[:: 1 << block.n_bare]
    out = np.zeros((span.shape[1], len(core), len(core)))
    for s, op in ops.items():
        out[:, np.flatnonzero(core == s + 1 - kind)[:, None], np.flatnonzero(core == s)] = op
    if block.n_bare:
        site = np.array([[0.0, 0.0], [1.0, 0.0]]) if kind == 0 else np.diag([0.0, 2.0])
        eye = np.eye(len(core))
        out = np.array([np.kron(o, np.eye(2)) + c * np.kron(eye, site) for o, c in zip(out, span[-1])])
        out = out.reshape(span.shape[1], block.dim, block.dim)
    return out


def dense_w(block, new, kept):
    """The kept states of a truncation as the columns of a (block.dim,
    new.dim) matrix, in the new block's basis order."""
    w = np.zeros((block.dim, new.dim))
    for s, ws in kept.items():
        w[np.ix_(rows(block, s), rows(new, s))] = ws
    return w


def embed(op, hole, particle, x):
    """The (hole.dim, particle.dim) superblock state of sector vector x."""
    psi = np.zeros((hole.dim, particle.dim))
    for s, (u, v), b in zip(op.secs, op.blocks, op._split(x)):
        psi[np.ix_(rows(hole, s), rows(particle, op.target - s))] = u @ b @ v.T
    return psi


def entries(op, hole, particle, psi):
    """A dense superblock state as the entries ``_Superblock.restrict``
    takes: every entry of its target-sector blocks."""
    psi = np.reshape(psi, (hole.dim, particle.dim))
    out = []
    for s in op.secs:
        a, b = rows(hole, s), rows(particle, op.target - s)
        i, j = np.meshgrid(np.arange(len(a)), np.arange(len(b)), indexing="ij")
        out.append((s, i.ravel(), op.target - s, j.ravel(), psi[np.ix_(a, b)].ravel()))
    return out


def restrict(op, hole, particle, psi):
    """The sector vector of a dense superblock state."""
    return op.restrict(entries(op, hole, particle, psi))


def explicit_block(model, levels):
    """Untruncated block over ``levels`` storing every level's operators."""
    block = exact_block(model, levels)
    return _truncate_with_basis(block, identity_states(block), block.dim)[0]


def density_states(block, rho):
    """Reference kept-state candidates from a density matrix, laid out as
    ``_Superblock.schmidt`` gives its Schmidt vectors and weights: each
    pair sector's block of rho has its eigenvectors, in descending order of
    eigenvalue, as the columns of a matrix over the sector's states, and
    the eigenvalues."""
    states = {}
    for s in block.dims:
        idx = rows(block, s)
        vals, vecs = scipy.linalg.eigh(rho[np.ix_(idx, idx)])
        states[s] = vecs[:, ::-1], vals[::-1]
    return states


def all_weights(states):
    """The weights of every candidate, sector by sector."""
    return np.concatenate([states[s][1] for s in sorted(states)])


def check_candidates(block, states, paired):
    """Schmidt candidates per sector: every block sector present, each
    with a square orthonormal matrix over its own states (so nothing
    between different sectors), weights >= 0 summing to 1, and weight
    exactly 0 in every block sector outside ``paired``."""
    assert sorted(states) == sorted(block.dims)
    for s, (vectors, weights) in states.items():
        d = block.dims[s]
        assert vectors.shape == (d, d) and weights.shape == (d,)
        assert np.allclose(vectors.T @ vectors, np.eye(d), rtol=0, atol=1e-13)
        assert weights.min() >= 0.0
        assert s in paired or not weights.any()
    assert all_weights(states).sum() == pytest.approx(1.0, abs=1e-10)


#: Coefficients whose part outside a block's modes exceeds this fraction of
#: their norm are rejected.  The cutoff compounds over growth steps: true
#: couplings of N = 40 hyperbolic models leave up to 3.5e-13 outside.
_SPAN_TOL = 1e-10


def weighted(block, coeffs, kind):
    """sum_i coeffs[i] o_i over the block's levels, o the pair creation
    (kind 0) or number (kind 1) operator, formed from the block's modes;
    ValueError if the coefficients reach outside the modes' span."""
    c = np.asarray(coeffs, dtype=float)
    span = block.modes[kind].span
    y = span.T @ c
    if np.linalg.norm(c - span @ y) > _SPAN_TOL * np.linalg.norm(c):
        raise ValueError("coefficients reach outside the block's coupling modes")
    return np.tensordot(y, dense_modes(block, kind), 1)


def ground(hole, particle, model, target, config):
    """E0 and the dense (hole.dim, particle.dim) superblock ground state."""
    e0, op, x, _ = dmrg._solve_superblock(hole, particle, model, target, config)
    return e0, embed(op, hole, particle, x)


def first_blocks(model, config):
    """The blocks of the first iteration: its plan step grown from the vacuum."""
    return tuple(GrownBlock(vacuum_block(), levels, model) for levels in _plan(model, config)[0][:2])


def toy_hole_states():
    """The toy's exact hole half [1, 0] and its Schmidt states in the
    ground state of the half-filled superblock."""
    model = toy_model()
    hole = exact_block(model, [1, 0])
    particle = exact_block(model, [2, 3])
    _, op, x, _ = dmrg._solve_superblock(hole, particle, model, 2, DmrgConfig(m=4, total_pairs=2))
    return hole, op.schmidt(x)[0]


def sector_pure_density(block, rng):
    """A random density matrix supported on a random subset of the block's
    pair sectors, and its rank."""
    rho = np.zeros((block.dim, block.dim))
    rank = 0
    for s in np.unique(block.sectors):
        if rng.random() < 0.4 and rank:
            continue
        idx = np.flatnonzero(block.sectors == s)
        v = rng.normal(size=(len(idx), int(rng.integers(1, len(idx) + 1))))
        rho[np.ix_(idx, idx)] += v @ v.T
        rank += v.shape[1]
    return rho / np.trace(rho), rank


def random_block(model, levels, n_bare, rng):
    """Block over ``levels``: the leading ones kept by a random sector-pure
    density, so whole sectors can be missing, then ``n_bare`` bare ones.
    Also returns the block's basis as columns over ``block_patterns(levels)``:
    the kept-state matrix W of the exact core, times the bare patterns."""
    split = len(levels) - n_bare
    core = exact_block(model, levels[:split])
    rho, rank = sector_pure_density(core, rng)
    small, _, kept = _truncate_with_basis(core, density_states(core, rho), rank)
    w = dense_w(core, small, kept)
    return GrownBlock(small, levels[split:], model), np.kron(w, np.eye(1 << n_bare))


def truncated_block(model, levels, m, rng):
    """Block over ``levels``: all but the last kept to m states by a random
    sector-pure density, then the last one bare; and its basis, as in
    ``random_block``."""
    core = exact_block(model, levels[:-1])
    rho, _ = sector_pure_density(core, rng)
    small, _, kept = _truncate_with_basis(core, density_states(core, rho), m)
    return GrownBlock(small, levels[-1:], model), np.kron(dense_w(core, small, kept), np.eye(2))


def held_float_entries(obj) -> int:
    """Entries of the distinct float arrays that ``obj`` holds in its
    attributes, directly or in lists, tuples and dicts."""
    seen, total, todo = set(), 0, list(vars(obj).values())
    while todo:
        x = todo.pop()
        if isinstance(x, (list, tuple)):
            todo.extend(x)
        elif isinstance(x, dict):
            todo.extend(x.values())
        elif isinstance(x, np.ndarray) and x.dtype.kind == "f" and id(x) not in seen:
            seen.add(id(x))
            total += x.size
    return total


def level_ops(levels, basis):
    """Pair creation and number of every level of a block whose states are
    the columns ``basis`` over ``block_patterns(levels)``."""
    ops = [pattern_ops(levels, l) for l in levels]
    return [
        np.array([basis.T @ op[kind] @ basis for op in ops]) for kind in (0, 1)
    ]


def kronecker_superblock(hole, hole_basis, particle, particle_basis, model):
    """Dense superblock Hamiltonian from per-level Kronecker products."""
    h = np.kron(dense_h(hole), np.eye(particle.dim)) + np.kron(np.eye(hole.dim), dense_h(particle))
    bh, nh = level_ops(hole.levels, hole_basis)
    bp, n_p = level_ops(particle.levels, particle_basis)
    for a, i in enumerate(hole.levels):
        for c, j in enumerate(particle.levels):
            h += model.v1[i, j] * (np.kron(bh[a], bp[c].T) + np.kron(bh[a].T, bp[c]))
            h += 2.0 * model.v2[i, j] * np.kron(nh[a], n_p[c])
    return h


def mode_counts(block):
    """(r1, r2): the block's raise and number mode counts."""
    return tuple(modes.span.shape[1] for modes in block.modes)


def pattern_ops(levels, level):
    """Pair creation and number for ``level`` on the ``block_patterns`` basis."""
    pats = block_patterns(levels)
    index = {p: a for a, p in enumerate(pats)}
    b = np.zeros((len(pats), len(pats)))
    n = np.zeros_like(b)
    for c, p in enumerate(pats):
        if p >> level & 1:
            n[c, c] = 2.0
        else:
            b[index[p | 1 << level], c] = 1.0
    return b, n


def block_patterns(levels):
    """Bit patterns of an exact block grown over ``levels`` in order."""
    L = len(levels)
    pats = []
    for a in range(1 << L):
        p = 0
        for i, lvl in enumerate(levels):
            if (a >> (L - 1 - i)) & 1:
                p |= 1 << lvl
        pats.append(p)
    return pats


# Ground energy of the toy at half filling, from the dense solver.
TOY_GROUND = 4.5103478446361525

# Eigenvalues of the hole-side density matrix of the toy ground state,
# from an explicit partial trace over the two particle levels.
TOY_RHO_EIGS = [
    0.6166991540479093,
    0.3680378126062647,
    0.015196462550496769,
    6.657079532945698e-05,
]


def test_single_level_block():
    model = toy_model()
    b = GrownBlock(vacuum_block(), [2], model)
    assert b.levels == (2,)
    assert b.dim == 2
    assert b.sectors.tolist() == [0, 1]
    assert np.array_equal(dense_h(b), np.diag([0.0, 6.0]))
    # constant pairing, no monopole term: one raise mode, no number mode
    assert mode_counts(b) == (1, 0)
    assert np.array_equal(weighted(b, [1.0], 0), np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        weighted(b, [1.0], 1)
    assert b.n_bare == 1
    # h's two 1 x 1 sector blocks; the one-sector vacuum core has no raise
    # edge, and the bare level stores nothing
    assert b.stored_entries() == 1 + 1


def test_vacuum_block():
    b = vacuum_block()
    assert b.dim == 1
    assert b.levels == ()
    assert b.sectors.tolist() == [0]
    assert b.h[0][0, 0] == 0.0


def test_grow_block_sectors_and_dim():
    model = toy_model()
    g = GrownBlock(exact_block(model, [0]), [1], model)
    assert isinstance(g, GrownBlock)
    assert g.dim == 4
    assert g.levels == (0, 1)
    assert g.sectors.tolist() == [0, 1, 1, 2]


def test_grown_hamiltonian_matches_single_elements():
    rng = np.random.default_rng(5)
    model = random_model(rng, 6)
    levels = [3, 0, 4]
    b = exact_block(model, levels)
    h = dense_h(b)
    pats = block_patterns(levels)
    for a, s in enumerate(pats):
        for c, t in enumerate(pats):
            if b.sectors[a] == b.sectors[c]:
                assert h[a, c] == pytest.approx(matrix_element(model, s, t), abs=1e-12)
            else:
                assert h[a, c] == 0.0


def test_grown_block_operators_match_materialized():
    # two explicit core levels on the pattern basis, each its own mode, and
    # two bare levels added; three levels stay outside, so four levels
    # keep three modes of each kind
    model = random_model(np.random.default_rng(3), 7)
    core_levels, levels = [0, 1], [0, 1, 2, 4]
    exact = exact_block(model, core_levels)
    own = [np.array([pattern_ops(core_levels, l)[k] for l in core_levels]) for k in (0, 1)]
    edges = [
        {s: ops[:, rows(exact, s + 1 - k)[:, None], rows(exact, s)] for s in exact.dims if s + 1 - k in exact.dims}
        for k, ops in enumerate(own)
    ]
    core = Block(core_levels, exact.sectors, exact.h, [Modes(ops, np.eye(2)) for ops in edges])
    g = GrownBlock(core, [2, 4], model)
    assert g.levels == tuple(levels)
    # level 2 joins explicitly, level 4 stays bare
    assert (g.dim, g.n_bare) == (16, 1)
    assert mode_counts(g) == (3, 3)
    h = dense_h(g)
    pats = block_patterns(levels)
    for a, s in enumerate(pats):
        for c, t in enumerate(pats):
            if g.sectors[a] == g.sectors[c]:
                assert h[a, c] == pytest.approx(matrix_element(model, s, t), abs=1e-12)
    for outside in (3, 5, 6):
        coeffs = model.v1[levels, outside]
        want = sum(c * pattern_ops(levels, l)[0] for c, l in zip(coeffs, levels))
        assert np.allclose(weighted(g, coeffs, 0), want, rtol=0, atol=1e-13)
        coeffs = 2.0 * model.v2[levels, outside]
        want = sum(c * pattern_ops(levels, l)[1] for c, l in zip(coeffs, levels))
        assert np.allclose(weighted(g, coeffs, 1), want, rtol=0, atol=1e-13)
    for kind in (0, 1):
        span = g.modes[kind].span
        beyond = np.linalg.svd(span, full_matrices=True)[0][:, -1]
        with pytest.raises(ValueError):
            weighted(g, beyond, kind)


def test_grown_block_stores_less_than_materialized():
    model = build_reduced_bcs(np.arange(1.0, 9.0), 0.5)
    core = explicit_block(model, [0, 1, 2])
    g = GrownBlock(core, [3], model)
    # exactly h plus the explicit part of one raise mode on the core's
    # sector edges; core.h is dropped
    assert mode_counts(core) == mode_counts(g) == (1, 0)
    h_entries = sum(h.size for h in g.h.values())
    assert g.stored_entries() == h_entries + core.per_level_entries() == h_entries + 3 + 9 + 3
    assert g.stored_entries() < g.dim**2 + 2 * len(g.levels) * g.dim**2


def test_grow_block_rejects_duplicate_level():
    model = toy_model()
    with pytest.raises(InvariantViolation):
        GrownBlock(exact_block(model, [1]), [1], model)
    with pytest.raises(InvariantViolation):
        exact_block(model, [2, 2])


def test_per_level_entry_convention():
    model = toy_model()
    b = explicit_block(model, [0, 1])  # 2 levels, sectors of 1, 2 and 1
    # one raise mode, held once on its edges 0 -> 1 and 1 -> 2
    assert b.per_level_entries() == 2 + 2
    assert b.stored_entries() == (1 + 4 + 1) + 4  # h's sector blocks plus the mode
    model = random_model(np.random.default_rng(4), 6)
    b = explicit_block(model, [0, 1])
    # two raise modes on the edges and two number modes on the sectors
    assert mode_counts(b) == (2, 2)
    assert b.per_level_entries() == 2 * 4 + 2 * 6
    assert b.stored_entries() == 6 + 2 * 4 + 2 * 6


def test_target_pairs():
    assert target_pairs(3, 100, 50) == 3
    assert target_pairs(50, 100, 50) == 50
    assert target_pairs(2, 8, 2) == 1
    assert target_pairs(4, 8, 1) == 1
    assert target_pairs(1, 8, 7) == 2  # floor of the clip window
    for k in range(1, 9):
        assert target_pairs(k, 16, 8) == k  # half filling is linear
    assert target_pairs(2, 12, 0) == 0
    assert target_pairs(2, 12, 12) == 4  # everything in view is filled
    with pytest.raises(InvariantViolation):
        target_pairs(0, 8, 4)
    with pytest.raises(InvariantViolation):
        target_pairs(5, 8, 4)


def test_config_validation():
    with pytest.raises(InvariantViolation):
        DmrgConfig(m=1, total_pairs=2)
    with pytest.raises(InfeasibleTarget):
        DmrgConfig(m=4, total_pairs=-1)
    for tol in (0.0, -1e-10, math.nan, math.inf):
        with pytest.raises(InvariantViolation):
            DmrgConfig(m=4, total_pairs=2, superblock_tol=tol)
    with pytest.raises(InvariantViolation):
        DmrgConfig(m=4, total_pairs=2, seed=-1)


NON_INTEGERS = [
    ("dmrg", "m", 8.0),
    ("dmrg", "total_pairs", 4.0),
    ("dmrg", "seed", 1.5),
    ("ed", "k", 2.0),
    ("ed", "seed", 0.5),
    ("basis", "n_levels", 10.0),
    ("basis", "n_pairs", 5.0),
    ("dmrg", "m", None),
    ("dmrg", "total_pairs", None),
    ("dmrg", "seed", None),
    ("ed", "k", None),
    ("basis", "n_levels", None),
    ("sector", "n_pairs", None),
]


@pytest.mark.parametrize("solver, name, value", NON_INTEGERS)
def test_non_integer_sizes_and_seeds_are_rejected_up_front(solver, name, value):
    # rejected before the solve starts, not with a TypeError from inside
    # it; numpy integers of the same value pass, and None has none
    model = build_reduced_bcs(np.arange(1.0, 11.0), 0.4)

    def run(v):
        if solver == "dmrg":
            return run_infinite(model, DmrgConfig(**{"m": 8, "total_pairs": 4, name: v}))
        if solver in ("basis", "sector"):
            sizes = {"n_levels": 10, "n_pairs": 5, name: v}
            return enumerate_basis(**sizes) if solver == "basis" else sector_dimension(**sizes)
        return exactdiag.iterative_ground(model, enumerate_basis(10, 5), **{name: v})

    message = re.escape(f"{name} must be an integer, got {value!r}")
    with pytest.raises(InvariantViolation, match=message) as exc:
        run(value)
    assert exc.value.exit_code == 2
    if value is not None:
        run(np.int64(int(value)))


def test_init_blocks_half_filling():
    hole, particle = first_blocks(toy_model(), DmrgConfig(m=4, total_pairs=2))
    assert hole.levels == (1,)  # highest level below the Fermi index
    assert particle.levels == (2,)
    assert hole.dim == particle.dim == 2


def test_init_blocks_respects_eps_order():
    model = PairingModel(
        eps=np.array([3.0, 1.0, 2.0, 4.0]),
        v1=toy_model().v1,
        v2=np.zeros((4, 4)),
    )
    hole, particle = first_blocks(model, DmrgConfig(m=4, total_pairs=2))
    assert hole.levels == (2,)  # second lowest eps
    assert particle.levels == (0,)


def test_init_blocks_extremes():
    model = toy_model()
    hole, particle = first_blocks(model, DmrgConfig(m=4, total_pairs=0))
    assert hole.dim == 1 and hole.levels == ()
    assert particle.levels == (0, 1)
    hole, particle = first_blocks(model, DmrgConfig(m=4, total_pairs=4))
    assert hole.levels == (3, 2)
    assert particle.dim == 1


def test_init_blocks_rejects_bad_sizes():
    model = build_reduced_bcs([1.0, 2.0, 3.0], 0.5)
    with pytest.raises(OddN):
        first_blocks(model, DmrgConfig(m=4, total_pairs=1))
    with pytest.raises(InfeasibleTarget):
        first_blocks(toy_model(), DmrgConfig(m=4, total_pairs=5))


def test_plan_invariants():
    rng = np.random.default_rng(7)
    for n in range(2, 17, 2):
        eps = rng.permutation(n).astype(float)
        model = PairingModel(eps=eps, v1=np.zeros((n, n)), v2=np.zeros((n, n)))
        order = list(np.argsort(eps))
        for pairs in range(n + 1):
            plan = _plan(model, DmrgConfig(m=4, total_pairs=pairs))
            assert len(plan) == n // 2
            holes = [l for new_h, _, _ in plan for l in new_h]
            parts = [l for _, new_p, _ in plan for l in new_p]
            assert sorted(holes + parts) == list(range(n))
            assert holes == order[:pairs][::-1]  # down from the Fermi index
            assert parts == order[pairs:]  # up from it
            for k, (new_h, new_p, target) in enumerate(plan, 1):
                assert len(new_h) + len(new_p) == 2
                assert target == target_pairs(k, n, pairs)
                if k > 1 and len(new_h) == len(new_p) == 1:
                    # the warm start embeds increments 0, 1 and 2 only
                    assert 0 <= target - plan[k - 2][2] <= 2


def test_superblock_two_level_closed_form():
    model = PairingModel(
        eps=np.array([-1.0, 1.0]),
        v1=np.array([[0.0, -1.0], [-1.0, 0.0]]),
        v2=np.zeros((2, 2)),
    )
    hole = exact_block(model, [0])
    particle = exact_block(model, [1])
    e0, psi = ground(hole, particle, model, 1, DmrgConfig(m=2, total_pairs=1))
    assert e0 == pytest.approx(-math.sqrt(5.0), abs=1e-12)
    assert psi.shape == (2, 2)
    # support confined to the one-pair sector
    assert psi[0, 0] == 0.0
    assert psi[1, 1] == 0.0
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_superblock_empty_sector():
    model = toy_model()
    hole = exact_block(model, [1])
    particle = exact_block(model, [2])
    with pytest.raises(EmptySector):
        dmrg._solve_superblock(hole, particle, model, 3, DmrgConfig(m=2, total_pairs=2))


def test_superblock_matches_dense_sector():
    # exact half blocks of the toy reproduce the dense ground state
    model = toy_model()
    hole = exact_block(model, [1, 0])
    particle = exact_block(model, [2, 3])
    e0, op, x, _ = dmrg._solve_superblock(hole, particle, model, 2, DmrgConfig(m=4, total_pairs=2))
    assert e0 == pytest.approx(TOY_GROUND, abs=1e-10)
    # the hole side's Schmidt weights are its density matrix's eigenvalues
    lam = np.sort(all_weights(op.schmidt(x)[0]))[::-1]
    assert np.allclose(lam, TOY_RHO_EIGS, atol=1e-9)


def test_superblock_reports_non_convergence(monkeypatch):
    model = build_reduced_bcs(np.arange(1.0, 13.0), 0.5)
    hole = exact_block(model, [5, 4, 3, 2, 1, 0])
    particle = exact_block(model, [6, 7, 8, 9, 10, 11])
    config = DmrgConfig(m=64, total_pairs=6, superblock_tol=1e-15)
    cap_davidson(monkeypatch, 1)
    with pytest.raises(NoConvergence):
        dmrg._solve_superblock(hole, particle, model, 6, config)


def test_solve_record_reports_matvecs_residual_and_overlap():
    model = build_reduced_bcs(np.arange(1.0, 13.0), 0.5)
    hole = exact_block(model, [5, 4, 3, 2, 1, 0])
    particle = exact_block(model, [6, 7, 8, 9, 10, 11])
    config = DmrgConfig(m=64, total_pairs=6, superblock_tol=1e-4)
    e0, op, x, cold = dmrg._solve_superblock(hole, particle, model, 6, config)
    assert cold["residual"] == pytest.approx(np.linalg.norm(op.matvec(x) - e0 * x), rel=1e-8)
    assert 0.0 < cold["residual"] <= config.superblock_tol * abs(e0)
    assert cold["warm_start_overlap"] == 0.0
    # started from the exact ground state: one Davidson step, at overlap 1
    vals, vecs = np.linalg.eigh(np.array([op.matvec(e) for e in np.eye(op.sector_dim)]))
    guess = entries(op, hole, particle, -3.0 * embed(op, hole, particle, vecs[:, 0]))
    e_warm, _, _, warm = dmrg._solve_superblock(hole, particle, model, 6, config, guess)
    assert warm["matvecs"] == 1 < cold["matvecs"]
    assert warm["warm_start_overlap"] == pytest.approx(1.0, abs=1e-12)
    assert e_warm == pytest.approx(vals[0], rel=1e-14)
    mixed = entries(op, hole, particle, embed(op, hole, particle, 0.6 * vecs[:, 0] + 0.8 * vecs[:, 1]))
    _, _, _, record = dmrg._solve_superblock(hole, particle, model, 6, config, mixed)
    assert record["warm_start_overlap"] == pytest.approx(0.6, abs=1e-4)


def test_non_convergence_carries_best_estimate_and_iteration(monkeypatch):
    # the case above: one Davidson step from the lowest-diagonal start
    # leaves that vector's Rayleigh quotient and residual
    model = build_reduced_bcs(np.arange(1.0, 13.0), 0.5)
    hole = exact_block(model, [5, 4, 3, 2, 1, 0])
    particle = exact_block(model, [6, 7, 8, 9, 10, 11])
    config = DmrgConfig(m=64, total_pairs=6, superblock_tol=1e-15)
    cap_davidson(monkeypatch, 1)
    with pytest.raises(NoConvergence) as exc:
        dmrg._solve_superblock(hole, particle, model, 6, config)
    op = _Superblock(hole, particle, model, 6)
    noise = exactdiag._DAVIDSON_START_NOISE
    v0 = noise * np.random.default_rng(config.seed).standard_normal(op.sector_dim)
    v0[np.argmin(op.diagonal)] += 1.0
    v0 /= np.linalg.norm(v0)
    hv = op.matvec(v0)
    theta = v0 @ hv
    assert exc.value.energies.tolist() == [pytest.approx(theta, rel=1e-13)]
    assert exc.value.residual == pytest.approx(np.linalg.norm(hv - theta * v0), rel=1e-10)
    # from the start, iterations 1-3 solve sectors of dim <= 64 densely and
    # iteration 4 (dim 70) is the first Davidson solve
    with pytest.raises(NoConvergence) as exc:
        run_infinite(model, config)
    err = exc.value
    assert str(err).startswith("iteration 4: eigensolver did not converge within 1 steps")
    assert len(err.energies) == 1
    op = _Superblock(exact_block(model, [5, 4, 3, 2]), exact_block(model, [6, 7, 8, 9]), model, 4)
    exact = np.linalg.eigvalsh(np.array([op.matvec(e) for e in np.eye(op.sector_dim)]))[0]
    assert op.sector_dim == 70 and err.energies[0] >= exact
    assert err.residual > config.superblock_tol * abs(err.energies[0])


def test_embed_guess_uses_the_local_ground_state():
    # one kept state per side: the guess is the two new levels' state alone
    model = PairingModel(
        eps=np.array([0.0, -1.0, 2.0]),
        v1=np.array([[0.0, 0.3, 0.2], [0.3, 0.0, -0.7], [0.2, -0.7, 0.0]]),
        v2=np.full((3, 3), 0.4) - 0.4 * np.eye(3),
    )
    one = {(0, 0): np.ones(1)}
    hole, particle = exact_block(model, [1]), exact_block(model, [2])

    def dense(delta):
        psi = np.zeros((2, 2))
        for sh, rh, sp, rp, values in dmrg._embed_guess(one, model, hole, particle, delta):
            psi[rows(hole, sh)[rh], rows(particle, sp)[rp]] = values
        return psi

    vecs = np.linalg.eigh([[-2.0, -0.7], [-0.7, 4.0]])[1]
    guess = dense(1)
    assert abs(guess[1, 0]) > abs(guess[0, 1])
    assert abs(guess[1, 0] * vecs[0, 0] + guess[0, 1] * vecs[1, 0]) == pytest.approx(1.0, abs=1e-15)
    assert guess[0, 0] == guess[1, 1] == 0.0
    assert dense(0).tolist() == [[1.0, 0.0], [0.0, 0.0]]
    assert dense(2).tolist() == [[0.0, 0.0], [0.0, 1.0]]


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_blocked_superblock_matches_kronecker_products(n, seed, data):
    # random level splits, sectors missing on either side, every target;
    # sector dims <= 64 take the eigensolver's dense path, larger ones the
    # Davidson iteration in the block-Hamiltonian eigenbasis.  Every example
    # checks the general model and, for n >= 2, each integrable family.
    rng = np.random.default_rng(seed)
    for kind in ["general", *FamilyKind][: 1 if n == 1 else None]:
        model = random_model(rng, n) if kind == "general" else integrable_model(rng, n, kind)
        _check_blocked_superblock(model, n, rng, data)


def _check_blocked_superblock(model, n, rng, data):
    levels = [int(x) for x in rng.permutation(n)]
    split = data.draw(st.integers(0, n), label="hole levels")
    blocks = []
    for side in (levels[:split], levels[split:]):
        n_bare = data.draw(st.integers(0, min(2, len(side))), label="bare levels")
        blocks.append(random_block(model, side, n_bare, rng))
    (hole, hole_basis), (particle, particle_basis) = blocks
    h = kronecker_superblock(hole, hole_basis, particle, particle_basis, model)
    config = DmrgConfig(m=2, total_pairs=0, superblock_tol=1e-12)
    for target in range(n + 1):
        mask = np.add.outer(hole.sectors, particle.sectors).ravel() == target
        if not mask.any():
            with pytest.raises(EmptySector):
                _Superblock(hole, particle, model, target)
            continue
        op = _Superblock(hole, particle, model, target)
        x = rng.normal(size=op.sector_dim)
        want = restrict(op, hole, particle, h @ embed(op, hole, particle, x).ravel())
        assert np.linalg.norm(op.matvec(x) - want) <= 1e-12 * np.linalg.norm(want)
        sector = h[np.ix_(mask, mask)]
        exact = np.linalg.eigvalsh(sector)[0]
        e0, psi = ground(hole, particle, model, target, config)
        assert e0 == pytest.approx(exact, rel=1e-10, abs=1e-10)
        # the iterative stopping rule, on the operator the solver saw (the
        # matvec check above ties it to the reference); a dense solve has
        # eigh's backward error, within LAPACK's test threshold of 30 n eps |H|
        bound = config.superblock_tol * abs(e0)
        if op.sector_dim <= 64:
            scale = op.sector_dim * np.finfo(float).eps * np.linalg.norm(sector, 2)
            bound = max(bound, 30.0 * scale)
        x = restrict(op, hole, particle, psi)
        assert np.linalg.norm(op.matvec(x) - e0 * x) <= bound


@pytest.mark.parametrize("n_explicit,n_bare", [(3, 0), (3, 1), (2, 2), (0, 2)])
def test_truncation_projects_level_operators(n_explicit, n_bare):
    rng = np.random.default_rng(10 * n_explicit + n_bare)
    model = random_model(rng, 6)
    levels = [4, 0, 5, 2, 1][: n_explicit + n_bare]
    block, basis = random_block(model, levels, n_bare, rng)
    assert block.n_bare == min(n_bare, 1)
    rho, rank = sector_pure_density(block, rng)
    new, _, kept = _truncate_with_basis(block, density_states(block, rho), rank)
    assert new.levels == block.levels and new.n_bare == 0
    assert mode_counts(new) == mode_counts(block)
    for kind, ops in enumerate(level_ops(levels, basis @ dense_w(block, new, kept))):
        span = block.modes[kind].span
        assert np.array_equal(new.modes[kind].span, span)
        want = np.tensordot(span.T, ops, 1)
        assert np.allclose(dense_modes(new, kind), want, rtol=0, atol=1e-13)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(1, 10),
    kind=st.sampled_from(["general", *FamilyKind]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_modes_reproduce_outside_couplings(n, kind, seed, data):
    # a block over a random part of the levels, its core truncated by a
    # sector-pure density, forms every coupling to a level outside it
    # exactly, and nothing outside its modes
    rng = np.random.default_rng(seed)
    if kind == "general":
        model = random_model(rng, n)
    else:
        model = integrable_model(rng, max(n, 2), kind)
    levels = [int(x) for x in rng.permutation(model.n_levels)]
    split = data.draw(st.integers(0, len(levels)), label="block levels")
    n_bare = data.draw(st.integers(0, min(2, split)), label="bare levels")
    block, basis = random_block(model, levels[:split], n_bare, rng)
    ops = level_ops(block.levels, basis)
    outside = levels[split:]
    for mode, v in ((0, model.v1), (1, 2.0 * model.v2)):
        r = mode_counts(block)[mode]
        assert r <= min(split, len(outside))
        for o in outside:
            coeffs = v[block.levels, o]
            want = np.tensordot(coeffs, ops[mode], 1)
            assert np.allclose(weighted(block, coeffs, mode), want, rtol=0, atol=1e-12)
        if r < split:
            span = block.modes[mode].span
            beyond = rng.normal(size=split)
            beyond -= span @ (span.T @ beyond)
            with pytest.raises(ValueError):
                weighted(block, beyond, mode)


def check_reference(real, ref):
    """A sector-keyed block against the whole-basis reference: the same
    basis, h to 1e-13 of its scale, and every level's operator sum_q
    span[i, q] (mode q), which does not depend on the modes' basis."""
    assert real.levels == ref.levels and np.array_equal(real.sectors, ref.sectors)
    assert np.abs(dense_h(real) - ref.h).max() <= 1e-13 * max(1.0, np.abs(ref.h).max())
    for kind in (0, 1):
        mine = np.tensordot(real.modes[kind].span, dense_modes(real, kind), 1)
        assert np.abs(mine - dense_blocks.level_operators(ref, kind)).max() <= 1e-13


@pytest.mark.parametrize("kind", ["bcs", "general", *FamilyKind])
def test_sector_blocks_match_the_whole_basis_formulas(kind):
    # every grown and truncated block of N/2 steps, on the path of a run:
    # one-level and (general, 3 pairs in 10 levels) two-level growth, and
    # truncation to the run's Schmidt states
    rng = np.random.default_rng(25)
    if kind == "bcs":
        model, pairs = build_reduced_bcs(np.arange(1.0, 11.0), 0.4), 5
    elif kind == "general":
        model, pairs = random_model(rng, 10), 3
    else:
        model, pairs = integrable_model(rng, 10, kind), 5
    config = DmrgConfig(m=8, total_pairs=pairs, superblock_tol=1e-12)
    blocks = [vacuum_block()] * 2
    refs = [dense_blocks.vacuum()] * 2
    for k, (*new, target) in enumerate(_plan(model, config), 1):
        for side, levels in enumerate(new):
            if levels:
                blocks[side] = GrownBlock(blocks[side], levels, model)
                refs[side] = dense_blocks.grow(refs[side], levels, model)
            check_reference(blocks[side], refs[side])
        _, op, x, _ = dmrg._solve_superblock(*blocks, model, target, config)
        psi = embed(op, *blocks, x)
        *states, sigma = op.schmidt(x)
        ws = []
        for side in (0, 1):
            small, _, kept = _truncate_with_basis(blocks[side], states[side], config.m)
            ws.append(dense_w(blocks[side], small, kept))
            refs[side] = dense_blocks.truncate(refs[side], ws[-1])
            blocks[side] = small
            check_reference(blocks[side], refs[side])
        # the state on the kept states is the singular values on the pairs
        # of kept Schmidt states, as run_infinite carries it
        carried = np.zeros((blocks[0].dim, blocks[1].dim))
        for s, sv in sigma.items():
            n = min(len(sv), *(np.count_nonzero(b.sectors == t) for b, t in zip(blocks, (s, target - s))))
            carried[rows(blocks[0], s)[:n], rows(blocks[1], target - s)[:n]] = sv[:n]
        assert np.abs(ws[0].T @ psi @ ws[1] - carried).max() <= 1e-14
    assert max(b.dim for b in blocks) == 8 and k == 5


def test_one_step_at_m_128_forms_no_whole_basis_array(monkeypatch):
    # reduced BCS, N = 18: two blocks of eight levels kept to 128 states
    # grow to 256; growth, superblock set-up, the Schmidt decomposition
    # and both truncations each pass through less transient memory than
    # one 256 x 256 float array, and hold none
    seen = record_truncations(monkeypatch)
    model = build_reduced_bcs(np.arange(1.0, 19.0), 0.3)
    config = DmrgConfig(m=128, total_pairs=9, superblock_tol=1e-12)
    run_infinite(model, config)
    (hole, particle), (new_h, new_p, target) = [kept for _, kept in seen[14:16]], _plan(model, config)[8]
    assert hole.dim == particle.dim == 128
    whole = 8 * 256 * 256

    def traced(step):
        tracemalloc.start()
        try:
            out = step()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < whole
        return out

    hole, particle = traced(lambda: (GrownBlock(hole, new_h, model), GrownBlock(particle, new_p, model)))
    assert hole.dim == particle.dim == 256
    op = traced(lambda: _Superblock(hole, particle, model, target))
    x = dmrg._solve_superblock(hole, particle, model, target, config)[2]
    states = traced(lambda: op.schmidt(x))
    for block, side in zip((hole, particle), states):
        traced(lambda: _truncate_with_basis(block, side, config.m))
    for held in (hole, particle, op, *states[:2]):
        assert largest_float_array(vars(held) if hasattr(held, "__dict__") else held) < 256 * 256


def largest_float_array(obj) -> int:
    """Size of the largest float array reachable from ``obj`` through
    lists, tuples and dicts."""
    if isinstance(obj, np.ndarray):
        return obj.size if obj.dtype.kind == "f" else 0
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return max((largest_float_array(x) for x in obj), default=0)
    return 0


def record_truncations(monkeypatch):
    """Collect (grown, truncated) block pairs from the runs that follow."""
    seen = []
    real = dmrg._truncate_with_basis

    def spy(block, states, m):
        out = real(block, states, m)
        seen.append((block, out[0]))
        return out

    monkeypatch.setattr(dmrg, "_truncate_with_basis", spy)
    return seen


def test_reduced_bcs_blocks_keep_one_raise_mode(monkeypatch):
    # the constant coupling has rank 1 and there is no monopole term
    seen = record_truncations(monkeypatch)
    model = build_reduced_bcs(np.arange(1.0, 41.0), 0.3)
    m = 32
    result = run_infinite(model, DmrgConfig(m=m, total_pairs=20))
    assert len(seen) == 2 * 20
    for grown, kept in seen:
        assert mode_counts(grown) == mode_counts(kept) == (1, 0)
        # held on an m-state core's sector edges: at most m^2 / 4
        assert 0 < kept.per_level_entries() <= m**2 // 4
    # the two blocks' raise edges at their largest, as the run saw them
    sides = zip(seen[::2], seen[1::2])  # (grown, kept) of the hole, then of the particle
    peak = max(h.per_level_entries() + p.per_level_entries() for pair in sides for h, p in zip(*pair))
    assert peak <= result.per_level_peak_entries <= 2 * m**2 // 4


def test_general_blocks_keep_at_most_their_coupling_rank(monkeypatch):
    seen = record_truncations(monkeypatch)
    rng = np.random.default_rng(12)
    for n in (4, 8, 12):
        model = random_model(rng, n)
        for pairs in (1, n // 2, n - 1):
            seen.clear()
            run_infinite(model, DmrgConfig(m=8, total_pairs=pairs))
            assert len(seen) == n
            for grown, kept in seen:
                size = len(grown.levels)
                for block in (grown, kept):
                    assert max(mode_counts(block)) <= min(size, n - size)


def full_rank_superblock():
    """A 16-level general model split 8 | 8 into two blocks of 32 states,
    each with 8 raise and 8 number modes, and its 221-state sector of 6
    pairs: the two blocks, their bases and the operator."""
    rng = np.random.default_rng(0)
    model = random_model(rng, 16)
    sides = ([7, 6, 5, 4, 3, 2, 1, 0], list(range(8, 16)))
    hole, particle = (truncated_block(model, side, 16, rng) for side in sides)
    return model, hole, particle, _Superblock(hole[0], particle[0], model, 6)


def test_stacked_superblock_matches_kronecker_products_at_full_rank():
    # blocks of <= 10 levels above carry few modes; here every one of the
    # 8 raise and 8 number terms is stacked on each edge, and the sector,
    # above the dense crossover, has 4 hop edges
    model, (hole, hole_basis), (particle, particle_basis), op = full_rank_superblock()
    assert mode_counts(hole) == mode_counts(particle) == (8, 8)
    assert op.sector_dim == 221 and len(op.hops) == 4 and len(op.numbers) == 5
    ix = np.ix_(hole.levels, particle.levels)
    for kind, (coupling, terms) in enumerate(
        ((model.v1[ix], op.raise_terms), (2.0 * model.v2[ix], op.number_terms))
    ):
        modes = hole.modes[kind].span.T @ coupling @ particle.modes[kind].span
        assert len(terms) == np.linalg.matrix_rank(modes) == 8
    h = kronecker_superblock(hole, hole_basis, particle, particle_basis, model)
    rng = np.random.default_rng(1)
    for x in [*rng.normal(size=(3, op.sector_dim)), *np.eye(op.sector_dim)[[0, 100, 220]]]:
        want = restrict(op, hole, particle, h @ embed(op, hole, particle, x).ravel())
        assert np.linalg.norm(op.matvec(x) - want) <= 1e-12 * np.linalg.norm(want)
    mask = np.add.outer(hole.sectors, particle.sectors).ravel() == 6
    config = DmrgConfig(m=2, total_pairs=0, superblock_tol=1e-12)
    e0, _, _, record = dmrg._solve_superblock(hole, particle, model, 6, config)
    assert 0 < record["matvecs"] < op.sector_dim  # Davidson, not a dense build
    assert e0 == pytest.approx(np.linalg.eigvalsh(h[np.ix_(mask, mask)])[0], rel=1e-10)


def test_superblock_work_entries_count_what_it_holds():
    # the held part is every float array of the operator; the rest is one
    # matvec's result and its largest live temporaries, as traced, plus the
    # headers of the arrays a matvec makes
    bcs = build_reduced_bcs(np.arange(1.0, 13.0), 0.3)
    general = random_model(np.random.default_rng(3), 14)
    ops = [
        _Superblock(exact_block(model, levels[:n][::-1]), exact_block(model, levels[n:]), model, n)
        for model, n, levels in ((bcs, 6, list(range(12))), (general, 7, list(range(14))))
    ]
    assert [(len(op.raise_terms), len(op.number_terms)) for op in ops] == [(1, 0), (7, 7)]
    for op in ops:
        n = op.sector_dim
        matvec_part = op.work_entries() - held_float_entries(op) - exactdiag.eigensolver_entries(n)
        x = np.random.default_rng(2).normal(size=n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            op.matvec(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert 0 <= peak - 8 * matvec_part <= 4096


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_schmidt_states_match_density_matrix_eigenstates(n, seed, data):
    # on a random sector-pure superblock state, the SVD of its sector
    # blocks gives the eigenvalues of both reduced density matrices and
    # keeps their dominant eigenspace wherever the weights leave a gap at
    # the cut; block sectors without a partner get weight exactly 0
    rng = np.random.default_rng(seed)
    model = random_model(rng, n)
    levels = [int(x) for x in rng.permutation(n)]
    split = data.draw(st.integers(1, n - 1), label="hole levels")
    blocks = []
    for side in (levels[:split], levels[split:]):
        n_bare = data.draw(st.integers(0, min(2, len(side))), label="bare levels")
        blocks.append(random_block(model, side, n_bare, rng)[0])
    hole, particle = blocks
    targets = [t for t in range(n + 1) if np.isin(t - hole.sectors, particle.sectors).any()]
    target = data.draw(st.sampled_from(targets), label="target")
    op = _Superblock(hole, particle, model, target)
    x = rng.normal(size=op.sector_dim)
    x /= np.linalg.norm(x)
    psi = embed(op, hole, particle, x)
    partners = (set(op.secs), {target - s for s in op.secs})
    for block, side, states, paired in zip(blocks, ("hole", "particle"), op.schmidt(x), partners):
        eigen = density_states(block, reduced_density(psi, side))
        check_candidates(block, states, paired)
        assert np.all(np.abs(all_weights(states) - all_weights(eigen)) <= 1e-14)
        ranked = np.sort(all_weights(states))[::-1]
        for m in range(1, block.dim):
            gap = ranked[m - 1] - ranked[m]
            if gap <= 1e-8:
                continue
            w_svd, w_rho = (dense_w(block, *_truncate_with_basis(block, st, m)[::2]) for st in (states, eigen))
            assert np.allclose(w_svd @ w_svd.T, w_rho @ w_rho.T, rtol=0, atol=1e-14 / gap)


def test_general_model_energy_is_reproducible():
    # kept states come from weights, with exact zeros where a sector block
    # has no more singular values, so the final energy does not depend on
    # the solver tolerance or on the start vector's seed beyond roundoff
    for seed in range(4):
        model = random_model(np.random.default_rng(seed), 20)
        energies = [
            run_infinite(model, DmrgConfig(m=64, total_pairs=5, superblock_tol=tol, seed=s)).final_energy
            for tol, s in ((1e-10, 0), (1e-12, 0), (1e-10, 7))
        ]
        assert max(energies) - min(energies) <= 1e-8 * abs(energies[0]), seed


def test_reduced_density_product_state():
    a = np.array([1.0, 2.0, 2.0])
    b = np.array([3.0, 4.0])
    psi = np.outer(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    rho = reduced_density(psi, "hole")
    lam = np.sort(np.linalg.eigvalsh(rho))
    assert lam[-1] == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(lam[:-1], 0.0, atol=1e-12)
    rho_p = reduced_density(psi, "particle")
    assert rho_p.shape == (2, 2)
    assert np.trace(rho_p) == pytest.approx(1.0, abs=1e-12)


def test_reduced_density_maximally_entangled():
    r = 4
    psi = np.eye(r) / math.sqrt(r)
    for side in ("hole", "particle"):
        lam = np.linalg.eigvalsh(reduced_density(psi, side))
        assert np.allclose(lam, 1.0 / r, atol=1e-12)


def test_reduced_density_validation():
    psi = np.eye(2)  # norm sqrt(2)
    with pytest.raises(NotNormalized):
        reduced_density(psi, "hole")
    good = np.eye(2) / math.sqrt(2.0)
    with pytest.raises(InvariantViolation):
        reduced_density(good, "both")
    with pytest.raises(DimensionMismatch):
        reduced_density(np.ones(4) / 2.0, "hole")


def test_density_matrix_is_sector_block_diagonal():
    model = toy_model()
    hole = exact_block(model, [1, 0])
    particle = exact_block(model, [2, 3])
    _, psi = ground(hole, particle, model, 2, DmrgConfig(m=4, total_pairs=2))
    rho = reduced_density(psi, "hole")
    assert np.allclose(rho, rho.T, atol=1e-14)
    assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-13
    diff = hole.sectors[:, None] != hole.sectors[None, :]
    assert not rho[diff].any()  # exact structural zeros


def test_truncate_keep_all_is_lossless():
    hole, states = toy_hole_states()
    new, weight, _ = _truncate_with_basis(hole, states, 4)
    assert new.dim == 4
    assert weight <= 1e-13


def test_truncate_weight_matches_dropped_eigenvalues():
    hole, states = toy_hole_states()
    new, weight, _ = _truncate_with_basis(hole, states, 2)
    assert new.dim == 2
    assert weight == pytest.approx(sum(TOY_RHO_EIGS[2:]), abs=1e-9)
    assert 0.0 <= weight <= 1.0
    # kept states are sector pure, so the projected h stays block diagonal
    diff = new.sectors[:, None] != new.sectors[None, :]
    assert not dense_h(new)[diff].any()


def test_truncation_ties_go_to_the_lower_sector():
    # equal weights everywhere: the kept states fill the lowest sectors
    # first, in their order within the sector
    block = exact_block(toy_model(), [0, 1])
    assert block.sectors.tolist() == [0, 1, 1, 2]
    states = identity_states(block)
    rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
    states[1] = rotation, states[1][1]
    new, weight, _ = _truncate_with_basis(block, states, 3)
    assert new.sectors.tolist() == [0, 1, 1]
    assert weight == pytest.approx(0.25, abs=1e-15)
    w = dense_w(block, *_truncate_with_basis(block, states, 2)[::2])
    assert np.array_equal(w[1:3, 1], rotation[:, 0])
    # a sector's rows need not precede the next sector's
    block = exact_block(toy_model(), [0, 1, 2])
    assert block.sectors.tolist() == [0, 1, 1, 2, 1, 2, 2, 3]
    w = dense_w(block, *_truncate_with_basis(block, identity_states(block), 5)[::2])
    assert np.array_equal(w, np.eye(8)[:, [0, 1, 2, 4, 3]])


def test_truncate_rank_one_density():
    # a product superblock state has one Schmidt state per side, at weight 1
    model = toy_model()
    hole, particle = exact_block(model, [0, 1]), exact_block(model, [2, 3])
    op = _Superblock(hole, particle, model, 2)
    psi = np.zeros((4, 4))
    psi[2, 1] = 1.0  # one pair on each side
    for block, states, vec in zip((hole, particle), op.schmidt(restrict(op, hole, particle, psi)), np.eye(4)[[2, 1]]):
        new, weight, kept = _truncate_with_basis(block, states, 1)
        assert new.dim == 1
        assert weight == pytest.approx(0.0, abs=1e-12)
        assert abs(dense_w(block, new, kept)[:, 0] @ vec) == pytest.approx(1.0, abs=1e-12)


def test_truncate_shape_check():
    # the Schmidt states cover each block's basis sector by sector, one
    # square matrix and its weights per sector, and truncation returns the
    # kept states per sector and the operators on them
    model = random_model(np.random.default_rng(6), 6)
    hole, particle = exact_block(model, [2, 1, 0]), exact_block(model, [3, 4, 5])
    _, op, x, _ = dmrg._solve_superblock(hole, particle, model, 3, DmrgConfig(m=5, total_pairs=3))
    partners = (set(op.secs), {3 - s for s in op.secs})
    for block, states, paired in zip((hole, particle), op.schmidt(x), partners):
        check_candidates(block, states, paired)
        new, _, kept = _truncate_with_basis(block, states, 5)
        assert sum(w.shape[1] for w in kept.values()) == new.dim == 5
        assert all(w.shape == (block.dims[s], new.dims[s]) for s, w in kept.items())
        assert all(new.h[s].shape == (d, d) for s, d in new.dims.items())
        for kind, (modes, small) in enumerate(zip(block.modes, new.modes)):
            assert dense_modes(new, kind).shape == (mode_counts(block)[kind], 5, 5)
            assert np.array_equal(small.span, modes.span)


def test_a_1e100_scaled_model_solves():
    # far below the scale bound: ED agrees with the dense spectrum, and an
    # untruncated run with both
    model = build_reduced_bcs(np.arange(1.0, 11.0) * 1e100, 0.5e100)
    basis = enumerate_basis(10, 5)
    exact = dense_spectrum(model, basis).energies[0]
    ed = iterative_ground(model, basis, tol=1e-12).energies[0]
    assert abs(ed - exact) <= 1e-12 * abs(exact)
    result = run_infinite(model, DmrgConfig(m=32, total_pairs=5))
    assert [(r.dim_hole, r.dim_particle) for r in result.iterations] == [(2**k, 2**k) for k in range(1, 6)]
    for reference in (exact, ed):
        assert abs(result.final_energy - reference) <= 1e-10 * abs(reference)


@pytest.mark.parametrize("scale", [1.0, 1e-20, 1e-24])
def test_solvers_keep_their_accuracy_at_any_energy_scale(scale):
    # the stopping rule scales with the operator: ED and an untruncated
    # run (m = 32 keeps every state) meet the dense spectrum to 1e-12
    # relative at every scale, where an absolute eps^(2/3) floor stopped
    # Davidson early below about 1e-15
    model = build_reduced_bcs(np.arange(1.0, 11.0) * scale, 0.5 * scale)
    basis = enumerate_basis(10, 5)
    exact = dense_spectrum(model, basis).energies[0]
    ed = iterative_ground(model, basis, tol=1e-12)
    run = run_infinite(model, DmrgConfig(m=32, total_pairs=5, superblock_tol=1e-12))
    # the last superblock is the 252-state sector, a Davidson solve too
    assert ed.method == "iterative" and run.iterations[-1].matvecs < math.comb(10, 5)
    for energy in (ed.energies[0], run.final_energy):
        assert abs(energy - exact) <= 1e-12 * abs(exact)


def test_run_infinite_untruncated_equals_dense():
    model = toy_model()
    result = run_infinite(model, DmrgConfig(m=4, total_pairs=2))
    assert len(result.iterations) == 2
    assert result.final_energy == pytest.approx(TOY_GROUND, abs=1e-9)
    rec = result.iterations[0]
    assert rec.levels_in_superblock == 2
    assert rec.target_pairs == 1
    assert result.iterations[1].levels_in_superblock == 4
    assert result.iterations[1].target_pairs == 2


def test_run_infinite_non_interacting_filling():
    model = build_reduced_bcs([1.0, 2.0, 3.0, 4.0], 0.0)
    result = run_infinite(model, DmrgConfig(m=2, total_pairs=2))
    assert result.final_energy == pytest.approx(6.0, abs=1e-10)


def test_run_infinite_filling_extremes():
    model = toy_model()
    empty = run_infinite(model, DmrgConfig(m=2, total_pairs=0))
    assert empty.final_energy == pytest.approx(0.0, abs=1e-12)
    full = run_infinite(model, DmrgConfig(m=2, total_pairs=4))
    assert full.final_energy == pytest.approx(20.0, abs=1e-12)
    assert len(empty.iterations) == len(full.iterations) == 2


def test_run_infinite_is_variational_and_converges_in_m():
    model = build_reduced_bcs(np.arange(1.0, 7.0), 0.7)
    exact = dense_spectrum(model, enumerate_basis(6, 3)).energies[0]
    prev = None
    for m in (2, 3, 4, 8):
        e = run_infinite(model, DmrgConfig(m=m, total_pairs=3)).final_energy
        assert e >= exact - 1e-10
        prev = e
    # m = 2^(N/2) has no truncation at all
    assert prev == pytest.approx(exact, abs=1e-9)


def test_run_infinite_off_half_filling():
    model = build_reduced_bcs(np.arange(1.0, 9.0), 0.4)
    for pairs in (2, 3, 6):
        exact = dense_spectrum(model, enumerate_basis(8, pairs)).energies[0]
        got = run_infinite(model, DmrgConfig(m=16, total_pairs=pairs)).final_energy
        assert got == pytest.approx(exact, abs=1e-8), f"pairs={pairs}"


def test_run_infinite_random_models_stay_variational():
    rng = np.random.default_rng(71)
    for trial in range(4):
        n = 6
        model = random_model(rng, n)
        pairs = int(rng.integers(1, n))
        exact = dense_spectrum(model, enumerate_basis(n, pairs)).energies[0]
        res = run_infinite(model, DmrgConfig(m=8, total_pairs=pairs))
        assert res.final_energy >= exact - 1e-9
        assert res.final_energy == pytest.approx(exact, abs=1e-7)
        for rec in res.iterations:
            assert 0.0 <= rec.trunc_weight_hole <= 1.0
            assert 0.0 <= rec.trunc_weight_particle <= 1.0
            assert rec.dim_hole <= 8 and rec.dim_particle <= 8


def test_run_infinite_iteration_count_always_half_n():
    for n, pairs in ((4, 2), (8, 3), (12, 6)):
        model = build_reduced_bcs(np.arange(1.0, n + 1.0), 0.3)
        res = run_infinite(model, DmrgConfig(m=4, total_pairs=pairs))
        assert len(res.iterations) == n // 2
        assert [r.iteration for r in res.iterations] == list(range(1, n // 2 + 1))
        assert [r.levels_in_superblock for r in res.iterations] == [2 * k for k in range(1, n // 2 + 1)]
        assert res.iterations[-1].target_pairs == pairs


def test_run_infinite_is_deterministic():
    model = build_reduced_bcs(np.arange(1.0, 9.0), 0.6)
    a = run_infinite(model, DmrgConfig(m=6, total_pairs=4))
    b = run_infinite(model, DmrgConfig(m=6, total_pairs=4))
    assert [r.e0 for r in a.iterations] == [r.e0 for r in b.iterations]
    assert a.memory_peak_entries == b.memory_peak_entries


def test_memory_report_within_bound():
    model = build_reduced_bcs(np.arange(1.0, 13.0), 0.5)
    res = run_infinite(model, DmrgConfig(m=8, total_pairs=6))
    rep = memory_report(res)
    bound = 3 * 8 * 8 * 12
    assert rep["block_operator_bound_entries"] == bound
    assert rep["per_level_peak_entries"] <= bound
    assert rep["stored_peak_entries"] <= bound + rep["overhead_allowance_entries"]
    assert rep["within_bound"] is True
    assert rep["work_peak_entries"] > 0


def test_memory_report_flags_violations():
    model = toy_model()
    res = run_infinite(model, DmrgConfig(m=4, total_pairs=2))
    bad = dataclasses.replace(res, per_level_peak_entries=10**9)
    with pytest.raises(InvariantViolation):
        memory_report(bad)


@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(
    n=st.sampled_from([4, 6, 8, 10]),
    m=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_random_runs_keep_their_guarantees(n, m, seed, data):
    # every filling 0..N and every m >= 2: storage within the documented
    # bound, N/2 iterations, dims <= m, weights in [0, 1], variational energy
    model = random_model(np.random.default_rng(seed), n)
    pairs = data.draw(st.integers(0, n), label="pairs")
    result = run_infinite(model, DmrgConfig(m=m, total_pairs=pairs))
    assert memory_report(result)["within_bound"] is True
    assert len(result.iterations) == n // 2
    for rec in result.iterations:
        assert rec.dim_hole <= m and rec.dim_particle <= m
        assert 0.0 <= rec.trunc_weight_hole <= 1.0
        assert 0.0 <= rec.trunc_weight_particle <= 1.0
    exact = dense_spectrum(model, enumerate_basis(n, pairs)).energies[0]
    assert result.final_energy >= exact - 1e-9


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    n=st.sampled_from([4, 6, 8, 10]),
    kind=st.sampled_from(["general", *FamilyKind]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_untruncated_runs_equal_exact_diagonalization(n, kind, seed, data):
    # m = 2**N keeps every state, so only the eigensolver tolerance remains
    rng = np.random.default_rng(seed)
    if kind == "general":
        model = random_model(rng, n)
    else:
        model = integrable_model(rng, n, kind)
    pairs = data.draw(st.integers(0, n), label="pairs")
    result = run_infinite(model, DmrgConfig(m=2**n, total_pairs=pairs))
    exact = dense_spectrum(model, enumerate_basis(n, pairs)).energies[0]
    assert result.final_energy == pytest.approx(exact, rel=1e-10, abs=1e-10)
    # untruncated superblocks are strongly coupled in the block eigenbasis,
    # where a correction that does not floor |D - theta| stagnates
    for rec in result.iterations:
        sector_dim = math.comb(rec.levels_in_superblock, rec.target_pairs)
        assert rec.matvecs <= 3 * sector_dim


def test_history_csv_format():
    model = toy_model()
    res = run_infinite(model, DmrgConfig(m=8, total_pairs=2))
    text = history_csv(res)
    lines = text.splitlines()
    assert lines[0] == (
        "iteration,levels_in_superblock,target_pairs,E0,"
        "trunc_weight_hole,trunc_weight_particle,dim_hole,dim_particle,"
        "matvecs,residual,warm_start_overlap,grow_s,setup_s,solve_s,truncate_s"
    )
    assert len(lines) == 1 + len(res.iterations)
    assert text.endswith("\n")
    first = lines[1].split(",")
    assert first[0] == "1"
    # 17 significant digits round-trip exactly
    assert float(first[3]) == res.iterations[0].e0
    for line, rec in zip(lines[1:], res.iterations):
        matvecs, residual, overlap, *phases = line.split(",")[8:]
        assert int(matvecs) == rec.matvecs > 0
        assert float(residual) == rec.residual
        assert float(overlap) == rec.warm_start_overlap
        assert [float(x) for x in phases] == [rec.grow_s, rec.setup_s, rec.solve_s, rec.truncate_s]
        assert min(float(x) for x in phases) > 0.0
    # the first iteration has no guess; the second is warm-started
    assert res.iterations[0].warm_start_overlap == 0.0
    assert 0.0 < res.iterations[1].warm_start_overlap <= 1.0 + 1e-12


def test_summary_dict_keys():
    model = toy_model()
    res = run_infinite(model, DmrgConfig(m=4, total_pairs=2))
    doc = summary_dict(res)
    assert set(doc) == {
        "final_energy",
        "m",
        "n_levels",
        "total_pairs",
        "iterations",
        "memory_peak_entries",
        "wall_seconds",
        "per_level_peak_entries",
        "work_peak_entries",
        "block_operator_bound_entries",
        "within_bound",
    }
    assert doc["iterations"] == 2
    assert doc["final_energy"] == res.final_energy
    report = memory_report(res)
    for key in set(doc) & set(report):
        assert doc[key] == report[key]


def test_errors_share_a_base_class():
    for err in (OddN, InfeasibleTarget, EmptySector, NoConvergence, NotNormalized):
        assert issubclass(err, PairsolveError)


def blas_threads():
    """The thread count of every OpenBLAS in the process, through the
    lookup the solvers use; numpy's wheels bundle scipy-openblas, so the
    lookup must find one."""
    libraries = exactdiag._openblas_libraries()
    assert libraries, "no OpenBLAS found in the process"
    return [get() for get, _ in libraries]


@contextmanager
def caller_threads(count):
    """Every OpenBLAS at ``count`` threads for the block, then back."""
    libraries = exactdiag._openblas_libraries()
    before = [get() for get, _ in libraries]
    for _, put in libraries:
        put(count)
    try:
        yield
    finally:
        for (_, put), n in zip(libraries, before):
            put(n)


def probed(monkeypatch, owner, name, read=blas_threads):
    """Wrap ``owner.name`` to record read() at each call."""
    seen, inner = [], getattr(owner, name)

    def probe(*args, **kwargs):
        seen.append(read())
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, probe)
    return seen


def test_dmrg_superblock_matvecs_run_on_one_blas_thread(monkeypatch):
    # the whole run, dense and Davidson superblock solves alike, runs at
    # one thread and leaves the caller's count behind
    seen = probed(monkeypatch, _Superblock, "matvec")
    model = build_reduced_bcs(np.arange(1.0, 17.0), 0.4)
    with caller_threads(2):
        res = run_infinite(model, DmrgConfig(m=16, total_pairs=8))
        assert blas_threads() == [2] * len(seen[0])
    assert len(seen) >= sum(r.matvecs for r in res.iterations) > 0
    assert all(counts == [1] * len(counts) for counts in seen)


def test_iterative_ground_matvecs_run_on_one_blas_thread(monkeypatch):
    # Davidson and the fresh certificate both run at one thread
    seen = probed(monkeypatch, exactdiag.HamiltonianAction, "apply")
    model = build_reduced_bcs(np.arange(1.0, 11.0), 0.4)
    with caller_threads(2):
        res = exactdiag.iterative_ground(model, enumerate_basis(10, 5))
        assert blas_threads() == [2] * len(seen[0])
    assert res.method == "iterative"
    assert len(seen) == res.matvecs
    assert all(counts == [1] * len(counts) for counts in seen)


def test_dense_eigensolves_keep_the_callers_blas_threads(monkeypatch):
    # a large dense eigh gains wall time from every thread the caller gave
    # BLAS, so dense_spectrum and iterative_ground's dense solve outside
    # a DMRG run keep them
    seen = probed(monkeypatch, np.linalg, "eigh")
    model = build_reduced_bcs(np.arange(1.0, 9.0), 0.4)
    with caller_threads(2):
        dense_spectrum(model, enumerate_basis(8, 4))
        res = exactdiag.iterative_ground(model, enumerate_basis(8, 4), k=70)
    assert res.method == "dense"
    assert seen and all(counts == [2] * len(counts) for counts in seen)


def test_blas_threads_come_back_after_non_convergence(monkeypatch):
    rng = np.random.default_rng(3)
    h = rng.normal(size=(100, 100))
    h += h.T
    seen = []

    def matvec(x):
        seen.append(blas_threads())
        return h @ x

    cap_davidson(monkeypatch, 3)
    with caller_threads(2):
        with pytest.raises(NoConvergence):
            exactdiag.lowest_eigenpairs(matvec, 100, tol=1e-14, diagonal=np.diag(h))
        assert blas_threads() == [2] * len(seen[0])
    assert len(seen) == 3 and all(counts == [1] * len(counts) for counts in seen)


def test_blas_threads_come_back_after_an_empty_sector(monkeypatch):
    seen = []

    def empty(*args):
        seen.append(blas_threads())
        raise EmptySector("no state holds the target")

    monkeypatch.setattr(dmrg, "_solve_superblock", empty)
    with caller_threads(2):
        with pytest.raises(EmptySector, match="^iteration 1: "):
            run_infinite(toy_model(), DmrgConfig(m=4, total_pairs=2))
        assert blas_threads() == [2] * len(seen[0])
    assert seen == [[1] * len(seen[0])]


def test_concurrent_solves_leave_the_callers_blas_threads(monkeypatch):
    # two threads share the depth count: the first to leave restores
    # nothing while the other still solves, the last restores the count
    seen = probed(monkeypatch, _Superblock, "matvec")
    models = [build_reduced_bcs(np.arange(1.0, 17.0), g) for g in (0.3, 0.5)]
    config = DmrgConfig(m=16, total_pairs=8)
    serial = [run_infinite(model, config).final_energy for model in models]
    seen.clear()
    results = [None, None]

    def solve(i):
        results[i] = run_infinite(models[i], config).final_energy

    with caller_threads(2):
        workers = [threading.Thread(target=solve, args=(i,)) for i in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert blas_threads() == [2] * len(seen[0])
    assert results == serial
    assert exactdiag._blas_depth == 0
    assert all(counts == [1] * len(counts) for counts in seen)


def test_solves_run_where_no_openblas_is_found(monkeypatch):
    # another BLAS, or no /proc: the solves run at the caller's count
    model = build_reduced_bcs(np.arange(1.0, 17.0), 0.4)
    config = DmrgConfig(m=16, total_pairs=8)
    small = build_reduced_bcs(np.arange(1.0, 11.0), 0.4)
    found = run_infinite(model, config)
    ground = exactdiag.iterative_ground(small, enumerate_basis(10, 5))
    libraries = exactdiag._openblas_libraries()
    with caller_threads(2):
        counts = blas_threads()
        monkeypatch.setattr(exactdiag, "_openblas_libraries", list)
        seen = probed(monkeypatch, _Superblock, "matvec", lambda: [get() for get, _ in libraries])
        res = run_infinite(model, config)
        again = exactdiag.iterative_ground(small, enumerate_basis(10, 5))
        monkeypatch.undo()
        assert blas_threads() == counts
    assert seen and all(c == counts for c in seen)
    assert res.final_energy == pytest.approx(found.final_energy, rel=1e-12)
    assert again.energies[0] == pytest.approx(ground.energies[0], rel=1e-12)


def test_dmrg_energies_do_not_depend_on_the_callers_blas_threads():
    # at m = 128 the last superblock is large enough for OpenBLAS to split
    # its products over two threads, which summed them in another order:
    # the last energy ended 3 ulp apart
    model = build_reduced_bcs(np.arange(1.0, 17.0), 0.3)
    config = DmrgConfig(m=128, total_pairs=8, superblock_tol=1e-12)
    energies = []
    for count in (1, 2):
        with caller_threads(count):
            res = run_infinite(model, config)
        energies.append([float(r.e0).hex() for r in res.iterations] + [float(res.final_energy).hex()])
    assert energies[0] == energies[1]
