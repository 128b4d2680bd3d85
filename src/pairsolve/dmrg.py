"""Infinite-algorithm DMRG for pairing Hamiltonians.

Levels are split at the Fermi index into a hole side and a particle side.
Both blocks grow outward one level per iteration (two on one side once the
other side runs out of levels, which only happens away from half filling),
the superblock ground state is found in a fixed total-pair sector, and each
block is truncated to the at most m states of largest Schmidt weight of
that ground state: one SVD per pair-sector block of the solver's vector
gives both blocks' states and weights, the eigenstates and eigenvalues of
the two reduced density matrices, which are never formed.  A run starts
from two vacuum blocks and follows a fixed plan of exactly N/2 steps,
each naming the levels every side gains and the pair target.

Memory layout: every block is stored by pair sector.  A block over the
levels L meets the rest of the model only through v1 and v2 between L and
the levels O outside it, so it stores coupling modes: per operator kind,
an orthonormal basis U of the row space of that coupling and the
operators sum_i U[i, r] o_i on the sector edges they connect, a raise
from s to s + 1 and a number on s (annihilation is the transpose;
reduced BCS keeps one raise mode and no number mode).  A grown block is
an explicit core and one bare level: its Hamiltonian is written sector by
sector, and its modes keep their parts on the core's sector edges and one
coefficient each for the bare level.  No step forms an operator on a
whole block basis: superblock set-up and truncation project the modes
through per-sector bases (``_sandwich``), and the superblock matvec runs
over the (s, t - s) pair-sector blocks of its target sector t, each in
the eigenbasis of its two block Hamiltonians, whose diagonal
preconditions the Davidson solve, with the coupling's R factored terms
stacked per edge between sector blocks, so an edge costs two products
whatever R is.  ``memory_report`` bounds the entries stored.
"""
from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySector,
    InfeasibleTarget,
    InvariantViolation,
    NoConvergence,
    NotNormalized,
    OddN,
)
from .basis import check_integers
from .exactdiag import _one_blas_thread, check_solver_args, eigensolver_entries, lowest_eigenpairs
from .model import PairingModel

_RAISE, _NUMBER = 0, 1

#: Singular values below this relative cutoff are dropped when a coupling
#: is factored into modes.
_SVD_CUT = 1e-13


class Modes(NamedTuple):
    """One operator kind's r modes: mode q is sum_i span[i, q] o_i over the
    block's levels (orthonormal columns).  ``ops[s]`` stacks the modes'
    explicit parts on the core's states from core sector s, (r, c_{s+1},
    c_s) for a raise and (r, c_s, c_s) for a number; a bare level's part
    is span[-1, q] times its own operator."""

    ops: dict
    span: np.ndarray


def _parts(sectors, n_bare):
    """Per sector s of a block: the positions in s of its states with the
    bare level empty and full, and the size of s."""
    counts = np.bincount(sectors)
    order = np.argsort(sectors, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.repeat(np.cumsum(counts) - counts, counts)
    key = 2 * sectors + (np.arange(len(sectors)) % 2 if n_bare else 0)
    ranks = rank[np.argsort(key, kind="stable")]
    ends = [0, *np.cumsum(np.bincount(key, minlength=2 * len(counts))).tolist()]
    pieces = [ranks[a:b] for a, b in zip(ends, ends[1:])]
    dims = {s: d for s, d in enumerate(counts.tolist()) if d}
    return {s: (pieces[2 * s], pieces[2 * s + 1]) for s in dims}, dims


def _combine(y, ops):
    """sum_q y[q, c] ops[q] for every column c of y, stacked."""
    r, a, b = ops.shape
    return (y.T @ ops.reshape(r, a * b)).reshape(-1, a, b)


class Block:
    """A set of levels, stored by pair sector.

    The basis is core-major, index = 2a + n with a bare last level of
    occupation n (``n_bare`` = 1), a without one; a runs over the core's
    basis, which holds the modes' explicit parts.  ``sectors`` labels the
    states by pair number in basis order; a sector keeps that order.
    ``h[s]`` is the Hamiltonian on sector s, ``dims[s]`` its size, and
    ``parts[s]`` the positions in s of the states with the bare level
    empty and full, each in core order (``parts`` passes them with
    ``dims`` where the caller has them).  ``modes`` holds the raise and the
    number ``Modes``.  Instances are treated as immutable.
    """

    def __init__(self, levels, sectors, h, modes, n_bare=0, parts=None):
        self.levels = tuple(int(x) for x in levels)
        self.sectors = np.asarray(sectors, dtype=int)
        self.h = h
        self.modes = tuple(Modes(*m) for m in modes)
        self.n_bare = n_bare
        self.parts, self.dims = parts or _parts(self.sectors, n_bare)
        if sorted(h) != list(self.dims) or any(h[s].shape != (d, d) for s, d in self.dims.items()):
            raise InvariantViolation("Hamiltonian blocks do not match the sectors")
        if any(span.shape[0] != len(self.levels) for _, span in self.modes):
            raise InvariantViolation("modes do not match the levels")

    @property
    def dim(self) -> int:
        return len(self.sectors)

    def stored_entries(self) -> int:
        """Matrix entries held: the Hamiltonian's sector blocks and the
        modes' explicit parts (the |L| x r mode coefficients are not
        counted)."""
        return sum(h.size for h in self.h.values()) + self.per_level_entries()

    def per_level_entries(self) -> int:
        """Mode entries held: every raise edge once (annihilation is its
        transpose) and every number block."""
        return sum(op.size for ops, _ in self.modes for op in ops.values())


def _svd(k: np.ndarray):
    """Thin SVD of k without singular values at or below _SVD_CUT times the largest."""
    if not np.any(k):
        return np.zeros((k.shape[0], 0)), np.zeros(0), np.zeros((0, k.shape[1]))
    u, s, vt = np.linalg.svd(k, full_matrices=False)
    r = int(np.count_nonzero(s > _SVD_CUT * s[0]))
    return u[:, :r], s[:r], vt[:r]


def _factor(a: Block, b: Block, coupling: np.ndarray, kind: int):
    """Singular values s of the r_a x r_b mode coupling and weights ya, yb
    with sum_ij coupling[i, j] o_i (x) o_j = sum_c X[c] (x) Y[c] over the
    levels of a and b, X[c] = sum_q ya[q, c] (mode q of a), Y likewise."""
    u, s, vt = _svd(a.modes[kind].span.T @ coupling @ b.modes[kind].span)
    w = np.sqrt(s)
    return s, u * w, vt.T * w


def _split(block: Block, bases):
    """Each sector's basis (rows over its states) split by the bare level's occupation."""
    return {s: (w[block.parts[s][0]], w[block.parts[s][1]]) for s, w in bases.items()}


def _sandwich(block: Block, kind: int, terms, dst: int, src: int, left, right) -> np.ndarray:
    """left^T O_c right, stacked (R, kl, kr), for the operators O_c from
    sector src to dst (src + 1 for a raise) whose explicit parts per core
    edge and bare-level coefficients (None without a bare level) are
    ``terms``; left and right are the sectors' bases as ``_split`` gives
    them.  No operator is formed on a whole sector."""
    ops, lam = terms
    out = 0.0
    if lam is not None:  # a raise keeps the core state and fills the level
        site = left[1].T @ right[0] if kind == _RAISE else 2.0 * (left[1].T @ right[1])
        out = np.multiply.outer(lam, site)
    for n in range(1 if lam is None else 2):
        op = ops.get(src - n)
        if op is not None:
            out = out + left[n].T @ op @ right[n]
    return out


def _project(block: Block, sectors, bases) -> Block:
    """The block on new states: ``bases[s]`` holds sector s's as columns
    over its old ones, ``sectors`` labels them in the new basis order; h
    and every mode are projected sector by sector, edge by edge."""
    h = {s: w.T @ block.h[s] @ w for s, w in bases.items()}
    split = _split(block, bases)
    modes = []
    for kind, (ops, span) in enumerate(block.modes):
        terms = ops, span[-1] if block.n_bare else None
        edges = [(s + 1 - kind, s) for s in bases if s + 1 - kind in bases and span.shape[1]]
        projected = {s: _sandwich(block, kind, terms, d, s, split[d], split[s]) for d, s in edges}
        modes.append((projected, span))
    return Block(block.levels, sectors, h, modes)


def vacuum_block() -> Block:
    """The empty block: one state, zero pairs, no levels."""
    none = ({}, np.zeros((0, 0)))
    return Block((), [0], {0: np.zeros((1, 1))}, (none, none))


def _grow(core: Block, level: int, model: PairingModel):
    """Block arguments of ``core``, its own bare level made explicit, with
    ``level`` added bare.  Sector s holds the core's sector s with the
    level empty and its sector s - 1 with the level full; the level adds
    2 eps on the second, its density coupling through the core's number
    modes, and the pair hop between the two through its raise modes.  The
    new modes are the left singular vectors of the coupling to the levels
    still outside, over the core's modes and the level's own operator."""
    if core.n_bare:
        core = _project(core, core.sectors, {s: np.eye(d) for s, d in core.dims.items()})
    inside = core.levels + (level,)
    (raises, r_span), (numbers, n_span) = core.modes
    hop = r_span.T @ model.v1[list(core.levels), level]
    density = 2.0 * n_span.T @ (2.0 * model.v2[list(core.levels), level])
    sectors = np.add.outer(core.sectors, [0, 1]).ravel()
    hops = {s: _combine(hop[:, None], op)[0] for s, op in raises.items()}
    densities = {s: _combine(density[:, None], op)[0] for s, op in numbers.items()}
    h, parts = {}, _parts(sectors, 1)
    for s, (empty, full) in parts[0].items():
        # written with the empty-level states first, then put in order
        a, d = len(empty), len(empty) + len(full)
        out = np.zeros((d, d))
        if a:
            out[:a, :a] = core.h[s]
        if a < d:
            out[a:, a:] = core.h[s - 1] + densities[s - 1] if s - 1 in densities else core.h[s - 1]
            out.flat[a * (d + 1) :: d + 1] += 2.0 * model.eps[level]
            if s - 1 in hops:  # the core takes the pair the level gives up
                out[:a, a:] = hops[s - 1]
                out[a:, :a] = hops[s - 1].T
        order = np.argsort(np.concatenate([empty, full]))
        h[s] = out[order][:, order]
    ix = np.ix_(inside, np.setdiff1d(np.arange(model.n_levels), inside))
    modes = []
    for (ops, span), coupling in zip(core.modes, (model.v1[ix], 2.0 * model.v2[ix])):
        r = span.shape[1]
        p = _svd(np.vstack([span.T @ coupling[:-1], coupling[-1:]]))[0]
        new = {s: _combine(p[:r], op) for s, op in ops.items()} if p.shape[1] else {}
        modes.append((new, np.vstack([span @ p[:r], p[r:]])))
    return inside, sectors, h, modes, 1, parts


class GrownBlock(Block):
    """``core`` enlarged by ``levels``, joined one at a time.

    Each level joins as the bare level of an explicit block (``_grow``).
    The grown block's modes factor its coupling to the levels of ``model``
    outside it; their explicit parts are combinations of the core's, and
    the core's Hamiltonian is not kept.
    """

    def __init__(self, core: Block, levels, model: PairingModel):
        levels = tuple(int(x) for x in levels)
        if len(set(core.levels + levels)) != len(core.levels) + len(levels):
            raise InvariantViolation(
                f"levels {list(levels)} repeat a level or one of {list(core.levels)}"
            )
        args = core.levels, core.sectors, core.h, core.modes, core.n_bare, (core.parts, core.dims)
        for i, level in enumerate(levels):
            args = _grow(Block(*args) if i else core, level, model)
        super().__init__(*args)


@dataclass(frozen=True)
class DmrgConfig:
    """Run parameters: kept states m, target pair number, and the stopping
    rule and start vector of the superblock solves.

    A superblock sector above 64 states is solved by Davidson's method,
    which stops at ``||H x - E x|| <= superblock_tol * |E|`` within ten
    times the sector dimension steps, one matvec each; a solve that runs
    out raises NoConvergence with its last estimate and residual.
    ``seed`` draws the perturbation of the start vector of solves without
    a warm start.
    """

    m: int
    total_pairs: int
    superblock_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        check_integers(m=self.m, total_pairs=self.total_pairs)
        if self.m < 2:
            raise InvariantViolation(f"m must be at least 2, got {self.m}")
        if self.total_pairs < 0:
            raise InfeasibleTarget(
                f"total_pairs must be nonnegative, got {self.total_pairs}"
            )
        check_solver_args(self.superblock_tol, self.seed)


def target_pairs(k: int, n_levels: int, total_pairs: int) -> int:
    """Pair number targeted at iteration k: proportional filling.

    round(2k*M/N) with half-up rounding, clipped so that the remaining
    N - 2k levels can absorb the leftover pairs.  Equals k at half filling
    and equals M at the final iteration.
    """
    if not 1 <= k <= n_levels // 2:
        raise InvariantViolation(f"k must be in 1..{n_levels // 2}, got {k}")
    t = (4 * k * total_pairs + n_levels) // (2 * n_levels)
    lo = max(0, 2 * k - (n_levels - total_pairs))
    hi = min(2 * k, total_pairs)
    return min(max(t, lo), hi)


def _plan(model: PairingModel, config: DmrgConfig):
    """One (new hole levels, new particle levels, target pairs) per iteration.

    The hole side walks down from the Fermi index and the particle side
    walks up, one level each per iteration; an exhausted side hands both
    of the iteration's levels to the other block.  Exactly N/2 iterations.
    """
    n, f = model.n_levels, config.total_pairs
    if n % 2:
        raise OddN(f"the symmetric infinite algorithm needs even N, got {n}")
    if f > n:
        raise InfeasibleTarget(f"cannot place {f} pairs on {n} levels")
    order = [int(x) for x in np.argsort(model.eps, kind="stable")]
    holes, parts = order[:f][::-1], order[f:]
    # levels in the hole and particle blocks after k iterations
    ks = range(n // 2 + 1)
    h = [max(min(k, f), 2 * k - (n - f)) for k in ks]
    p = [2 * k - h[k] for k in ks]
    return [
        (holes[h[k - 1] : h[k]], parts[p[k - 1] : p[k]], target_pairs(k, n, f))
        for k in ks[1:]
    ]


class _Superblock:
    """Matrix-free superblock Hamiltonian restricted to one pair sector.

    The target sector t splits into blocks (s, t - s) of hole sector s and
    particle sector t - s, one for each s present on both sides, each in
    the eigenbasis of its two block-Hamiltonian sector blocks, where
    ``hh_s (x) 1 + 1 (x) hp_s`` is the elementwise product with
    ``D_s = e_h[:, None] + e_p[None, :]``.  A coupling is factored by SVD
    of the r_h x r_p mode coupling into R terms A_r (x) C_r (the singular
    values are ``raise_terms`` and ``number_terms``).  Each sector edge
    (dst, src), number terms on (s, s) and pair hops between s and s + 1,
    stacks its R terms, projected on the two eigenbases by ``_sandwich``:
    A as (h_dst R) x h_src, C as (R p_src) x p_dst, so that A @ x viewed
    as h_dst x (R p_src), times C, is sum_r A_r x C_r, and a hop's reverse
    reads both transposed.  The vector holds the blocks in order of s,
    each row-major; ``restrict`` rotates a state given by its entries into
    it, ``diagonal`` is D, and ``schmidt`` splits a state into both
    blocks' states.
    """

    def __init__(self, hole, particle, model: PairingModel, target: int):
        self.dh, self.dp = hole.dim, particle.dim
        secs = [s for s in hole.dims if target - s in particle.dims]
        if not secs:
            raise EmptySector(f"no states with {target} pairs in a {self.dh}x{self.dp} superblock")
        self.secs, self.target, partners = secs, target, [target - s for s in secs]
        self._unpaired = [{s: d for s, d in block.dims.items() if s not in keys}
                          for block, keys in ((hole, secs), (particle, partners))]
        eh, uh = zip(*(np.linalg.eigh(hole.h[s]) for s in secs))
        ep, up = zip(*(np.linalg.eigh(particle.h[s]) for s in partners))
        self.blocks = list(zip(uh, up))
        self.diagonal = np.concatenate([np.add.outer(a, b).ravel() for a, b in zip(eh, ep)])
        dims = [(len(a), len(b)) for a, b in zip(eh, ep)]
        ends = np.cumsum([h * p for h, p in dims])
        self._slices = [(slice(end - h * p, end), (h, p)) for end, (h, p) in zip(ends, dims)]
        # a hop is applied both ways, each at the cost R h_dst p_src
        # (h_src + p_dst) of the direction it is stored in
        cost = lambda d, c: dims[d][0] * dims[c][1] * (dims[c][0] + dims[d][1])
        hops = [min((k + 1, k), (k, k + 1), key=lambda edge: cost(*edge))
                for k in range(len(secs) - 1) if secs[k + 1] == secs[k] + 1]
        ix = np.ix_(list(hole.levels), list(particle.levels))
        sides = [(block, keys, _split(block, dict(zip(keys, u))))
                 for block, keys, u in ((hole, secs, uh), (particle, partners, up))]
        self.raise_terms, self.hops = self._stack(sides, model.v1[ix], _RAISE, hops)
        numbers = [(k, k) for k in range(len(secs))]
        self.number_terms, self.numbers = self._stack(sides, 2.0 * model.v2[ix], _NUMBER, numbers)

    def _stack(self, sides, coupling, kind, edges):
        """Singular values of the factored coupling and its terms stacked per
        edge as (dst, src, A, C); ``sides`` holds each block with its
        sectors in the target sector's order and their split eigenbases."""
        s, *ys = _factor(sides[0][0], sides[1][0], coupling, kind)
        terms = [({k: _combine(y, op) for k, op in block.modes[kind].ops.items()},
                  block.modes[kind].span[-1] @ y if block.n_bare else None)
                 for (block, _, _), y in zip(sides, ys)]

        def stack(side, dst, src):
            block, secs, bases = sides[side]
            d, c = sorted((secs[dst], secs[src]), reverse=True)  # raise from c to d
            out = _sandwich(block, kind, terms[side], d, c, bases[d], bases[c])
            return out if secs[dst] >= secs[src] else out.transpose(0, 2, 1)

        stacks = []
        for d, c in edges if len(s) else ():
            a, e = stack(0, d, c), stack(1, c, d)
            a, e = a.transpose(1, 0, 2).reshape(-1, a.shape[2]), e.reshape(-1, e.shape[2])
            stacks.append((d, c, a, e))
        return s, stacks

    @property
    def sector_dim(self) -> int:
        return len(self.diagonal)

    def work_entries(self) -> int:
        """Entries held for the solve: the operator's float arrays (the
        sector eigenbases, D, the stacked edges and the singular values),
        one matvec's result, its largest stacked temporary R h_dst p_src
        with the product formed from it, and the eigensolver's own arrays
        (``eigensolver_entries``)."""
        shapes = [shape for _, shape in self._slices]
        held = self.diagonal.size + self.raise_terms.size + self.number_terms.size
        held += sum(u.size + v.size for u, v in self.blocks)
        temp = 0
        for d, c, a, e in self.numbers + self.hops:
            held += a.size + e.size
            (hd, pd), (hs, ps) = shapes[d], shapes[c]
            temp = max(temp, len(a) * ps + max(hd * pd, hs * ps))
        n = self.sector_dim
        return held + n + temp + eigensolver_entries(n)

    def _split(self, x: np.ndarray):
        return [x[i].reshape(shape) for i, shape in self._slices]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        xs = self._split(x)
        y = self.diagonal * x
        ys = self._split(y)
        for d, c, a, e in self.numbers + self.hops:
            ys[d] += (a @ xs[c]).reshape(len(ys[d]), -1) @ e
        for d, c, a, e in self.hops:
            ys[c] += a.T @ (xs[d] @ e.T).reshape(len(a), -1)
        return y

    def restrict(self, entries) -> np.ndarray:
        """The sector vector of a state given by its entries: (hole sector,
        rows, particle sector, rows, values), rows counted within each
        sector; entries outside the target sector are dropped."""
        x = np.zeros(self.sector_dim)
        xs, index = self._split(x), {s: k for k, s in enumerate(self.secs)}
        for sh, rh, sp, rp, values in entries:
            k = index.get(sh)
            if k is not None and sp == self.target - sh:
                u, v = self.blocks[k]
                xs[k] += (u[rh].T * values) @ v[rp]
        return x

    def schmidt(self, x: np.ndarray):
        """Kept-state candidates of both blocks from the Schmidt
        decomposition of the sector state x: per side, each block sector's
        vectors as columns and their weights; and the singular values of
        each paired hole sector.  One SVD per sector block b = U diag(sigma)
        V^T gives u U and v V, of weights sigma^2 (zero beyond the rank); a
        sector without a partner keeps its basis states at weight 0."""
        sides = [{s: (np.eye(d), np.zeros(d)) for s, d in dims.items()} for dims in self._unpaired]
        sigma = {}
        for s, (u, v), b in zip(self.secs, self.blocks, self._split(x)):
            left, sigma[s], right = np.linalg.svd(b)
            for side, key, vectors in zip(sides, (s, self.target - s), (u @ left, v @ right.T)):
                weights = np.zeros(len(vectors))
                weights[: len(sigma[s])] = sigma[s] * sigma[s]
                side[key] = (vectors, weights)
        return (*sides, sigma)


def _solve_superblock(hole, particle, model, target, config, guess=None):
    """Ground state of the superblock: E0, the superblock operator, the
    state x in its sector coordinates, and the solver record: matvecs,
    residual ||H psi - E0 psi||, the overlap |<v0|psi>| of the normalized
    guess (0 without one) and the eigensolver's seconds.  ``guess`` gives
    a start state by its entries, as ``_Superblock.restrict`` takes them."""
    op = _Superblock(hole, particle, model, target)
    g = None if guess is None else op.restrict(guess)
    v0 = g / np.linalg.norm(g) if g is not None and np.linalg.norm(g) > 1e-8 else None
    start = time.perf_counter()
    pairs = lowest_eigenpairs(op.matvec, op.sector_dim, tol=config.superblock_tol, v0=v0,
                              seed=config.seed, diagonal=op.diagonal)
    x = pairs.vectors[:, 0]
    record = {
        "residual": pairs.residual,
        "warm_start_overlap": 0.0 if v0 is None else float(abs(v0 @ x)),
        "matvecs": pairs.matvecs,
        "solve_s": time.perf_counter() - start,
    }
    return float(pairs.energies[0]), op, x, record


def reduced_density(psi: np.ndarray, side: str) -> np.ndarray:
    """Partial trace of |psi><psi| over the opposite block.

    psi must be the (hole dim, particle dim) superblock array with unit
    norm.  The result inherits block-diagonality over pair sectors from
    sector purity of psi.
    """
    psi = np.asarray(psi, dtype=float)
    if psi.ndim != 2:
        raise DimensionMismatch("superblock state must be a 2-d array")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-12:
        raise NotNormalized(f"|psi| = {norm!r} is not 1 within 1e-12")
    if side == "hole":
        return psi @ psi.T
    if side == "particle":
        return psi.T @ psi
    raise InvariantViolation(f"side must be 'hole' or 'particle', got {side!r}")


def _truncate_with_basis(block, states, m: int):
    """Keep the m candidate states of largest weight, in the order they
    are chosen, and project h and the modes onto them sector by sector;
    also return the discarded weight and the kept vectors per sector.
    ``states`` maps every block sector to its candidates as
    ``_Superblock.schmidt`` gives them: the vectors as the columns of a
    matrix over the sector's states, in descending weight, and weights."""
    secs = sorted(states)
    weights = np.concatenate([states[s][1] for s in secs])
    sector = np.repeat(secs, [len(states[s][1]) for s in secs])
    order = np.concatenate([np.arange(len(states[s][1])) for s in secs])
    # largest weight first; ties resolved by lower sector, then by the
    # order of the states within their sector
    keep = np.lexsort((order, sector, -weights))[:m]
    weight = min(max(1.0 - sum(weights[keep].tolist()), 0.0), 1.0)
    chosen, rank = sector[keep], order[keep]
    kept = {s: states[s][0][:, rank[chosen == s]] for s in np.unique(chosen).tolist()}
    return _project(block, chosen, kept), weight, kept


#: Seconds of an iteration's phases: block growth, superblock set-up (its
#: sector eigenbases, coupling terms and warm-start guess), the
#: eigensolver, and the Schmidt decomposition with both truncations.
PHASES = ("grow_s", "setup_s", "solve_s", "truncate_s")


@dataclass(frozen=True)
class IterationRecord:
    """One iteration: its superblock, energy and truncation, its solve as
    the eigensolver reports it: superblock matvecs (Davidson steps, or the
    dense build's columns), the residual ||H psi - E0 psi|| and the
    overlap |<v0|psi>| of the warm-start guess (0 when the solve had
    none), and the seconds of its ``PHASES``."""

    iteration: int
    levels_in_superblock: int
    target_pairs: int
    e0: float
    trunc_weight_hole: float
    trunc_weight_particle: float
    dim_hole: int
    dim_particle: int
    matvecs: int
    residual: float
    warm_start_overlap: float
    grow_s: float
    setup_s: float
    solve_s: float
    truncate_s: float


@dataclass(frozen=True)
class DmrgResult:
    """Per-iteration records plus the final energy and memory accounting.

    memory_peak_entries counts matrix entries actually stored in the two
    blocks at the worst moment: the block Hamiltonians' sector blocks plus
    the modes' explicit parts on their sector edges (a bare level stores
    none).  per_level_peak_entries counts the mode entries alone, as held
    (each raise edge once, each number block once); work_peak_entries
    covers solver scratch: the larger of the solve's (the superblock's
    sector blocks, matvec temporaries and eigensolver arrays) and the
    truncation's (both blocks' per-sector candidate vectors and weights
    from ``_Superblock.schmidt``, the kept ones and the singular values).
    """

    iterations: tuple
    final_energy: float
    memory_peak_entries: int
    per_level_peak_entries: int
    work_peak_entries: int
    m: int
    n_levels: int
    total_pairs: int
    wall_seconds: float


@_one_blas_thread()
def run_infinite(model: PairingModel, config: DmrgConfig) -> DmrgResult:
    """Full infinite-algorithm run: N/2 grow/solve/truncate iterations.

    Both blocks start as the vacuum and each iteration grows them by one
    step of the plan, solves the superblock and keeps, in each block, the
    m states of largest Schmidt weight of its ground state
    (ties go to the lower sector, then to the order within the sector).
    The kept states are Schmidt vectors, so the ground state on them is
    the singular values on the pairs both sides keep; it starts the next
    solve.  The last iteration's superblock is the whole system
    in the physical sector, so its E0 is the reported final energy.  The
    whole run, dense superblock solves included, keeps every OpenBLAS on
    one thread and gives each its count back on return or exception: its
    products are too small to gain wall time from a second thread, which
    only doubled their CPU time.
    """
    start = time.perf_counter()
    hole = particle = vacuum_block()
    records, carried = [], None
    peak_stored = peak_conventional = peak_work = 0
    for k, (new_h, new_p, target) in enumerate(_plan(model, config), 1):
        t0 = time.perf_counter()
        if new_h:
            hole = GrownBlock(hole, new_h, model)
        if new_p:
            particle = GrownBlock(particle, new_p, model)
        grown = _entries(hole, particle)
        t1 = time.perf_counter()
        guess = None
        if carried is not None and len(new_h) == len(new_p) == 1:
            delta = target - records[-1].target_pairs
            guess = _embed_guess(carried, model, hole, particle, delta)
        try:
            e0, op, x, solve = _solve_superblock(hole, particle, model, target, config, guess)
        except (NoConvergence, EmptySector) as exc:
            exc.args = (f"iteration {k}: {exc.args[0]}",) + exc.args[1:]
            raise
        t2 = time.perf_counter()
        hole_states, part_states, sigma = op.schmidt(x)
        hole, wh, w_hole = _truncate_with_basis(hole, hole_states, config.m)
        particle, wp, w_part = _truncate_with_basis(particle, part_states, config.m)
        carried = {
            (s, target - s): sv[: min(w_hole[s].shape[1], w_part[target - s].shape[1])]
            for s, sv in sigma.items()
            if s in w_hole and target - s in w_part
        }
        arrays = [*w_hole.values(), *w_part.values(), *sigma.values()]
        arrays += [a for side in (hole_states, part_states) for pair in side.values() for a in pair]
        peak_work = max(peak_work, op.work_entries(), sum(a.size for a in arrays))
        # hold neither the superblock nor the candidate states through the
        # next growth and solve
        del op, x, hole_states, part_states, w_hole, w_part, arrays
        for stored, per_level in (grown, _entries(hole, particle)):
            peak_stored = max(peak_stored, stored)
            peak_conventional = max(peak_conventional, per_level)
        records.append(
            IterationRecord(
                iteration=k,
                levels_in_superblock=len(hole.levels) + len(particle.levels),
                target_pairs=target,
                e0=e0,
                trunc_weight_hole=wh,
                trunc_weight_particle=wp,
                dim_hole=hole.dim,
                dim_particle=particle.dim,
                grow_s=t1 - t0,
                setup_s=t2 - t1 - solve["solve_s"],
                truncate_s=time.perf_counter() - t2,
                **solve,
            )
        )
    return DmrgResult(
        iterations=tuple(records),
        final_energy=records[-1].e0,
        memory_peak_entries=peak_stored,
        per_level_peak_entries=peak_conventional,
        work_peak_entries=peak_work,
        m=config.m,
        n_levels=model.n_levels,
        total_pairs=config.total_pairs,
        wall_seconds=time.perf_counter() - start,
    )


def _entries(hole, particle):
    """Stored and per-level matrix entries of the two blocks."""
    blocks = (hole, particle)
    return sum(b.stored_entries() for b in blocks), sum(b.per_level_entries() for b in blocks)


def _embed_guess(carried, model, hole, particle, delta):
    """Carry the previous ground state into the next superblock.

    ``carried`` maps each pair (hole sector, particle sector) of the kept
    blocks to the state's singular values there, one per pair of kept
    Schmidt states of equal rank.  It is re-expanded over the fresh bare
    levels of ``hole`` and ``particle`` with their exact local ground
    state at the pair count that supplies the target increment: both
    empty (delta 0), both occupied (2), or one pair in the ground state of
    ``[[2 eps_h, v1_hp], [v1_hp, 2 eps_p]]`` over (hole occupied, particle
    occupied) (1).  Returns the entries ``_Superblock.restrict`` takes.
    """
    level_h, level_p = hole.levels[-1], particle.levels[-1]
    chi = np.zeros((2, 2))
    chi[delta // 2, delta // 2] = delta != 1  # both levels empty (0) or full (2)
    if delta == 1:
        eps, hop = model.eps, model.v1[level_h, level_p]
        local = [[2.0 * eps[level_h], hop], [hop, 2.0 * eps[level_p]]]
        chi[1, 0], chi[0, 1] = np.linalg.eigh(local)[1][:, 0]
    entries = []
    for (sh, sp), sv in carried.items():
        for nh, nq in np.argwhere(chi).tolist():
            rows = hole.parts[sh + nh][nh][: len(sv)], particle.parts[sp + nq][nq][: len(sv)]
            entries.append((sh + nh, rows[0], sp + nq, rows[1], chi[nh, nq] * sv))
    return entries


def csv_text(rows) -> str:
    """Comma-separated table of ``rows``, dicts keyed alike, headed by the
    first row's keys: floats to 17 significant digits, other values by
    ``str`` in lower case (booleans as true and false)."""
    lines = [",".join(rows[0])]
    for row in rows:
        fields = (f"{v:.17g}" if isinstance(v, float) else str(v).lower() for v in row.values())
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def history_csv(result: DmrgResult) -> str:
    """Per-iteration convergence table: each ``IterationRecord``, with
    ``e0`` headed ``E0``."""
    rows = [asdict(r) for r in result.iterations]
    return csv_text([{"E0" if k == "e0" else k: v for k, v in row.items()} for row in rows])


def without_timings(result: DmrgResult) -> DmrgResult:
    """The result with its wall time and every phase time set to 0, so that
    outputs written from it repeat byte for byte."""
    zero = dict.fromkeys(PHASES, 0.0)
    iterations = tuple(replace(r, **zero) for r in result.iterations)
    return replace(result, wall_seconds=0.0, iterations=iterations)


def summary_dict(result: DmrgResult) -> dict:
    """Energy, sizes and ``memory_report``'s storage accounting of a run."""
    report = memory_report(result)
    return {
        "final_energy": float(result.final_energy),
        "m": result.m,
        "n_levels": result.n_levels,
        "total_pairs": result.total_pairs,
        "iterations": len(result.iterations),
        "memory_peak_entries": result.memory_peak_entries,
        "wall_seconds": result.wall_seconds,
        "per_level_peak_entries": report["per_level_peak_entries"],
        "work_peak_entries": report["work_peak_entries"],
        "block_operator_bound_entries": report["block_operator_bound_entries"],
        "within_bound": report["within_bound"],
    }


def memory_report(result: DmrgResult) -> dict:
    """Memory accounting against the 3*m^2*N block-operator budget.

    Raises InvariantViolation if the held mode entries exceeded the
    budget, or if total stored entries exceeded the budget plus the
    block-Hamiltonian allowance (4m)^2 + m^2: one block grown by two levels
    from at most m kept states next to one at most m.  Both hold for every
    m >= 2: a block of L levels has at most min(L, N - L) modes per kind,
    each holding at most m^2/4 (raise) or m^2 (number) entries on an
    m-state core, or m^2 and 2m^2 on the core of 2m states that a growth
    by two levels keeps, so each block holds at most 3 m^2 min(L, N - L).
    """
    bound = 3 * result.m**2 * result.n_levels
    overhead = (4 * result.m) ** 2 + result.m**2
    report = {
        "n_levels": result.n_levels,
        "m": result.m,
        "block_operator_bound_entries": bound,
        "per_level_peak_entries": result.per_level_peak_entries,
        "stored_peak_entries": result.memory_peak_entries,
        "work_peak_entries": result.work_peak_entries,
        "overhead_allowance_entries": overhead,
        "within_bound": (
            result.per_level_peak_entries <= bound
            and result.memory_peak_entries <= bound + overhead
        ),
    }
    if not report["within_bound"]:
        raise InvariantViolation(
            f"stored block operators exceed the budget: "
            f"{result.per_level_peak_entries} per-level entries vs bound {bound}, "
            f"{result.memory_peak_entries} stored vs {bound + overhead}"
        )
    return report
