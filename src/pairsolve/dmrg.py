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

Memory layout: a block over the levels L meets the rest of the model only
through v1 and v2 between L and the levels O outside it, so it stores
coupling modes: per operator kind, an orthonormal basis U of the row space
of that coupling and the operators sum_i U[i, r] o_i on its kept basis
(annihilation is the transpose; reduced BCS keeps one raise mode and no
number mode).  O only shrinks as a block grows, so growth writes the new
modes from the core's and the new bare levels', and the superblock
coupling is U_h^T v U_p.  No hot loop builds a per-level Kronecker product:
growth sums along the coupling first, truncation projects through reshapes
of the kept-state matrix, and the superblock matvec runs over the
(s, t - s) pair-sector blocks of its target sector t, each in the
eigenbasis of its two block Hamiltonians, whose diagonal preconditions
the Davidson solve, with the coupling's R factored terms stacked per edge
between sector blocks, so an edge costs two products whatever R is.  A
grown block drops the core Hamiltonian.  Stored mode entries, counted in
the 3-per-level convention as two per raise mode and one per number
mode, stay within 3*m^2*N for every m >= 2; the two block Hamiltonians
add at most (4m)^2 + m^2 entries (only one side grows by two levels in an
iteration, and then the other does not grow).  Solver work arrays are
accounted separately.
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

#: One level's pair creation and number operator, indexed by mode kind.
_SITES = (np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 2.0]]))
_RAISE, _NUMBER = 0, 1

#: Singular values below this relative cutoff are dropped when a coupling
#: is factored into modes.
_SVD_CUT = 1e-13


class Modes(NamedTuple):
    """One operator kind's r modes: mode r is sum_i span[i, r] o_i over the
    block's levels (orthonormal columns), and ``ops[r]`` is its part on the
    explicit levels, on the core basis; the bare rows give the rest."""

    ops: np.ndarray
    span: np.ndarray


class Block:
    """A set of levels: explicit leading levels and bare trailing levels.

    The basis is core-major, index = a * 2**n_bare + s.  ``a`` runs over a
    kept basis of dim ``core_dim``, on which the explicit part of every
    coupling mode is stored.  ``s`` runs over the occupation patterns of
    the trailing ``n_bare`` levels, the last level fastest; bare levels
    store nothing.  ``modes`` holds the raise and the number ``Modes``.
    Also stores pair-number sector labels and the block Hamiltonian on the
    full basis.  Instances are treated as immutable.
    """

    def __init__(self, levels, sectors, h, modes, n_bare=0):
        self.levels = tuple(int(x) for x in levels)
        self.sectors = np.asarray(sectors, dtype=int)
        self.h = np.asarray(h, dtype=float)
        self.modes = tuple(
            Modes(np.asarray(ops, dtype=float), np.asarray(span, dtype=float))
            for ops, span in modes
        )
        self.n_bare = n_bare
        if self.h.shape != (self.dim, self.dim) or self.dim % (1 << n_bare):
            raise InvariantViolation(
                f"block Hamiltonian shape {self.h.shape} does not match dim {self.dim}"
            )
        square = (self.core_dim, self.core_dim)
        for ops, span in self.modes:
            if span.shape != (len(self.levels), len(ops)) or ops.shape[1:] != square:
                raise InvariantViolation("modes do not match the levels and the core dim")

    @property
    def dim(self) -> int:
        return len(self.sectors)

    @property
    def core_dim(self) -> int:
        return self.dim >> self.n_bare

    def _mode_sum(self, kind: int, y) -> np.ndarray:
        """sum_r y[r, c] (mode r of ``kind``) on the block basis, one
        operator per column c of the r x R weights y, stacked (R, dim, dim)."""
        ops, span = self.modes[kind]
        out = np.einsum("rc,rij->cij", y, ops)
        for c in span[len(span) - self.n_bare :] @ y:  # bare levels, in order
            out = _kron_sum(out, np.multiply.outer(c, _SITES[kind]))
        return out

    def stored_entries(self) -> int:
        """Matrix entries held on the block basis: h and the modes' explicit
        parts (the |L| x r mode coefficients are not counted)."""
        return self.h.size + sum(m.ops.size for m in self.modes)

    def per_level_entries(self) -> int:
        """Stored mode entries in the 3-per-level convention: creation and
        annihilation per raise mode, one per number mode."""
        raises, numbers = (m.ops.shape[0] for m in self.modes)
        return (2 * raises + numbers) * self.core_dim * self.core_dim


def _kron_sum(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x (x) I + I (x) y, written straight onto the diagonals it touches;
    leading axes of x and y stack operators pairwise."""
    *stack, dx, _ = x.shape
    dy = y.shape[-1]
    out = np.zeros((*stack, dx, dy, dx, dy))
    # einsum's diagonal views are writeable
    np.einsum("...ajbj->...abj", out)[...] = x[..., None]
    np.einsum("...iaib->...iab", out)[...] += y[..., None, :, :]
    return out.reshape(*stack, dx * dy, dx * dy)


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron(x, y) for a small y: one strided product per entry of y,
    where np.kron broadcasts over inner axes of y's size."""
    (a, b), (c, d) = x.shape, y.shape
    out = np.empty((a, c, b, d))
    for i, j in np.ndindex(c, d):
        np.multiply(x, y[i, j], out=out[:, i, :, j])
    return out.reshape(a * c, b * d)


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
    levels of a and b, X = a._mode_sum(kind, ya), Y = b._mode_sum(kind, yb)."""
    u, s, vt = _svd(a.modes[kind].span.T @ coupling @ b.modes[kind].span)
    w = np.sqrt(s)
    return s, u * w, vt.T * w


def _join(a: Block, b: Block, model: PairingModel):
    """Sector labels and Hamiltonian on A (x) B, B fastest.

    The a-b coupling is summed over the modes first, so every factored
    term costs one Kronecker product per operator kind.
    """
    h = _kron_sum(a.h, b.h)
    ix = np.ix_(list(a.levels), list(b.levels))
    for kind, coupling in ((_RAISE, model.v1[ix]), (_NUMBER, 2.0 * model.v2[ix])):
        s, ya, yb = _factor(a, b, coupling, kind)
        for x, y in zip(a._mode_sum(kind, ya), b._mode_sum(kind, yb)) if len(s) else ():
            if kind == _NUMBER:
                h += _kron(x, y)
                continue
            hop = _kron(x, y.T)
            h += hop
            h += hop.T
    return np.add.outer(a.sectors, b.sectors).ravel(), h


def _bare_block(levels, sectors, h) -> Block:
    """An all-bare block whose modes are its levels' own operators."""
    own = Modes(np.zeros((len(levels), 1, 1)), np.eye(len(levels)))
    return Block(levels, sectors, h, (own, own), len(levels))


def vacuum_block() -> Block:
    """The empty block: one state, zero pairs, no levels."""
    return _bare_block((), [0], [[0.0]])


def _grow_modes(modes: Modes, coupling: np.ndarray) -> Modes:
    """Modes after new bare levels join: the left singular vectors of the
    coupling (old levels' rows first) to the levels still outside, over
    the old modes and the new levels' own operators."""
    ops, span = modes
    n, r = span.shape
    p = _svd(np.vstack([span.T @ coupling[:n], coupling[n:]]))[0]
    return Modes(np.einsum("rs,rij->sij", p[:r], ops), np.vstack([span @ p[:r], p[r:]]))


class GrownBlock(Block):
    """``core`` enlarged by bare ``levels``.

    The new levels are first combined exactly, one at a time, and then
    joined to the core.  The grown block's modes factor its coupling to the
    levels of ``model`` outside it; their explicit parts are combinations of
    the core's, and the core's Hamiltonian is not kept.
    """

    def __init__(self, core: Block, levels, model: PairingModel):
        levels = tuple(int(x) for x in levels)
        if len(set(core.levels + levels)) != len(core.levels) + len(levels):
            raise InvariantViolation(
                f"levels {list(levels)} repeat a level or one of {list(core.levels)}"
            )
        add = vacuum_block()
        for j, level in enumerate(levels):
            site_h = np.diag([0.0, 2.0 * float(model.eps[level])])
            site = _bare_block((level,), [0, 1], site_h)
            add = _bare_block(levels[: j + 1], *_join(add, site, model))
        inside = core.levels + levels
        ix = np.ix_(inside, np.setdiff1d(np.arange(model.n_levels), inside))
        couplings = (model.v1[ix], 2.0 * model.v2[ix])
        super().__init__(
            inside,
            *_join(core, add, model),
            [_grow_modes(m, v) for m, v in zip(core.modes, couplings)],
            core.n_bare + len(levels),
        )


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
    the eigenbasis of its two block-Hamiltonian sub-blocks, where
    ``hh_s (x) 1 + 1 (x) hp_s`` is the elementwise product with
    ``D_s = e_h[:, None] + e_p[None, :]``.  A coupling is factored by SVD
    of the r_h x r_p mode coupling into R terms A_r (x) C_r (the singular
    values are ``raise_terms`` and ``number_terms``).  Each sector edge
    (dst, src), number terms on (s, s) and pair hops between s and s + 1,
    stacks its R rotated terms: A as (h_dst R) x h_src, C as (R p_src) x
    p_dst, so that A @ x viewed as h_dst x (R p_src), times C, is
    sum_r A_r x C_r, and a hop's reverse reads both transposed.  The vector
    holds the blocks in order of s, each row-major; ``embed`` and
    ``restrict`` rotate to and from the dh x dp product space, ``diagonal``
    is D, and ``schmidt`` decomposes a state into the two blocks' states.
    """

    def __init__(self, hole, particle, model: PairingModel, target: int):
        self.dh, self.dp = hole.dim, particle.dim
        secs = [s for s in np.unique(hole.sectors) if target - s in particle.sectors]
        if not secs:
            raise EmptySector(
                f"no states with {target} pairs in a "
                f"{self.dh}x{self.dp} superblock"
            )
        self.secs = secs
        hs = [np.flatnonzero(hole.sectors == s) for s in secs]
        ps = [np.flatnonzero(particle.sectors == target - s) for s in secs]
        eh, uh = zip(*(np.linalg.eigh(hole.h[np.ix_(h, h)]) for h in hs))
        ep, up = zip(*(np.linalg.eigh(particle.h[np.ix_(p, p)]) for p in ps))
        self.blocks = list(zip(hs, ps, uh, up))
        self.diagonal = np.concatenate([np.add.outer(a, b).ravel() for a, b in zip(eh, ep)])
        ends = np.cumsum([len(h) * len(p) for h, p in zip(hs, ps)])
        self._slices = [
            (slice(end - len(h) * len(p), end), (len(h), len(p)))
            for end, h, p in zip(ends, hs, ps)
        ]
        # a hop is applied both ways, each at the cost R h_dst p_src
        # (h_src + p_dst) of the direction it is stored in
        cost = lambda d, c: len(hs[d]) * len(ps[c]) * (len(hs[c]) + len(ps[d]))
        hops = [min((k + 1, k), (k, k + 1), key=lambda edge: cost(*edge))
                for k in range(len(secs) - 1) if secs[k + 1] == secs[k] + 1]
        ix = np.ix_(list(hole.levels), list(particle.levels))
        self.raise_terms, self.hops = self._stack(hole, particle, model.v1[ix], _RAISE, hops)
        self.number_terms, self.numbers = self._stack(
            hole, particle, 2.0 * model.v2[ix], _NUMBER, [(k, k) for k in range(len(secs))]
        )

    def _stack(self, hole, particle, coupling, kind, edges):
        """Singular values of the factored coupling and its terms stacked per
        edge as (dst, src, A, C), formed one term (per side) at a time."""
        s, ya, yb = _factor(hole, particle, coupling, kind)
        edges = edges if len(s) else []
        hs, ps, uh, up = zip(*self.blocks)
        cuts = [(np.ix_(hs[d], hs[c]), np.ix_(ps[c], ps[d])) for d, c in edges]
        a = [np.empty((len(hs[d]), len(s), len(hs[c]))) for d, c in edges]
        e = [np.empty((len(s), len(ps[c]), len(ps[d]))) for d, c in edges]
        for r in range(len(s)):
            x, y = hole._mode_sum(kind, ya[:, [r]])[0], particle._mode_sum(kind, yb[:, [r]])[0]
            for (d, c), (ih, ip), ar, er in zip(edges, cuts, a, e):
                xe, ye = (x, y) if d >= c else (x.T, y.T)  # the hop lowering the hole
                ar[:, r] = uh[d].T @ xe[ih] @ uh[c]
                er[r] = up[c].T @ ye[ip] @ up[d]
        return s, [(d, c, ar.reshape(-1, len(hs[c])), er.reshape(-1, len(ps[d])))
                   for (d, c), ar, er in zip(edges, a, e)]

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
        held += sum(u.size + v.size for _, _, u, v in self.blocks)
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

    def embed(self, x: np.ndarray) -> np.ndarray:
        psi = np.zeros((self.dh, self.dp))
        for (h, p, u, v), b in zip(self.blocks, self._split(x)):
            psi[np.ix_(h, p)] = u @ b @ v.T
        return psi

    def restrict(self, psi: np.ndarray) -> np.ndarray:
        psi = np.reshape(psi, (self.dh, self.dp))
        return np.concatenate(
            [(u.T @ psi[np.ix_(h, p)] @ v).ravel() for h, p, u, v in self.blocks]
        )

    def schmidt(self, x: np.ndarray):
        """Candidate kept states of the hole and the particle block from
        the Schmidt decomposition of the sector state x: per side, the
        vectors as the columns of a dim x dim matrix and their weights.

        One SVD per sector block b = U diag(sigma) V^T writes the block
        vectors u U and v V on the sector's rows and columns, of weights
        sigma^2 on its first rows (zero beyond the rank); a block sector
        without a partner on the other side keeps its basis states, the
        identity's columns, at weight 0.
        """
        sides = [(np.eye(d), np.zeros(d)) for d in (self.dh, self.dp)]
        for (h, p, u, v), b in zip(self.blocks, self._split(x)):
            left, sigma, right = np.linalg.svd(b)
            for (vectors, weights), rows, states in zip(sides, (h, p), (u @ left, v @ right.T)):
                vectors[np.ix_(rows, rows)] = states
                weights[rows[: len(sigma)]] = sigma * sigma
        return sides


def _solve_superblock(hole, particle, model, target, config, guess=None):
    """Ground state of the superblock: E0, the superblock operator, the
    state x in its sector coordinates, and the solver record: matvecs,
    residual ||H psi - E0 psi||, the overlap |<v0|psi>| of the normalized
    guess (0 without one) and the eigensolver's seconds."""
    op = _Superblock(hole, particle, model, target)
    v0 = None
    if guess is not None and guess.shape == (op.dh, op.dp):
        g = op.restrict(guess)
        norm = np.linalg.norm(g)
        if norm > 1e-8:
            v0 = g / norm
    start = time.perf_counter()
    pairs = lowest_eigenpairs(
        op.matvec,
        op.sector_dim,
        tol=config.superblock_tol,
        v0=v0,
        seed=config.seed,
        diagonal=op.diagonal,
    )
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
    """Keep the m candidate states of largest weight and project h and the
    coupling modes onto them; also return the kept-state column matrix W
    for guess embedding.

    ``states`` is the block's (vectors, weights) as ``_Superblock.schmidt``
    gives them: the candidates as the columns of a dim x dim matrix, each
    sector's in its own rows and columns, in descending weight.
    """
    vectors, weights = states
    # largest weight first; ties resolved by lower sector, then by the
    # order of the states within their sector
    keep = np.lexsort((np.arange(block.dim), block.sectors, -weights))[:m]
    w = vectors[:, keep]
    k = w.shape[1]
    weight = min(max(1.0 - sum(weights[keep].tolist()), 0.0), 1.0)
    # explicit parts act on the core index, bare level j on bit j after it
    core, nb = w.reshape(block.core_dim, -1), block.n_bare
    modes = []
    for kind, (ops, span) in enumerate(block.modes):
        ops = np.array([w.T @ (a @ core).reshape(w.shape) for a in ops]).reshape(-1, k, k)
        for j in range(nb if len(ops) else 0):
            w0, w1 = np.moveaxis(w.reshape(block.core_dim << j, 2, -1, k), 1, 0)
            w0, w1 = w0.reshape(-1, k), w1.reshape(-1, k)
            site = w1.T @ w0 if kind == _RAISE else 2.0 * (w1.T @ w1)
            ops += np.multiply.outer(span[j - nb], site)
        modes.append(Modes(ops, span))
    new = Block(block.levels, block.sectors[keep], w.T @ block.h @ w, modes)
    return new, weight, w


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
    blocks at the worst moment: block Hamiltonians plus the explicit parts
    of the coupling modes (bare levels store none).  per_level_peak_entries
    counts the modes alone in the 3-per-level convention (creation plus
    annihilation per raise mode, one per number mode); work_peak_entries
    covers solver scratch: the larger of the solve's (the superblock's
    sector blocks, matvec temporaries and eigensolver arrays) and the
    truncation's (both blocks' dim x dim candidate matrices and weights
    from ``_Superblock.schmidt``, their kept-state matrices, the dense
    ground state and its part on the kept states).
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
    (``_Superblock.schmidt`` gives each side's candidates as one dim x dim
    matrix and their weights; ties go to the lower sector, then to the
    order within the sector).  The ground state on the kept states starts
    the next solve.  The last iteration's
    superblock is the whole system in the physical sector, so its E0 is
    the reported final energy.  The whole run, dense superblock solves
    included, keeps every OpenBLAS on one thread and gives each its count
    back on return or exception: its products are too small to gain wall
    time from a second thread, which only doubled their CPU time.
    """
    start = time.perf_counter()
    hole = particle = vacuum_block()
    records = []
    peak_stored = peak_conventional = peak_work = 0
    carried = None
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
            guess = _embed_guess(carried, model, new_h[0], new_p[0], delta)
        try:
            e0, op, x, solve = _solve_superblock(hole, particle, model, target, config, guess)
        except (NoConvergence, EmptySector) as exc:
            exc.args = (f"iteration {k}: {exc.args[0]}",) + exc.args[1:]
            raise
        t2 = time.perf_counter()
        hole_states, part_states = op.schmidt(x)
        hole, wh, w_hole = _truncate_with_basis(hole, hole_states, config.m)
        particle, wp, w_part = _truncate_with_basis(particle, part_states, config.m)
        psi = op.embed(x)
        carried = w_hole.T @ psi @ w_part
        held = sum(a.size for a in hole_states + part_states)
        held += w_hole.size + w_part.size + psi.size + carried.size
        peak_work = max(peak_work, op.work_entries(), held)
        # hold neither the superblock nor the candidate states through the
        # next growth and solve
        del op, x, hole_states, part_states, w_hole, w_part, psi
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
    return (
        hole.stored_entries() + particle.stored_entries(),
        hole.per_level_entries() + particle.per_level_entries(),
    )


def _embed_guess(carried, model, level_h, level_p, delta):
    """Carry the previous ground state into the next superblock.

    The state on the kept states, ``carried``, is re-expanded over the
    fresh hole level ``level_h`` and particle level ``level_p`` with their
    exact local ground state at the pair count that supplies the target
    increment: both empty (delta 0), both occupied (2), or one pair in the
    ground state of ``[[2 eps_h, v1_hp], [v1_hp, 2 eps_p]]`` over (hole
    occupied, particle occupied) (1).
    """
    chi = np.zeros((2, 2))
    if delta == 0:
        chi[0, 0] = 1.0
    elif delta == 1:
        eps, hop = model.eps, model.v1[level_h, level_p]
        local = [[2.0 * eps[level_h], hop], [hop, 2.0 * eps[level_p]]]
        chi[1, 0], chi[0, 1] = np.linalg.eigh(local)[1][:, 0]
    else:
        chi[1, 1] = 1.0
    return _kron(carried, chi)


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
    return replace(
        result,
        wall_seconds=0.0,
        iterations=tuple(replace(r, **zero) for r in result.iterations),
    )


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

    Raises InvariantViolation if per-level operator storage exceeded the
    budget, or if total stored entries exceeded the budget plus the
    block-Hamiltonian allowance (4m)^2 + m^2: one block grown by two levels
    from at most m kept states next to one at most m.  Both hold for every
    m >= 2.
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
