"""Whole-basis reference for DMRG blocks: the dense formulas that stored
every block Hamiltonian and mode operator as a dim x dim matrix, kept to
check the sector-keyed blocks of ``pairsolve.dmrg`` against.

A reference block has dense ``h`` over its whole basis and per operator
kind ``(ops, span)``: ``ops[q]`` is mode q's part on the core basis and
the ``n_bare`` trailing levels are bare, index = a * 2**n_bare + pattern,
the last level fastest, as in ``pairsolve.dmrg``.
"""
from types import SimpleNamespace

import numpy as np

SITES = (np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0], [0.0, 2.0]]))


def kron_sum(x, y):
    """x (x) I + I (x) y, leading axes stacking operators pairwise."""
    *stack, dx, _ = x.shape
    dy = y.shape[-1]
    out = np.zeros((*stack, dx, dy, dx, dy))
    np.einsum("...ajbj->...abj", out)[...] = x[..., None]
    np.einsum("...iaib->...iab", out)[...] += y[..., None, :, :]
    return out.reshape(*stack, dx * dy, dx * dy)


def block(levels, sectors, h, modes, n_bare=0):
    return SimpleNamespace(
        levels=tuple(levels), sectors=np.asarray(sectors), h=np.asarray(h, dtype=float),
        modes=tuple(modes), n_bare=n_bare, dim=len(sectors),
    )


def mode_sum(b, kind, y):
    """sum_q y[q, c] (mode q of ``kind``) on the whole basis, (R, dim, dim)."""
    ops, span = b.modes[kind]
    out = np.einsum("rc,rij->cij", y, ops)
    for c in span[len(span) - b.n_bare :] @ y:
        out = kron_sum(out, np.multiply.outer(c, SITES[kind]))
    return out


def level_operators(b, kind):
    """sum_q span[i, q] (mode q) for every level i: independent of the
    modes' orthonormal basis, (L, dim, dim)."""
    return mode_sum(b, kind, b.modes[kind][1].T)


def _svd(k):
    if not np.any(k):
        return np.zeros((k.shape[0], 0)), np.zeros(0), np.zeros((0, k.shape[1]))
    u, s, vt = np.linalg.svd(k, full_matrices=False)
    r = int(np.count_nonzero(s > 1e-13 * s[0]))
    return u[:, :r], s[:r], vt[:r]


def join(a, b, model):
    """Sector labels and dense Hamiltonian on A (x) B, B fastest."""
    h = kron_sum(a.h, b.h)
    ix = np.ix_(list(a.levels), list(b.levels))
    for kind, coupling in ((0, model.v1[ix]), (1, 2.0 * model.v2[ix])):
        u, s, vt = _svd(a.modes[kind][1].T @ coupling @ b.modes[kind][1])
        w = np.sqrt(s)
        for x, y in zip(mode_sum(a, kind, u * w), mode_sum(b, kind, vt.T * w)) if len(s) else ():
            hop = np.kron(x, y if kind else y.T)
            h += hop if kind else hop + hop.T
    return np.add.outer(a.sectors, b.sectors).ravel(), h


def bare(levels, sectors, h):
    own = (np.zeros((len(levels), 1, 1)), np.eye(len(levels)))
    return block(levels, sectors, h, (own, own), len(levels))


def vacuum():
    return bare((), [0], [[0.0]])


def grow(core, levels, model):
    """``core`` enlarged by the bare ``levels``, the new levels combined
    exactly first and then joined to it."""
    add = vacuum()
    for j, level in enumerate(levels):
        site = bare((level,), [0, 1], np.diag([0.0, 2.0 * model.eps[level]]))
        add = bare(tuple(levels[: j + 1]), *join(add, site, model))
    inside = core.levels + tuple(levels)
    ix = np.ix_(inside, np.setdiff1d(np.arange(model.n_levels), inside))
    modes = []
    for (ops, span), coupling in zip(core.modes, (model.v1[ix], 2.0 * model.v2[ix])):
        n, r = span.shape
        p = _svd(np.vstack([span.T @ coupling[:n], coupling[n:]]))[0]
        modes.append((np.einsum("rs,rij->sij", p[:r], ops), np.vstack([span @ p[:r], p[r:]])))
    return block(inside, *join(core, add, model), modes, core.n_bare + len(levels))


def truncate(b, w):
    """The block projected on the columns of w, a (dim, k) matrix."""
    k = w.shape[1]
    core, nb = w.reshape(b.dim >> b.n_bare, -1), b.n_bare
    modes = []
    for kind, (ops, span) in enumerate(b.modes):
        ops = np.array([w.T @ (a @ core).reshape(w.shape) for a in ops]).reshape(-1, k, k)
        for j in range(nb if len(ops) else 0):
            w0, w1 = np.moveaxis(w.reshape((b.dim >> nb) << j, 2, -1, k), 1, 0)
            w0, w1 = w0.reshape(-1, k), w1.reshape(-1, k)
            site = w1.T @ w0 if kind == 0 else 2.0 * (w1.T @ w1)
            ops += np.multiply.outer(span[j - nb], site)
        modes.append((ops, span))
    sectors = np.array([b.sectors[np.flatnonzero(col)[0]] for col in w.T])
    return block(b.levels, sectors, w.T @ b.h @ w, modes)
