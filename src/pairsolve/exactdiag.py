"""Exact spectra in the seniority-zero pair sector.

Provides a matrix-free Hamiltonian action over a PairBasis, a dense
full-spectrum solver for small sectors (the verification oracle), an
iterative ground-state solver for large ones, and lowest_eigenpairs, the
eigensolver entry point that the DMRG superblock solve shares.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .basis import PairBasis, enumerate_basis
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NoConvergence,
    PatternMismatch,
    TooLarge,
)
from .model import PairingModel

#: Largest sector handled by the dense solver unless overridden.
DENSE_THRESHOLD = 4000

#: lowest_eigenpairs diagonalizes operators up to this size densely.
_DENSE_FALLBACK_DIM = 64

#: Hop index tables are precomputed while their total entry count stays
#: under this; beyond it they are regenerated on every application.
_HOP_CACHE_BUDGET = 1 << 25

_DIAG_CHUNK = 1 << 16


def matrix_element(model: PairingModel, s: int, t: int) -> float:
    """Hamiltonian matrix element between two occupation patterns.

    Diagonal: 2*sum(eps over occupied) + 4*sum(v2 over ordered occupied
    pairs).  A single pair moved between levels i and j gives v1[i][j];
    everything else vanishes.  Pairs carry no fermionic sign factors.
    """
    if s.bit_count() != t.bit_count():
        raise PatternMismatch(
            f"patterns {s:#x} and {t:#x} hold different pair counts"
        )
    n = model.n_levels
    if s == t:
        occ = [i for i in range(n) if (s >> i) & 1]
        diag = 2.0 * sum(model.eps[i] for i in occ)
        diag += 4.0 * sum(model.v2[i, j] for i in occ for j in occ if i != j)
        return float(diag)
    x = s ^ t
    if x.bit_count() == 2 and (s & x) and (t & x):
        i = (x & -x).bit_length() - 1
        j = x.bit_length() - 1
        return float(model.v1[i, j])
    return 0.0


class HamiltonianAction:
    """Cached matrix-free action of one model on one sector.

    The diagonal is computed once.  For every unordered level pair with a
    nonzero hop coupling, the source/destination ordinal tables of the pair
    move are either precomputed (small sectors) or regenerated per call.
    """

    def __init__(self, model: PairingModel, basis: PairBasis):
        if model.n_levels != basis.n_levels:
            raise DimensionMismatch(
                f"model has {model.n_levels} levels, basis {basis.n_levels}"
            )
        self.model = model
        self.basis = basis
        self.diagonal = self._build_diagonal()
        self._pairs = [
            (i, j, float(model.v1[i, j]))
            for i in range(model.n_levels)
            for j in range(i + 1, model.n_levels)
            if model.v1[i, j] != 0.0
        ]
        import math

        per_pair = math.comb(
            max(basis.n_levels - 2, 0), max(basis.n_pairs - 1, 0)
        ) if 1 <= basis.n_pairs <= basis.n_levels - 1 else 0
        self._cache = None
        if len(self._pairs) * per_pair <= _HOP_CACHE_BUDGET:
            self._cache = [
                (c,) + self._hops(i, j) for i, j, c in self._pairs
            ]

    def _build_diagonal(self) -> np.ndarray:
        eps, v2 = self.model.eps, self.model.v2
        patterns = self.basis.patterns
        bits = np.arange(self.basis.n_levels, dtype=np.int64)
        diag = np.empty(len(patterns))
        for lo in range(0, len(patterns), _DIAG_CHUNK):
            chunk = patterns[lo : lo + _DIAG_CHUNK]
            occ = ((chunk[:, None] >> bits[None, :]) & 1).astype(float)
            part = occ @ v2
            diag[lo : lo + _DIAG_CHUNK] = 2.0 * occ @ eps + 4.0 * np.einsum(
                "ai,ai->a", part, occ
            )
        return diag

    def _hops(self, i: int, j: int):
        """Ordinal tables of the pair move between levels i and j.

        src holds states with level j occupied and level i empty; dst holds
        the same states with the pair moved, a bijection within the sector.
        """
        patterns = self.basis.patterns
        mask = ((patterns >> j) & 1 == 1) & ((patterns >> i) & 1 == 0)
        src = np.nonzero(mask)[0]
        moved = patterns[src] ^ ((1 << i) | (1 << j))
        dst = np.searchsorted(patterns, moved)
        return src, dst

    def apply(self, x: np.ndarray) -> np.ndarray:
        """y = H x without materializing H; fixed summation order."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.basis.dim,):
            raise DimensionMismatch(
                f"amplitude vector has shape {x.shape}, basis size is "
                f"{self.basis.dim}"
            )
        y = self.diagonal * x
        tables = self._cache
        if tables is None:
            tables = ((c,) + self._hops(i, j) for i, j, c in self._pairs)
        for c, src, dst in tables:
            # dst ordinals are distinct for a fixed level pair, so fancy
            # indexing accumulates safely
            y[dst] += c * x[src]
            y[src] += c * x[dst]
        return y

    def dense_matrix(self) -> np.ndarray:
        """Explicit symmetric matrix; intended for small sectors only."""
        dim = self.basis.dim
        h = np.zeros((dim, dim))
        h[np.arange(dim), np.arange(dim)] = self.diagonal
        for i, j, c in self._pairs:
            src, dst = self._hops(i, j)
            h[dst, src] += c
            h[src, dst] += c
        return h


def apply(model: PairingModel, basis: PairBasis, x: np.ndarray) -> np.ndarray:
    """One-shot H x; build a HamiltonianAction to amortize repeated use."""
    return HamiltonianAction(model, basis).apply(x)


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of one sector, ascending, with a residual certificate.

    ``residual`` is max ||H v - E v|| over the eigenpairs the solver
    actually formed vectors for; ``method`` records which solver produced
    the numbers ("dense" or "iterative").
    """

    energies: np.ndarray
    residual: float
    method: str
    n_levels: int
    n_pairs: int
    ground_vector: Optional[np.ndarray] = None

    def to_json_dict(self) -> dict:
        return {
            "energies": [float(e) for e in self.energies],
            "residual": float(self.residual),
            "method": self.method,
            "n_levels": self.n_levels,
            "n_pairs": self.n_pairs,
        }


def _residual(matvec, energies, vectors) -> float:
    worst = 0.0
    for e, v in zip(energies, vectors.T):
        r = float(np.linalg.norm(matvec(v) - e * v))
        worst = max(worst, r)
    return worst


def _ascending(energies, vectors):
    order = np.argsort(energies)
    return energies[order], vectors[:, order]


def check_solver_args(tol: float, seed: int):
    """Reject a tolerance that is not finite and positive, or a negative
    seed, with InvariantViolation."""
    if not 0 < tol < np.inf:
        raise InvariantViolation(f"tol must be finite and positive, got {tol}")
    if seed < 0:
        raise InvariantViolation(f"seed must be nonnegative, got {seed}")


def lowest_eigenpairs(matvec, n, k=1, *, tol, v0=None, seed=0, maxiter=None):
    """Lowest k eigenpairs of the symmetric operator ``matvec`` on R^n.

    Returns (energies ascending, eigenvectors as columns, "dense" or
    "iterative").  Up to the dense fallback size, or with k > n - 2, the
    matrix is built column by column and diagonalized; otherwise ARPACK
    starts from ``v0`` or a normal vector drawn from ``seed``, with
    ``tol`` relative to its spectral scale estimate.  NoConvergence
    carries the settled energies, ascending, and their worst residual.
    """
    if not 1 <= k <= n:
        raise InvariantViolation(f"k must be in 1..{n}, got {k}")
    check_solver_args(tol, seed)
    if n <= _DENSE_FALLBACK_DIM or k > n - 2:
        h = np.empty((n, n))
        e = np.zeros(n)
        for i in range(n):
            e[i] = 1.0
            h[:, i] = matvec(e)
            e[i] = 0.0
        # a negative diagonal times 0 leaves -0.0, which can flip eigh's
        # Householder signs; dense_matrix holds +0.0 there
        h += 0.0
        energies, vectors = scipy.linalg.eigh(h)
        return energies[:k], vectors[:, :k], "dense"
    if v0 is None:
        v0 = np.random.default_rng(seed).standard_normal(n)
        v0 /= np.linalg.norm(v0)
    op = scipy.sparse.linalg.LinearOperator((n, n), matvec=matvec, dtype=float)
    try:
        energies, vectors = scipy.sparse.linalg.eigsh(
            op, k=k, which="SA", tol=tol, v0=v0, maxiter=maxiter
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        best = residual = None
        if len(exc.eigenvalues):
            best, vecs = _ascending(exc.eigenvalues, exc.eigenvectors)
            residual = _residual(matvec, best, vecs)
        raise NoConvergence(
            f"eigensolver did not converge within the allowed steps "
            f"({len(exc.eigenvalues)} of {k} eigenpairs settled)",
            energies=best,
            residual=residual,
        ) from None
    return (*_ascending(energies, vectors), "iterative")


def dense_spectrum(
    model: PairingModel,
    basis: PairBasis,
    dense_threshold: int = DENSE_THRESHOLD,
) -> SpectrumResult:
    """Full spectrum by direct diagonalization; the small-sector oracle."""
    if basis.dim > dense_threshold:
        raise TooLarge(
            f"sector size {basis.dim} exceeds the dense threshold "
            f"{dense_threshold}"
        )
    action = HamiltonianAction(model, basis)
    h = action.dense_matrix()
    energies, vectors = scipy.linalg.eigh(h)
    return SpectrumResult(
        energies=energies,
        residual=_residual(action.apply, energies, vectors),
        method="dense",
        n_levels=basis.n_levels,
        n_pairs=basis.n_pairs,
        ground_vector=vectors[:, 0].copy(),
    )


def iterative_ground(
    model: PairingModel,
    basis: PairBasis,
    k: int = 1,
    tol: float = 1e-10,
    seed: int = 0,
    max_iterations: Optional[int] = None,
) -> SpectrumResult:
    """Lowest k eigenvalues by a restarted Krylov iteration.

    ``tol`` is relative, in units of the solver's spectral scale estimate.
    The start vector is drawn from ``seed``, making the run deterministic.
    Sectors at or below the dense fallback size (or with k too close to
    the full dimension for the iteration to run) are solved densely.
    """
    action = HamiltonianAction(model, basis)
    energies, vectors, method = lowest_eigenpairs(
        action.apply, basis.dim, k, tol=tol, seed=seed, maxiter=max_iterations
    )
    return SpectrumResult(
        energies=energies,
        residual=_residual(action.apply, energies, vectors),
        method=method,
        n_levels=basis.n_levels,
        n_pairs=basis.n_pairs,
        ground_vector=vectors[:, 0].copy(),
    )


__all__ = [
    "DENSE_THRESHOLD",
    "HamiltonianAction",
    "PairBasis",
    "SpectrumResult",
    "apply",
    "dense_spectrum",
    "enumerate_basis",
    "iterative_ground",
    "matrix_element",
]
