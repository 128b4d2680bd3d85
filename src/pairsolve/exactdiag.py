"""Exact spectra in the seniority-zero pair sector.

Provides a matrix-free Hamiltonian action over a PairBasis (C (v1 (x) 1)
C^T with one sparse pair-lowering matrix C, or g (P^T P - min(M, N-M))
for the constant hop g of reduced BCS); iterative_ground, the one exact
diagonalization path, which solves small sectors by numpy's eigh of the
sparse product C (K (x) 1) C^T and larger ones by Davidson's method
preconditioned with the operator's diagonal, in a subspace of 3(k + 1)
vectors (six for every ground state); dense_spectrum, its full spectrum
of a small sector (the verification oracle); and lowest_eigenpairs, the
eigensolver entry point that iterative_ground and the DMRG superblock
solve share.  Only the action needs more than numpy.  Davidson and the
residual certificate run every OpenBLAS on one thread (_one_blas_thread).
"""
from __future__ import annotations

import contextlib
import ctypes
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .basis import DEFAULT_MAX_DIM, PairBasis, check_integers
from .errors import (
    DimensionMismatch,
    InvariantViolation,
    NoConvergence,
    PatternMismatch,
    TooLarge,
)
from .model import PairingModel

#: Largest sector dense_spectrum diagonalizes.
DENSE_THRESHOLD = 4000

#: lowest_eigenpairs diagonalizes operators up to this size per wanted
#: pair densely, for at most _DENSE_FALLBACK_PAIRS pairs.  Davidson spent
#: up to about 52 matvecs per pair (k = 1..8, tol 1e-12) on random general
#: sectors of N = 8..16 levels and on degenerate reduced BCS sectors of
#: N = 12, so more than n for k > 2 on sectors just above 64 states.
_DENSE_FALLBACK_DIM = 64

#: Largest k the dense fallback grows with: the counts above go no
#: further, and a dense build of n^2 entries outgrows Davidson's ~4kn.
_DENSE_FALLBACK_PAIRS = 8

#: A second Gram-Schmidt pass runs when the first leaves less than this
#: share of the vector's norm (Daniel, Gragg, Kaufman and Stewart's test).
_DGKS = 1 / math.sqrt(2)

#: Floor on |diagonal - theta| in the Davidson correction.
_DAVIDSON_FLOOR = 1e-2

#: Size of the random part of a Davidson start vector without a guess.
_DAVIDSON_START_NOISE = 1e-2

#: Davidson also stops at a residual of this many eps times the largest
#: ||H t|| it formed: roundoff in H t holds the residual near 0.1-1 times
#: that, so a ground energy near 0 could never reach tol * |theta|.
_DAVIDSON_ROUNDOFF = 10

#: States per step when the diagonal and slot table are built.
_CHUNK = 1 << 16

#: Entries of C^T x that HamiltonianAction.apply multiplies by K per step.
_BLOCK = 1 << 15

#: OpenBLAS's (get, set) thread-count functions: upstream's and the
#: scipy-openblas wheels' (numpy's and scipy's own), each also with the
#: 64-bit-integer build's "64_" suffix.
_OPENBLAS_THREADS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("openblas", "scipy_openblas")
    for suffix in ("", "64_")
)

_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved = []


def _openblas_libraries():
    """(get, set) thread-count functions of every OpenBLAS mapped into
    this process, found through /proc/self/maps; none without /proc."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f}
    except OSError:
        return []
    found = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p).lower()):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for names in _OPENBLAS_THREADS:
            if all(hasattr(lib, name) for name in names):
                get, put = (getattr(lib, name) for name in names)
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                found.append((get, put))
                break
    return found


@contextlib.contextmanager
def _one_blas_thread():
    """Every OpenBLAS on one thread for the block (or decorated call);
    each gets its own count back at the last exit, also on an exception.

    OpenBLAS hands each large enough call to more threads, which spin
    between calls: on 2 cores a DMRG run took twice its wall time in CPU
    time and no less wall time.  Nested and concurrent uses share one
    depth count, so only the outermost entry looks the libraries up and
    the last exit restores; where none is found, the block runs as is.
    """
    global _blas_depth, _blas_saved
    with _blas_lock:
        if not _blas_depth:
            _blas_saved = [(put, get()) for get, put in _openblas_libraries()]
            for put, _ in _blas_saved:
                put(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if not _blas_depth:
                for put, count in _blas_saved:
                    put(count)


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


def _lowest_bits(words: np.ndarray, count: int, dtype) -> np.ndarray:
    """(count, len(words)) positions of each word's count lowest set
    bits, ascending, one lowest-set-bit step per row."""
    rest = words.copy()
    out = np.empty((count, len(words)), dtype=dtype)
    for i in range(count):
        lowest = rest & -rest
        rest ^= lowest
        out[i] = np.frexp(lowest)[1] - 1
    return out


class HamiltonianAction:
    """Matrix-free action of one model on one sector.

    A pair hop empties one level and fills another, so the hop sum is
    ``C (K (x) 1) C^T``: C^T clears one level, a pair into the sector with
    one pair fewer or, above half filling, a hole into the smaller sector
    with one pair more.  C is CSR, with ``min(M, N-M)`` unit entries per
    state at columns ``level * d + colex rank of the neighbour`` (int32
    below 2^31), d that sector's size, and K = v1; ``apply`` forms K Z in
    place in Z = C^T x, _BLOCK entries at a time, and holds no buffer
    between calls.  A constant hop v1 = g (reduced BCS) collapses the
    level axis to ``g (P^T P - min(M, N-M))`` with P = sum_i b_i: C's
    columns are the d ranks alone, K = [[g]], and ``diagonal`` stays H's
    own.  M = 0 and M = N keep the diagonal only.  The slot table and the
    diagonal are built _CHUNK states at a time from lowest-set-bit steps:
    the cleared levels give the int32 colex ranks, the occupied ones the
    eps sum, and the v2 term is formed only when v2 is non-zero.
    """

    def __init__(self, model: PairingModel, basis: PairBasis):
        import scipy.sparse

        if model.n_levels != basis.n_levels:
            raise DimensionMismatch(
                f"model has {model.n_levels} levels, basis {basis.n_levels}"
            )
        self.basis = basis
        n, m, dim = basis.n_levels, basis.n_pairs, basis.dim
        width = min(m, n - m)
        other = math.comb(n, width - 1) if width else 0
        hop = model.v1[~np.eye(n, dtype=bool)]
        g = float(hop[0]) if hop.size else 0.0
        collapsed = bool(np.all(hop == g))
        self._k = np.array([[g]]) if collapsed else model.v1
        self._shift = g * width if collapsed else 0.0
        cols = len(self._k) * other
        index = np.int32 if max(cols, dim * width) < 2**31 else np.int64
        pascal = np.array(
            [[math.comb(p, c) for p in range(n)] for c in range(width + 1)], dtype=index
        )
        # C^T clears one of the levels p_0 < p_1 < ... (set levels, or
        # empty ones above half filling)
        self.diagonal = np.empty(dim)
        self._slots = np.empty((dim, width), dtype=index)
        for lo in range(0, dim, _CHUNK):
            patterns = basis.patterns[lo : lo + _CHUNK]
            occupied = _lowest_bits(patterns, m, index)
            pos = occupied if m == width else _lowest_bits(patterns ^ ((1 << n) - 1), width, index)
            diagonal = 2.0 * model.eps[occupied].sum(axis=0)
            if model.v2.any():
                f = ((patterns[:, None] >> np.arange(n)) & 1).astype(float)
                diagonal += 4.0 * np.einsum("ai,ai->a", f @ model.v2, f)
            self.diagonal[lo : lo + _CHUNK] = diagonal
            # clearing p_i leaves the colex rank
            # sum_{l<i} C(p_l, l + 1) + sum_{l>i} C(p_l, l)
            moved = [pascal[i][pos[i]] for i in range(width)]
            head = np.zeros(len(patterns), dtype=index)
            tail = sum(moved, head)
            slots = self._slots[lo : lo + _CHUNK]
            for i in range(width):
                tail -= moved[i]
                slots[:, i] = head + tail if collapsed else pos[i] * other + head + tail
                head += pascal[i + 1][pos[i]]
        self._indptr = np.arange(dim + 1, dtype=index) * width
        self._matrix = scipy.sparse.csr_matrix(
            (np.ones(dim * width), self._slots.reshape(-1), self._indptr), shape=(dim, cols)
        )

    def apply(self, x: np.ndarray) -> np.ndarray:
        """y = H x without materializing H; fixed summation order."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.basis.dim,):
            raise DimensionMismatch(
                f"amplitude vector has shape {x.shape}, basis size is "
                f"{self.basis.dim}"
            )
        z = (self._matrix.T @ x).reshape(len(self._k), -1)
        step = _BLOCK // len(self._k)
        for a in range(0, z.shape[1], step):
            z[:, a : a + step] = self._k @ z[:, a : a + step]
        y = self._matrix @ z.reshape(-1)
        y += (self.diagonal - self._shift) * x
        return y

    def dense_matrix(self) -> np.ndarray:
        """Explicit symmetric matrix, ``C (K (x) 1) C^T`` with H's own
        diagonal set; intended for small sectors only.

        Two states one hop apart share exactly one neighbour, so each
        off-diagonal entry is exactly one v1 value, and the rest +0.0.
        """
        import scipy.sparse

        ones = scipy.sparse.identity(self._matrix.shape[1] // len(self._k))
        h = (self._matrix @ scipy.sparse.kron(self._k, ones) @ self._matrix.T).toarray()
        np.fill_diagonal(h, self.diagonal)
        return h


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues of one sector, ascending, with a residual certificate.

    ``residual`` is max ||H v - E v|| over the k pairs, each by a fresh
    matvec; ``method`` records which solver produced the numbers ("dense"
    or "iterative"), and ``matvecs`` the applications of H the solve
    spent: Davidson's steps (none for a dense solve) plus the k
    certifying ones.
    """

    energies: np.ndarray
    residual: float
    method: str
    n_levels: int
    n_pairs: int
    ground_vector: Optional[np.ndarray] = None
    matvecs: int = 0

    def to_json_dict(self) -> dict:
        return {
            "energies": [float(e) for e in self.energies],
            "residual": float(self.residual),
            "method": self.method,
            "n_levels": self.n_levels,
            "n_pairs": self.n_pairs,
            "matvecs": self.matvecs,
        }


def _residual(matvec, energies, vectors) -> float:
    worst = 0.0
    for e, v in zip(energies, vectors.T):
        r = float(np.linalg.norm(matvec(v) - e * v))
        worst = max(worst, r)
    return worst


def _columns(matvec, n: int) -> np.ndarray:
    """The n x n matrix of the operator ``matvec``, applied to each unit
    vector in turn."""
    h = np.empty((n, n))
    e = np.zeros(n)
    for i in range(n):
        e[i] = 1.0
        h[:, i] = matvec(e)
        e[i] = 0.0
    # a negative diagonal times 0 leaves -0.0, which can flip eigh's
    # Householder signs
    h += 0.0
    return h


def check_solver_args(tol: float, seed: int):
    """Reject a tolerance that is not finite and positive, or a seed that
    is not a nonnegative integer, with InvariantViolation."""
    check_integers(seed=seed)
    if not 0 < tol < np.inf:
        raise InvariantViolation(f"tol must be finite and positive, got {tol}")
    if seed < 0:
        raise InvariantViolation(f"seed must be nonnegative, got {seed}")


class Eigenpairs(NamedTuple):
    """What lowest_eigenpairs found: energies ascending, eigenvectors as
    columns, "dense" or "iterative", the worst ||H x - theta x|| over the
    pairs, and the matvecs the solve spent."""

    energies: np.ndarray
    vectors: np.ndarray
    method: str
    residual: float
    matvecs: int


def lowest_eigenpairs(matvec, n, k=1, *, tol, diagonal, v0=None, seed=0):
    """Lowest k eigenpairs of the symmetric operator ``matvec`` on R^n.

    Up to the dense fallback size times min(k, 8), or with k > n - 2, the
    matrix is built column by column and diagonalized by numpy's eigh (for
    DMRG superblocks and direct callers; iterative_ground has its own).
    Otherwise _davidson runs on the operator's ``diagonal`` from the k
    rows of ``v0`` (for k = 1, a vector), or from the k lowest-diagonal
    unit vectors (ties by index, found by a partition, not a full sort)
    plus a perturbation drawn from ``seed``, in a subspace of 3(k + 1)
    vectors (n at most), for at most 10 n steps, one matvec each.  A k outside
    1..n raises InvariantViolation, as check_solver_args does on tol and seed.
    """
    check_integers(k=k)
    if not 1 <= k <= n:
        raise InvariantViolation(f"k must be in 1..{n}, got {k}")
    check_solver_args(tol, seed)
    if _dense(n, k):
        h = _columns(matvec, n)
        energies, vectors = np.linalg.eigh(h)
        energies, vectors = energies[:k], vectors[:, :k]
        residual = float(np.linalg.norm(h @ vectors - vectors * energies, axis=0).max())
        return Eigenpairs(energies, vectors, "dense", residual, n)
    if v0 is None:
        start = _DAVIDSON_START_NOISE * np.random.default_rng(seed).standard_normal((k, n))
        (low,) = np.nonzero(diagonal <= np.partition(diagonal, k - 1)[k - 1])
        start[np.arange(k), low[np.argsort(diagonal[low], kind="stable")[:k]]] += 1.0
    else:
        start = np.reshape(v0, (k, n))
    energies, vectors, residual, steps = _davidson(matvec, diagonal, start, tol, 10 * n)
    return Eigenpairs(energies, vectors, "iterative", residual, steps)


def _dense(n: int, k: int) -> bool:
    """Whether k pairs on R^n are solved densely."""
    return n <= _DENSE_FALLBACK_DIM * min(k, _DENSE_FALLBACK_PAIRS) or k > n - 2


def _davidson_window(n: int, k: int) -> int:
    """Davidson subspace size for k pairs on R^n: 3(k + 1) vectors, the
    2k a restart keeps and k + 3 steps before the next, or n."""
    return min(n, 3 * (k + 1))


def eigensolver_entries(n: int, k: int = 1) -> int:
    """Entries a lowest_eigenpairs solve of k pairs holds beyond its
    operator: the dense matrix where it solves densely, otherwise the
    arrays of _davidson's 3(k + 1)-vector window and those numpy made for
    it: the subspace interleaved with its image, their projected matrix,
    the k residuals r, t and the denominator (a restart forms its new rows
    in r), the start block beyond the first row, the Ritz values, the
    coefficients of this step and the last, their (2j, k) residual form,
    the last restart's QR factor, and the k norms, bounds and unconverged
    indices."""
    if _dense(n, k):
        return n * n
    cap = _davidson_window(n, k)
    return (2 * cap + 2 * k + 1) * n + cap**2 + (5 * k + 2) * cap + 3 * k


@_one_blas_thread()
def _davidson(matvec, diagonal, start, tol, maxiter):
    """Lowest k eigenpairs by Davidson's method from the (k, n) block
    start: the Ritz values theta ascending, the Ritz vectors x as columns,
    the worst residual norm ||Hx - theta x|| of their own recurrence, and
    the steps taken.

    Each step orthonormalizes one vector against the subspace (a second
    pass only where the first leaves less than _DGKS of its norm), adds
    it and takes one matvec: first the rows of start, then the correction
    r / max(|diagonal - theta|, floor) of the lowest pair not yet
    converged, written in place.  The subspace and its image sit
    interleaved, row pairs (v, Hv), so one (k, 2j) @ (2j, n) product with
    coefficients (-theta y, y) gives all k residuals; numpy's eigh solves
    the projected problem, of which a copy of the k lowest pairs is kept,
    and no Ritz vector is formed before the return.  A full subspace,
    _davidson_window(n, k) vectors, restarts from its k Ritz vectors and
    the previous step's k (Stathopoulos and McCombs' "+k"),
    orthonormalized by a QR of their coefficients.  A pair has converged
    at ||r|| <= tol * max(|theta|, eps^(2/3) max ||H t||), or at the
    roundoff bound _DAVIDSON_ROUNDOFF * eps * max ||H t||, if larger: both
    scale with the largest ||H t|| the solve formed, so a model of any
    energy scale stops at the same relative accuracy.
    NoConvergence carries the k Ritz values and their worst residual.
    Every OpenBLAS runs on one thread throughout (_one_blas_thread).
    """
    k, n = start.shape
    cap = _davidson_window(n, k)
    keep = min(2 * k, cap - 1)
    pairs = np.empty((cap, 2, n))
    basis = pairs[:, 0]
    proj = np.empty((cap, cap))
    last = np.zeros((cap, k))
    r = np.empty((k, n))
    work = np.empty(n)
    t = start[0].copy()
    eps = np.finfo(float).eps
    scale, largest = eps ** (2.0 / 3.0), 0.0  # both relative to the largest ||H t||
    j = 0
    for step in range(1, maxiter + 1):
        before = np.linalg.norm(t)
        t -= np.matmul(basis[:j] @ t, basis[:j], out=work)
        after = np.linalg.norm(t)
        if after < before * _DGKS:
            t -= np.matmul(basis[:j] @ t, basis[:j], out=work)
            after = np.linalg.norm(t)
        np.divide(t, after, out=basis[j])
        pairs[j, 1] = matvec(basis[j])
        largest = max(largest, float(np.linalg.norm(pairs[j, 1])))
        proj[j, : j + 1] = proj[: j + 1, j] = basis[: j + 1] @ pairs[j, 1]
        j += 1
        if j < k:
            t[:] = start[j]
            continue
        theta, y = np.linalg.eigh(proj[:j, :j])
        theta, y = theta[:k], y[:, :k].copy()
        coef = np.stack((y * -theta, y), axis=1).reshape(2 * j, k)
        np.matmul(coef.T, pairs[:j].reshape(2 * j, n), out=r)
        norms = np.sqrt(np.einsum("ij,ij->i", r, r))
        worst = float(norms.max())
        floor = _DAVIDSON_ROUNDOFF * eps * largest
        bound = np.maximum(tol * np.maximum(np.abs(theta), scale * largest), floor)
        (unconverged,) = np.nonzero(norms > bound)
        if not unconverged.size:
            return theta, (y.T @ basis[:j]).T, worst, step
        i = unconverged[0]
        np.abs(np.subtract(diagonal, theta[i], out=work), out=work)
        np.divide(r[i], np.maximum(work, _DAVIDSON_FLOOR, out=work), out=t)
        if j == cap:
            q = np.linalg.qr(np.hstack((y, last[:j])))[0][:, :keep]
            # the new rows overwrite the old ones, so they are formed a
            # column block at a time in r, which is free until the next step
            flat, width = pairs[:j].reshape(j, 2 * n), r.size // keep
            block = r.reshape(-1)[: keep * width].reshape(keep, width)
            for c in range(0, 2 * n, width):
                part = flat[:, c : c + width]
                flat[:keep, c : c + width] = np.matmul(q.T, part, out=block[:, : part.shape[1]])
            proj[:keep, :keep] = q.T @ proj[:j, :j] @ q
            y, j = q.T @ y, keep
        last[:j], last[j] = y, 0.0
    raise NoConvergence(
        f"eigensolver did not converge within {maxiter} steps "
        f"(residual {norms[i]:.3e} against {bound[i]:.3e})",
        energies=theta,
        residual=worst,
    )


def dense_spectrum(model: PairingModel, basis: PairBasis) -> SpectrumResult:
    """Full spectrum, iterative_ground at k = dim; the small-sector oracle
    that the tests check the solvers against.  A sector of more than
    DENSE_THRESHOLD states raises TooLarge."""
    if basis.dim > DENSE_THRESHOLD:
        raise TooLarge(
            f"sector size {basis.dim} exceeds the dense threshold "
            f"{DENSE_THRESHOLD}"
        )
    return iterative_ground(model, basis, k=basis.dim)


def iterative_ground(
    model: PairingModel,
    basis: PairBasis,
    k: int = 1,
    tol: float = 1e-10,
    seed: int = 0,
) -> SpectrumResult:
    """Lowest k eigenpairs of the sector; the one exact-diagonalization
    path, which dense_spectrum (k = dim) and the command line share.

    Sectors of at most 64 min(k, 8) states, or with k > dim - 2, are
    solved densely: numpy's eigh of ``dense_matrix`` at the caller's BLAS
    thread count, of which the k lowest pairs are kept.  Larger ones go to
    lowest_eigenpairs' Davidson's method, preconditioned with the action's
    diagonal, in at most ten times the sector size steps, one matvec each.
    Each pair stops at ``||H x - E x|| <= tol * |E|``, sooner where
    roundoff bounds the residual above that (energies near 0).  The start
    block is drawn from ``seed``, making the run deterministic.  Every
    pair, dense or not, is then certified by one fresh matvec, at one
    OpenBLAS thread as Davidson runs: at N = 20, M = 10 on 2 cores that
    took about 11% more wall time and 44% less CPU time than two threads.
    Before anything is built, k, tol and seed get lowest_eigenpairs'
    checks, and a solve that would hold more entries
    (``eigensolver_entries``) than a k = 1 solve on DEFAULT_MAX_DIM states
    raises TooLarge.
    """
    check_integers(k=k)
    if not 1 <= k <= basis.dim:
        raise InvariantViolation(f"k must be in 1..{basis.dim}, got {k}")
    check_solver_args(tol, seed)
    limit = eigensolver_entries(DEFAULT_MAX_DIM)
    if eigensolver_entries(basis.dim, k) > limit:
        raise TooLarge(
            f"{k} eigenpairs of a {basis.dim}-state sector would hold "
            f"{eigensolver_entries(basis.dim, k)} entries, over the {limit} of one "
            f"pair at {DEFAULT_MAX_DIM} states"
        )
    action = HamiltonianAction(model, basis)
    if _dense(basis.dim, k):
        energies, vectors = np.linalg.eigh(action.dense_matrix())
        energies, vectors, method, steps = energies[:k], vectors[:, :k], "dense", 0
    else:
        energies, vectors, method, _, steps = lowest_eigenpairs(
            action.apply, basis.dim, k, tol=tol, seed=seed, diagonal=action.diagonal
        )
    # Davidson's residuals come from its recurrence, whose image of a
    # restarted subspace is a combination of earlier products; every pair,
    # dense or not, is certified with a fresh one
    with _one_blas_thread():
        residual = _residual(action.apply, energies, vectors)
    return SpectrumResult(
        energies=energies,
        residual=residual,
        method=method,
        n_levels=basis.n_levels,
        n_pairs=basis.n_pairs,
        ground_vector=vectors[:, 0].copy(),
        matvecs=steps + k,
    )
