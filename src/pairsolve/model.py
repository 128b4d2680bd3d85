"""Pairing Hamiltonians over doubly degenerate levels.

A model is specified by single-particle energies ``eps``, a symmetric
pair-scattering matrix ``v1`` and a symmetric monopole (density-density)
matrix ``v2``, both with zero diagonal.  Besides arbitrary matrices, three
exactly solvable one-parameter-per-level families can be generated
(rational, trigonometric, hyperbolic), as well as the reduced BCS model
with a single constant coupling.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateEta, InvariantViolation, SchemaError, SingularKernel

#: Relative tolerance below which two eta parameters count as degenerate,
#: and below which sin(d_eta) counts as singular.
ETA_TOL = 1e-10


class FamilyKind(enum.Enum):
    """The three exactly solvable coupling families."""

    RATIONAL = "rational"
    TRIGONOMETRIC = "trigonometric"
    HYPERBOLIC = "hyperbolic"


def _check_kernel(family: FamilyKind, d_eta: float):
    """Raise DegenerateEta, or SingularKernel where sin(d_eta) vanishes."""
    if abs(d_eta) <= ETA_TOL:
        raise DegenerateEta(f"|d_eta| = {abs(d_eta):.3e} <= {ETA_TOL:.0e}")
    if family is FamilyKind.TRIGONOMETRIC:
        s = math.sin(d_eta)
        if abs(s) <= ETA_TOL:
            raise SingularKernel(f"|sin(d_eta)| = {abs(s):.3e} <= {ETA_TOL:.0e}")


def cot_kernel(family: FamilyKind, d_eps: float, d_eta: float) -> float:
    """Cotangent-type coupling kernel of the solvable families.

    Returns ``d_eps/d_eta`` (rational limit), ``d_eps*cot(d_eta)``
    (trigonometric) or ``d_eps*coth(d_eta)`` (hyperbolic).  The result is
    even under a simultaneous sign flip of both arguments.
    """
    _check_kernel(family, d_eta)
    if family is FamilyKind.RATIONAL:
        return d_eps / d_eta
    if family is FamilyKind.TRIGONOMETRIC:
        return d_eps * math.cos(d_eta) / math.sin(d_eta)
    return d_eps / math.tanh(d_eta)


def sin_kernel(family: FamilyKind, d_eps: float, d_eta: float) -> float:
    """Sine-type coupling kernel of the solvable families.

    Returns ``d_eps/d_eta`` (rational limit), ``d_eps/sin(d_eta)``
    (trigonometric) or ``d_eps/sinh(d_eta)`` (hyperbolic).  Even under a
    simultaneous sign flip of both arguments.
    """
    _check_kernel(family, d_eta)
    if family is FamilyKind.RATIONAL:
        return d_eps / d_eta
    if family is FamilyKind.TRIGONOMETRIC:
        return d_eps / math.sin(d_eta)
    return d_eps / math.sinh(d_eta)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IntegrableSpec:
    """The 2N+1 free parameters of one exactly solvable family.

    Attributes
    ----------
    g : float
        Overall coupling constant (energy units).
    epsilon : ndarray, shape (N,)
        Base level energies.
    eta : ndarray, shape (N,)
        Dimensionless level parameters; must be pairwise distinct.
    family : FamilyKind
        Which of the three solvable families the parameters belong to.
    """

    g: float
    epsilon: np.ndarray
    eta: np.ndarray
    family: FamilyKind

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _readonly(self.epsilon))
        object.__setattr__(self, "eta", _readonly(self.eta))
        eps, eta = self.epsilon, self.eta
        if eps.ndim != 1 or eta.ndim != 1 or len(eps) != len(eta):
            raise InvariantViolation(
                f"epsilon and eta must be equal-length vectors, got "
                f"{eps.shape} and {eta.shape}"
            )
        if len(eps) < 2:
            raise InvariantViolation("need at least 2 levels")
        if not (np.isfinite(eps).all() and np.isfinite(eta).all() and math.isfinite(self.g)):
            raise InvariantViolation("parameters must be finite")
        scale = max(1.0, float(np.max(np.abs(eta))))
        d = eta[:, None] - eta[None, :]
        gap = np.abs(d)
        np.fill_diagonal(gap, np.inf)
        i, j = np.unravel_index(np.argmin(gap), gap.shape)
        if gap[i, j] <= ETA_TOL * scale:
            raise InvariantViolation(
                f"eta[{i}] and eta[{j}] coincide within tolerance: "
                f"{float(eta[i])!r} vs {float(eta[j])!r}"
            )
        if self.family is FamilyKind.TRIGONOMETRIC:
            s = np.abs(np.sin(d))
            np.fill_diagonal(s, np.inf)
            i, j = np.unravel_index(np.argmin(s), s.shape)
            if s[i, j] <= ETA_TOL:
                raise InvariantViolation(
                    f"sin(eta[{i}] - eta[{j}]) is numerically zero "
                    f"(eta difference {float(eta[i] - eta[j])!r})"
                )

    @property
    def n_levels(self) -> int:
        return len(self.epsilon)


@dataclass(frozen=True)
class PairingModel:
    """Effective single-particle energies and coupling matrices.

    ``v1`` couples pair hops between distinct levels, ``v2`` is the
    monopole density-density coupling.  Both are symmetric with zero
    diagonal; level sums in the Hamiltonian run over ordered pairs i != j.
    """

    eps: np.ndarray
    v1: np.ndarray
    v2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eps", _readonly(self.eps))
        object.__setattr__(self, "v1", _readonly(self.v1))
        object.__setattr__(self, "v2", _readonly(self.v2))
        n = len(self.eps)
        for name in ("eps", "v1", "v2"):
            a = getattr(self, name)
            if not np.isfinite(a).all():
                raise InvariantViolation(f"{name} contains non-finite entries")
        for name in ("v1", "v2"):
            a = getattr(self, name)
            if a.shape != (n, n):
                raise InvariantViolation(
                    f"{name} must be {n}x{n} to match eps, got {a.shape}"
                )
            bad = np.argwhere(a != a.T)
            if len(bad):
                i, j = bad[0]
                raise InvariantViolation(
                    f"{name} is not symmetric at ({i},{j}): "
                    f"{float(a[i, j])!r} vs {float(a[j, i])!r}"
                )
            nz = np.nonzero(np.diagonal(a))[0]
            if len(nz):
                raise InvariantViolation(
                    f"{name} has a nonzero diagonal entry at level {nz[0]}"
                )

    @property
    def n_levels(self) -> int:
        return len(self.eps)


def build_integrable(spec: IntegrableSpec) -> PairingModel:
    """Expand an integrable parameter set into an explicit model.

    Effective energies pick up a coupling-dependent shift,
    ``eps[i] = epsilon[i] - g * sum_{j != i} cot_kernel(...)``, while the
    couplings are ``v1[i,j] = 2 g * sin_kernel(...)`` and
    ``v2[i,j] = g/2 * cot_kernel(...)``.  Kernel evenness makes the output
    matrices exactly symmetric (each unordered pair is evaluated once).
    """
    n = spec.n_levels
    kc = np.zeros((n, n))
    ks = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d_eps = float(spec.epsilon[i] - spec.epsilon[j])
            d_eta = float(spec.eta[i] - spec.eta[j])
            kc[i, j] = kc[j, i] = cot_kernel(spec.family, d_eps, d_eta)
            ks[i, j] = ks[j, i] = sin_kernel(spec.family, d_eps, d_eta)
    eps = spec.epsilon - spec.g * kc.sum(axis=1)
    return PairingModel(eps=eps, v1=2.0 * spec.g * ks, v2=0.5 * spec.g * kc)


def build_reduced_bcs(eps_levels, G: float) -> PairingModel:
    """Constant-coupling pairing model: ``v1 = -G`` off-diagonal, ``v2 = 0``.

    Note that level sums exclude i == j, so relative to the convention that
    includes the diagonal pair term every seniority-zero eigenvalue here is
    shifted by the constant ``+G*M``.
    """
    eps = np.asarray(eps_levels, dtype=float)
    if eps.ndim != 1 or len(eps) < 2:
        raise InvariantViolation("need at least 2 level energies")
    n = len(eps)
    v1 = np.full((n, n), -float(G))
    np.fill_diagonal(v1, 0.0)
    return PairingModel(eps=eps, v1=v1, v2=np.zeros((n, n)))


#: Accepted arguments for :func:`param_count`.
MODEL_KINDS = ("general", "integrable_single", "integrable_all_families")


def param_count(kind: str, n_levels: int) -> int:
    """Number of free real parameters for a model kind at N levels.

    ``general``: 2N^2 - N (energies plus two symmetric off-diagonal
    matrices counted as ordered entries); ``integrable_single``: 2N + 1;
    ``integrable_all_families``: 6N + 3 (all three families together).
    """
    if n_levels < 2:
        raise InvariantViolation("need at least 2 levels")
    if kind == "general":
        return 2 * n_levels * n_levels - n_levels
    if kind == "integrable_single":
        return 2 * n_levels + 1
    if kind == "integrable_all_families":
        return 6 * n_levels + 3
    raise InvariantViolation(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


# --- model documents -------------------------------------------------------
#
# JSON layout:
#   {"type": "general", "n_levels": N, "eps": [...], "v1": [[...]], "v2": [[...]]}
#   {"type": "integrable", "family": "rational"|"trigonometric"|"hyperbolic",
#    "g": g, "epsilon": [...], "eta": [...]}
#   {"type": "reduced_bcs", "eps": [...], "G": G}
# Matrices are row-major lists of rows; all numbers are IEEE doubles.


def _require(doc, key, path):
    if key not in doc:
        raise SchemaError(f"missing field {path}{key}")
    return doc[key]


def _number(x, path):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"{path} must be a number, got {type(x).__name__}")
    return float(x)


def _vector(x, path):
    if not isinstance(x, list):
        raise SchemaError(f"{path} must be a list of numbers")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(x)])


def _matrix(x, n, path):
    if not isinstance(x, list) or len(x) != n:
        raise SchemaError(f"{path} must be a list of {n} rows")
    rows = []
    for i, row in enumerate(x):
        r = _vector(row, f"{path}[{i}]")
        if len(r) != n:
            raise SchemaError(f"{path}[{i}] must have {n} entries, got {len(r)}")
        rows.append(r)
    return np.array(rows)


def load_model(document):
    """Parse a model document into a PairingModel or IntegrableSpec.

    ``document`` may be a parsed JSON object or a JSON string.  Integrable
    documents are returned unexpanded; call :func:`build_integrable` to
    obtain the explicit model.  Reduced-BCS documents expand immediately.

    Raises SchemaError (with the offending field path) on layout problems
    and InvariantViolation on structural ones, e.g. an asymmetric ``v1``.
    """
    if isinstance(document, (str, bytes)):
        import json

        try:
            document = json.loads(document)
        except ValueError as e:
            raise SchemaError(f"not valid JSON: {e}") from None
    if not isinstance(document, dict):
        raise SchemaError("top-level document must be a JSON object")
    kind = _require(document, "type", "")
    if kind == "general":
        n = _require(document, "n_levels", "")
        if not isinstance(n, int) or isinstance(n, bool) or n < 2:
            raise SchemaError("n_levels must be an integer >= 2")
        eps = _vector(_require(document, "eps", ""), "eps")
        if len(eps) != n:
            raise SchemaError(f"eps must have n_levels = {n} entries, got {len(eps)}")
        v1 = _matrix(_require(document, "v1", ""), n, "v1")
        v2 = _matrix(_require(document, "v2", ""), n, "v2")
        return PairingModel(eps=eps, v1=v1, v2=v2)
    if kind == "integrable":
        fam = _require(document, "family", "")
        try:
            family = FamilyKind(fam)
        except ValueError:
            raise SchemaError(
                f"family must be one of {[f.value for f in FamilyKind]}, got {fam!r}"
            ) from None
        g = _number(_require(document, "g", ""), "g")
        epsilon = _vector(_require(document, "epsilon", ""), "epsilon")
        eta = _vector(_require(document, "eta", ""), "eta")
        return IntegrableSpec(g=g, epsilon=epsilon, eta=eta, family=family)
    if kind == "reduced_bcs":
        eps = _vector(_require(document, "eps", ""), "eps")
        G = _number(_require(document, "G", ""), "G")
        return build_reduced_bcs(eps, G)
    raise SchemaError(
        f"type must be 'general', 'integrable' or 'reduced_bcs', got {kind!r}"
    )


def save_model(model) -> dict:
    """Serialize a PairingModel or IntegrableSpec to a JSON-ready dict.

    Floats survive a JSON round trip bit-exactly, so
    ``load_model(save_model(x))`` reproduces ``x`` for finite inputs.
    """
    if isinstance(model, PairingModel):
        return {
            "type": "general",
            "n_levels": model.n_levels,
            "eps": model.eps.tolist(),
            "v1": model.v1.tolist(),
            "v2": model.v2.tolist(),
        }
    if isinstance(model, IntegrableSpec):
        return {
            "type": "integrable",
            "family": model.family.value,
            "g": model.g,
            "epsilon": model.epsilon.tolist(),
            "eta": model.eta.tolist(),
        }
    raise TypeError(f"cannot serialize {type(model).__name__}")
