"""Benchmark workloads: inputs drawn from a seed, one solve, its checks.

Each workload hands pairsolve its model as a JSON document (``docs``),
solves it through the library entry points and checks the answer.  A
``solve`` returns ``(energy, failure)`` where ``failure`` is ``None`` or
the reason the output is wrong.  ``smoke=True`` selects tiny sizes whose
references come from the dense solver, for the benchmark's own tests.
"""
from __future__ import annotations

import json
import math

import numpy as np

from spans import hop_bytes_computed


#: General models per run: two models shrink the share of
#: the run-to-run spread that comes from the model draw.
MODELS = 2


def _bcs_doc(n, g):
    return json.dumps({"type": "reduced_bcs", "eps": [float(e) for e in range(1, n + 1)], "G": g})


def _relative(a, b):
    return abs(a - b) / max(abs(b), np.finfo(float).tiny)


def _dense_ground(ps, model, n, pairs):
    return float(ps.dense_spectrum(model, ps.enumerate_basis(n, pairs)).energies[0])


class EdBcs:
    """Iterative ED of reduced BCS; the seed sets the start vector."""

    name = "ed-bcs-n20"
    layer = "exactdiag"
    min_units = 1

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.n, self.pairs = (10, 5) if smoke else (20, 10)
        self.tol = 1e-12
        self.docs = [_bcs_doc(self.n, 0.5)]
        self.reference = None if smoke else 104.84682743990702

    def prepare(self, ps, models):
        if self.reference is None:
            self.reference = _dense_ground(ps, models[0], self.n, self.pairs)

    def warm_up(self, ps):
        model = ps.build_reduced_bcs(np.arange(1.0, 13.0), 0.5)
        ps.iterative_ground(model, ps.enumerate_basis(12, 6), tol=self.tol)

    def solve(self, ps, model, index, tr):
        with tr.span("basis.enumerate"):
            basis = ps.enumerate_basis(self.n, self.pairs)
        with tr.span("exactdiag.iterative_ground"):
            res = ps.iterative_ground(model, basis, tol=self.tol, seed=self.seed)
        if tr.enabled:
            tr.note("basis.dim", basis.dim)
            tr.note("exactdiag.matvec_bytes_computed", hop_bytes_computed(model, basis))
        energy = float(res.energies[0])
        if not res.residual <= 1e-8:
            return energy, f"residual certificate {res.residual:.3e} > 1e-8"
        if not _relative(energy, self.reference) <= 1e-10:
            return energy, f"energy {energy!r} vs reference {self.reference!r}"
        return energy, None


class _Dmrg:
    """Shared DMRG solve: run_infinite, memory_report and structural checks."""

    layer = "dmrg"

    def warm_up(self, ps):
        model = ps.build_reduced_bcs(np.arange(1.0, 13.0), 0.3)
        ps.run_infinite(model, ps.DmrgConfig(m=8, total_pairs=6, superblock_tol=self.tol))

    def solve(self, ps, model, index, tr):
        config = ps.DmrgConfig(
            m=self.m, total_pairs=self.pairs, superblock_tol=self.tol, seed=self.seed
        )
        with tr.span("dmrg.run_infinite"):
            result = ps.run_infinite(model, config)
        # raises InvariantViolation when storage exceeds the bound
        report = ps.memory_report(result)
        tr.note("dmrg.stored_peak_entries", report["stored_peak_entries"])
        tr.note("dmrg.work_peak_entries", report["work_peak_entries"])
        energy = float(result.final_energy)
        if len(result.iterations) != self.n // 2:
            return energy, f"{len(result.iterations)} iterations, expected {self.n // 2}"
        if not report["within_bound"]:
            return energy, "memory_report is not within bound"
        return energy, self.check_energy(energy, index)


class DmrgBcs(_Dmrg):
    """The criterion-06 run; the seed sets DmrgConfig.seed."""

    name = "dmrg-bcs-n100"
    min_units = 1

    def __init__(self, seed, smoke=False):
        self.seed = seed
        # the smoke size keeps every state (2^6 <= m), so it is exact
        self.n, self.pairs, self.m = (12, 6, 64) if smoke else (100, 50, 128)
        self.tol = 1e-12
        self.docs = [_bcs_doc(self.n, 0.3)]
        self.reference = None if smoke else 2538.824960106881

    def prepare(self, ps, models):
        if self.reference is None:
            self.reference = _dense_ground(ps, models[0], self.n, self.pairs)

    def check_energy(self, energy, index):
        if not _relative(energy, self.reference) <= 1e-9:
            return f"energy {energy!r} vs reference {self.reference!r}"
        return None


class DmrgGeneral(_Dmrg):
    """Random general models at quarter filling, drawn from the seed.

    The distribution is the acceptance suite's: v1 ~ 0.4 N(0,1) and
    v2 ~ 0.25 N(0,1), symmetrized with zero diagonal, eps ~ 2 N(0,1).
    Each run solves MODELS models; the first one is the model of
    "model seed <seed>".  Energies are checked for repeatability, not
    against a stored reference.
    """

    name = "dmrg-general-n40"
    min_units = 2

    def __init__(self, seed, smoke=False):
        self.seed = seed
        self.n, self.pairs, self.m = (12, 3, 16) if smoke else (40, 10, 64)
        self.tol = 1e-10
        rng = np.random.default_rng(seed)
        self.docs = [json.dumps(self._draw(rng)) for _ in range(MODELS)]
        self.first = {}

    def _draw(self, rng):
        n = self.n
        v1 = rng.normal(size=(n, n)) * 0.4
        v1 = 0.5 * (v1 + v1.T)
        np.fill_diagonal(v1, 0.0)
        v2 = rng.normal(size=(n, n)) * 0.25
        v2 = 0.5 * (v2 + v2.T)
        np.fill_diagonal(v2, 0.0)
        eps = rng.normal(size=n) * 2.0
        return {
            "type": "general",
            "n_levels": n,
            "eps": eps.tolist(),
            "v1": v1.tolist(),
            "v2": v2.tolist(),
        }

    def prepare(self, ps, models):
        pass

    def check_energy(self, energy, index):
        if not math.isfinite(energy):
            return f"energy {energy!r} is not finite"
        first = self.first.setdefault(index, energy)
        if not _relative(energy, first) <= 1e-9:
            return f"repeat solve of model {index} gave {energy!r}, first {first!r}"
        return None


WORKLOADS = {w.name: w for w in (EdBcs, DmrgBcs, DmrgGeneral)}
