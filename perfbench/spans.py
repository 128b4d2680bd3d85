"""In-memory span tracing for the benchmark, installed from outside the library.

The benchmark records spans around its own calls into pairsolve and, in
traced runs, wraps a few library attributes at their module boundaries:

- public: ``exactdiag.HamiltonianAction`` (construction and ``apply``),
  ``dmrg.GrownBlock`` (construction), ``dmrg.reduced_density`` and
  ``scipy.sparse.linalg.eigsh`` (whose operator is wrapped to count and
  time matvecs and to give the start-vector overlap);
- private, by name: ``dmrg._Superblock`` (factorization, per-instance
  matvec counts), ``dmrg._truncate_with_basis`` and ``dmrg._embed_guess``.

A wrapped name that no longer exists is skipped, and the metrics that
depend on it are reported as absent with the reason.

Each span is ``[name, start, end, parent, solve, extra]``; ``parent`` is
the index of the enclosing span and ``solve`` the id of the solve that
caused it.  Spans stay in memory until the run writes them out.
"""
from __future__ import annotations

import contextlib
import math
import statistics
import time

import numpy as np
import scipy.sparse.linalg

# Metrics the workloads note per solve; zero where the layer does no work.
NOTED = (
    "basis.dim",
    "exactdiag.hop_entries",
    "exactdiag.matvec_bytes_computed",
    "dmrg.stored_peak_entries",
    "dmrg.work_peak_entries",
)

# Metrics lost when a wrapped library attribute is missing.
DEPENDS_ON = {
    "exactdiag.HamiltonianAction": ["exactdiag.action_build_s", "exactdiag.hop_entries"],
    "dmrg.GrownBlock": ["dmrg.grow_s"],
    "dmrg.reduced_density": ["dmrg.density_s"],
    "dmrg._Superblock": [  # factor_s first: it needs no superblock attributes
        "dmrg.factor_s",
        "dmrg.coupling_terms",
        "dmrg.matvec_flops_computed",
        "dmrg.sector_fraction",
    ],
    "dmrg._truncate_with_basis": ["dmrg.truncate_s"],
    "dmrg._embed_guess": ["dmrg.warm_start_overlap"],
}


class NullTracer:
    """Tracing off: every hook is a no-op."""

    enabled = False

    def span(self, name):
        return contextlib.nullcontext()

    def note(self, key, value):
        pass


class Tracer:
    """Collects spans and per-solve notes; patches the library on demand."""

    enabled = True

    def __init__(self):
        self.spans = []
        self.notes = {}  # solve id -> {key: value}
        self.superblocks = []  # per-instance stats of traced superblocks
        self.absent = {}  # metric name -> reason
        self.layer = ""
        self.solve = None
        self._stack = []
        self._patches = []
        self._in_eigsh = 0
        self._guess_pending = False

    # --- spans --------------------------------------------------------

    def begin(self, name, extra=None):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.solve, extra])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def note(self, key, value):
        self.notes.setdefault(self.solve, {})[key] = value

    # --- patching -----------------------------------------------------

    def install(self):
        """Wrap the library boundaries listed in the module docstring."""
        from pairsolve import dmrg, exactdiag

        tracer = self
        self._eigsh = scipy.sparse.linalg.eigsh
        self._patch(scipy.sparse.linalg, "eigsh", self._traced_eigsh)

        action = getattr(exactdiag, "HamiltonianAction", None)
        if action is None:
            self._missing("exactdiag.HamiltonianAction")
        else:

            class TracedAction(action):
                def __init__(self, *args, **kwargs):
                    idx = tracer.begin("exactdiag.action_build")
                    try:
                        super().__init__(*args, **kwargs)
                    finally:
                        tracer.end(idx)
                    tracer.note("exactdiag.hop_entries", _index_entries(vars(self)))

                def apply(self, x):
                    idx = tracer.begin("exactdiag.apply")
                    try:
                        return super().apply(x)
                    finally:
                        tracer.end(idx)

            self._patch(exactdiag, "HamiltonianAction", TracedAction)

        grown = getattr(dmrg, "GrownBlock", None)
        if grown is None:
            self._missing("dmrg.GrownBlock")
        else:

            class TracedGrownBlock(grown):
                def __init__(self, *args, **kwargs):
                    idx = tracer.begin("dmrg.grow")
                    try:
                        super().__init__(*args, **kwargs)
                    finally:
                        tracer.end(idx)

            self._patch(dmrg, "GrownBlock", TracedGrownBlock)

        superblock = getattr(dmrg, "_Superblock", None)
        if superblock is None:
            self._missing("dmrg._Superblock")
        else:

            class TracedSuperblock(superblock):
                def __init__(self, *args, **kwargs):
                    idx = tracer.begin("dmrg.factor")
                    try:
                        super().__init__(*args, **kwargs)
                    finally:
                        tracer.end(idx)
                    self._bench = tracer._superblock_stats(self)

                def matvec(self, x):
                    if tracer._in_eigsh:
                        self._bench["calls"] += 1
                    return super().matvec(x)

            self._patch(dmrg, "_Superblock", TracedSuperblock)

        # density matrices follow every superblock solve, so a guess that
        # eigsh did not consume went to the dense path
        self._wrap_function(
            dmrg, "reduced_density", "dmrg.density", on_return=self._drop_guess
        )
        self._wrap_function(dmrg, "_truncate_with_basis", "dmrg.truncate")
        embed = getattr(dmrg, "_embed_guess", None)
        if embed is None:
            self._missing("dmrg._embed_guess")
        else:

            def traced_embed(*args, **kwargs):
                tracer._guess_pending = True
                return embed(*args, **kwargs)

            self._patch(dmrg, "_embed_guess", traced_embed)

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _missing(self, qualname):
        for metric in DEPENDS_ON[qualname]:
            self.absent[metric] = f"pairsolve.{qualname} no longer exists"

    def _drop_guess(self):
        self._guess_pending = False

    def _wrap_function(self, module, attr, span_name, on_return=None):
        fn = getattr(module, attr, None)
        if fn is None:
            self._missing(f"{module.__name__.rsplit('.', 1)[-1]}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.begin(span_name)
            try:
                return fn(*args, **kwargs)
            finally:
                if on_return is not None:
                    on_return()
                tracer.end(idx)

        self._patch(module, attr, traced)

    def _superblock_stats(self, sb):
        try:
            stats = {
                "solve": self.solve,
                "calls": 0,
                "sector_dim": sb.sector_dim,
                "dh": sb.dh,
                "dp": sb.dp,
                "raise": len(sb.raise_terms),
                "number": len(sb.number_terms),
            }
        except AttributeError as exc:
            for metric in DEPENDS_ON["dmrg._Superblock"][1:]:
                self.absent[metric] = f"pairsolve.dmrg._Superblock: {exc}"
            return {"calls": 0}
        self.superblocks.append(stats)
        return stats

    def _traced_eigsh(self, a, *args, **kwargs):
        op = scipy.sparse.linalg.aslinearoperator(a)
        name = self.layer + ".matvec"

        def matvec(x):
            idx = self.begin(name)
            try:
                return op.matvec(x)
            finally:
                self.end(idx)

        lin = scipy.sparse.linalg.LinearOperator(op.shape, matvec=matvec, dtype=op.dtype)
        extra = {"warm": self._guess_pending}
        self._guess_pending = False
        idx = self.begin(self.layer + ".eigsh", extra)
        self._in_eigsh += 1
        try:
            out = self._eigsh(lin, *args, **kwargs)
        finally:
            self._in_eigsh -= 1
            self.end(idx)
        v0 = kwargs.get("v0")
        if v0 is not None and isinstance(out, tuple):
            v0 = np.asarray(v0, dtype=float)
            extra["overlap"] = float(abs(v0 @ out[1][:, 0]) / np.linalg.norm(v0))
        return out

    # --- reduction ----------------------------------------------------

    def solve_metrics(self, solve):
        """Per-layer metrics of one traced solve (self times in seconds)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == solve]
        child = {}
        for _, s in spans:
            if s[3] is not None:
                child[s[3]] = child.get(s[3], 0.0) + (s[2] - s[1])
        self_time = {}
        total = {}
        count = {}
        for i, s in spans:
            dur = s[2] - s[1]
            self_time[s[0]] = self_time.get(s[0], 0.0) + dur - child.get(i, 0.0)
            total[s[0]] = total.get(s[0], 0.0) + dur
            count[s[0]] = count.get(s[0], 0) + 1
        out = {
            "basis.enumerate_s": total.get("basis.enumerate", 0.0),
            "exactdiag.action_build_s": total.get("exactdiag.action_build", 0.0),
            "dmrg.grow_s": self_time.get("dmrg.grow", 0.0),
            "dmrg.factor_s": self_time.get("dmrg.factor", 0.0),
            "dmrg.density_s": self_time.get("dmrg.density", 0.0),
            "dmrg.truncate_s": self_time.get("dmrg.truncate", 0.0),
        }
        for layer in ("exactdiag", "dmrg"):
            out[f"{layer}.matvecs"] = count.get(f"{layer}.matvec", 0)
            out[f"{layer}.matvec_s"] = total.get(f"{layer}.matvec", 0.0)
            out[f"{layer}.eigsolve_self_s"] = self_time.get(f"{layer}.eigsh", 0.0)
        # the residual certificate: from the eigsh return to the return of
        # iterative_ground (one of each per ED solve)
        ground = [s[2] for _, s in spans if s[0] == "exactdiag.iterative_ground"]
        eig_ends = [s[2] for _, s in spans if s[0] == "exactdiag.eigsh"]
        out["exactdiag.certify_s"] = max(ground) - max(eig_ends) if eig_ends else 0.0
        overlaps = [
            s[5]["overlap"]
            for _, s in spans
            if s[0] == "dmrg.eigsh" and s[5]["warm"] and "overlap" in s[5]
        ]
        out["dmrg.warm_start_overlap"] = statistics.median(overlaps) if overlaps else 0.0

        blocks = [b for b in self.superblocks if b["solve"] == solve]
        product = sum(b["calls"] * b["dh"] * b["dp"] for b in blocks)
        useful = sum(b["calls"] * b["sector_dim"] for b in blocks)
        out["dmrg.sector_fraction"] = useful / product if product else 0.0
        out["dmrg.coupling_terms"] = max(
            (b["raise"] + b["number"] for b in blocks), default=0
        )
        out["dmrg.matvec_flops_computed"] = sum(
            b["calls"] * _superblock_flops(b) for b in blocks
        )
        out.update(dict.fromkeys(NOTED, 0))
        out.update(self.notes.get(solve, {}))
        for name in self.absent:
            out.pop(name, None)
        return out


def _superblock_flops(b):
    """Flops of one dense superblock matvec.

    ``H_hole @ psi`` and ``psi @ H_part`` together cost one product pair,
    2*dh*dp*(dh + dp) flops; each factored raise term adds two pairs (the
    term and its transpose) and each number term one.
    """
    pair = 2 * b["dh"] * b["dp"] * (b["dh"] + b["dp"])
    return pair * (1 + 2 * b["raise"] + b["number"])


def _index_entries(obj):
    """Entries of the integer index arrays reachable from ``obj``
    through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.size if obj.dtype.kind in "iu" else 0
    if isinstance(obj, dict):
        return sum(_index_entries(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_index_entries(v) for v in obj)
    return 0


def hop_bytes_computed(model, basis):
    """Bytes one ``HamiltonianAction.apply`` touches, from table sizes.

    Per pair move: two 8-byte ordinals (src, dst), two 8-byte gathers from
    x and two 8-byte read-modify-writes of y; plus the diagonal pass, which
    reads the diagonal and x and writes y.  A level pair with a nonzero hop
    has C(N-2, M-1) moves.
    """
    n, m = basis.n_levels, basis.n_pairs
    pairs = int(np.count_nonzero(np.triu(model.v1, 1)))
    moves = math.comb(n - 2, m - 1) if 1 <= m <= n - 1 else 0
    return pairs * moves * (2 * 8 + 2 * 8 + 2 * 16) + 3 * 8 * basis.dim
