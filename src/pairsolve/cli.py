"""Command-line front end: build | ed | dmrg | compare | sweep.

Every command is deterministic for fixed inputs and seed; --no-timestamp
additionally suppresses generation times (and zeroes wall-clock fields) so
output files are byte-identical across runs.  Each output file gets a
sibling <out>.manifest.json recording the command, inputs and seeds.

Exit codes: 0 success, 2 validation failure, 3 problem too large or out of
memory, 4 unsupported shape, 5 solver failure.  errors.py gives each
PairsolveError class its code; main maps the numpy and builtin errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .basis import enumerate_basis
from .dmrg import (
    DmrgConfig,
    csv_text,
    history_csv,
    memory_report,
    run_infinite,
    summary_dict,
    without_timings,
)
from .errors import NoConvergence, PairsolveError, SchemaError
from .exactdiag import check_solver_args, iterative_ground
from .model import (
    FamilyKind,
    IntegrableSpec,
    PairingModel,
    build_integrable,
    build_reduced_bcs,
    load_model,
    param_count,
    save_model,
)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path: str, payload: dict, no_timestamp: bool):
    if not no_timestamp:
        payload = {**payload, "generated_at": _timestamp()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_outputs(args, doc: dict, rows=None):
    """The one writer of every command: ``doc`` to --out as JSON, or
    under --format csv the table of ``rows``; then <out>.manifest.json,
    recording what the command ran with (inputs, resolved flags, output
    target), and a ``wrote`` line on stdout."""
    fmt = getattr(args, "format", "json")
    if fmt == "csv":
        Path(args.out).write_text(csv_text(rows))
    else:
        _write_json(args.out, doc, args.no_timestamp)
    skip = {"func", "model", "input", "out", "history", "format", "no_timestamp"}
    manifest = {
        "command": args.func.__name__.removeprefix("cmd_"),
        "model_path": getattr(args, "model", None) or getattr(args, "input", None) or "",
        "overrides": {
            k: v for k, v in vars(args).items() if k not in skip and v is not None
        },
        "output_path": args.out,
        "format": fmt,
    }
    _write_json(args.out + ".manifest.json", manifest, args.no_timestamp)
    print(f"wrote {args.out}")


def _expand(parsed) -> PairingModel:
    if isinstance(parsed, IntegrableSpec):
        return build_integrable(parsed)
    return parsed


def _load_model_file(path: str) -> PairingModel:
    return _expand(load_model(Path(path).read_text()))


def _csv_floats(text: str):
    return [float(x) for x in text.split(",")]


def _agreement(value: float, ref: float):
    """How far ``value`` agrees with ``ref``: the absolute error, the
    relative error (0 when they are equal, inf at ``ref`` 0) and the
    significant figures they share, ``floor(-log10(rel))`` clipped to
    0..16 (16 when equal, 0 at inf): 16 figures is the practical ceiling
    of double precision."""
    diff = abs(value - ref)
    if diff == 0.0:
        return diff, 0.0, 16
    rel = diff / abs(ref) if ref != 0.0 else math.inf
    return diff, rel, 0 if rel >= 1.0 else min(16, math.floor(-math.log10(rel)))


# --- build -----------------------------------------------------------------


def cmd_build(args) -> int:
    if args.input:
        parsed = load_model(Path(args.input).read_text())
    elif args.family:
        if args.g is None or args.epsilon is None or args.eta is None:
            raise SchemaError("--family needs --g, --epsilon and --eta")
        parsed = IntegrableSpec(
            g=args.g,
            epsilon=np.array(_csv_floats(args.epsilon)),
            eta=np.array(_csv_floats(args.eta)),
            family=FamilyKind(args.family),
        )
    elif args.bcs_g is not None:
        if args.epsilon is None:
            raise SchemaError("--bcs-g needs --epsilon")
        parsed = build_reduced_bcs(_csv_floats(args.epsilon), args.bcs_g)
    else:
        raise SchemaError("give --input, or --family flags, or --bcs-g")
    single_family = isinstance(parsed, IntegrableSpec)
    model = _expand(parsed)
    n = model.n_levels
    print(f"levels: {n}")
    print(f"free parameters (general): {param_count('general', n)}")
    if single_family:
        print(
            f"free parameters (integrable family): "
            f"{param_count('integrable_single', n)}"
        )
    print("invariants: ok")
    if not np.any(model.v1) and not np.any(model.v2):
        print("warning: non-interacting model")
    _write_outputs(args, save_model(model))
    return 0


# --- ed --------------------------------------------------------------------


def _exact_diag(model, basis, args, k=1):
    """The k lowest states by iterative_ground, which solves small
    sectors, or k > dim - 2 (all of them at k = dim), densely; the flags
    are checked before the action is built."""
    if not 1 <= k <= basis.dim:
        raise SchemaError(f"--k must be in 1..{basis.dim}, got {k}")
    check_solver_args(args.tol, args.seed)
    return iterative_ground(model, basis, k=k, tol=args.tol, seed=args.seed)


def cmd_ed(args) -> int:
    model = _load_model_file(args.model)
    start = time.perf_counter()
    basis = enumerate_basis(model.n_levels, args.pairs)
    result = _exact_diag(model, basis, args, args.k)
    elapsed = time.perf_counter() - start
    print(f"sector dimension: {basis.dim}")
    print(f"method: {result.method}")
    print(f"ground energy: {float(result.energies[0])!r}")
    print(f"matvecs: {result.matvecs}")
    print(f"residual: {float(result.residual)!r}")
    if not args.no_timestamp:
        print(f"wall seconds: {elapsed:.3f}")
    _write_outputs(args, result.to_json_dict())
    return 0


# --- dmrg ------------------------------------------------------------------


def _run_dmrg(model, args, m):
    config = DmrgConfig(
        m=m,
        total_pairs=args.pairs,
        superblock_tol=args.tol,
        seed=args.seed,
    )
    result = run_infinite(model, config)
    memory_report(result)  # raises InvariantViolation before any output
    if args.no_timestamp:
        result = without_timings(result)
    return result


def cmd_dmrg(args) -> int:
    model = _load_model_file(args.model)
    result = _run_dmrg(model, args, args.m)
    history_path = args.history or str(
        Path(args.out).with_name(Path(args.out).stem + ".history.csv")
    )
    Path(history_path).write_text(history_csv(result))
    print(f"final energy: {result.final_energy!r}")
    print(f"iterations: {len(result.iterations)}")
    _write_outputs(args, summary_dict(result))
    print(f"wrote {history_path}")
    return 0


# --- compare ---------------------------------------------------------------


def cmd_compare(args) -> int:
    model = _load_model_file(args.model)
    # every check runs before the ED solve: the basis budget and --pairs
    # here, then DmrgConfig's and the plan's as DMRG starts, and those
    # cover ED's tol and seed
    basis = enumerate_basis(model.n_levels, args.pairs)
    dm = _run_dmrg(model, args, args.m)
    ed = _exact_diag(model, basis, args)
    e_ed = float(ed.energies[0])
    e_dm = float(dm.final_energy)
    abs_err, rel_err, sig_figs = _agreement(e_dm, e_ed)
    report = {
        "e_ed": e_ed,
        "e_dmrg": e_dm,
        "abs_error": abs_err,
        "rel_error": rel_err,
        "sig_figs": sig_figs,
        "ed_method": ed.method,
        "m": args.m,
        "n_levels": model.n_levels,
        "total_pairs": args.pairs,
    }
    print(f"e_ed: {e_ed!r}")
    print(f"e_dmrg: {e_dm!r}")
    print(f"agreement: {sig_figs} significant figures")
    columns = ("m", "e_ed", "e_dmrg", "abs_error", "rel_error", "sig_figs")
    _write_outputs(args, report, [{c: report[c] for c in columns}])
    return 0


# --- sweep -----------------------------------------------------------------


def cmd_sweep(args) -> int:
    model = _load_model_file(args.model)
    ms = []
    for x in args.m_list.split(","):
        try:
            ms.append(int(x))
        except ValueError:
            raise SchemaError(f"--m-list must be comma-separated integers, got {x!r}") from None
    if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
        raise SchemaError(f"--m-list must be strictly ascending, got {args.m_list}")
    results = [_run_dmrg(model, args, m) for m in ms]
    e_best = results[-1].final_energy
    rows = []
    for result, m in zip(results, ms):
        diff, rel, _ = _agreement(result.final_energy, e_best)
        worst = max(
            (max(r.trunc_weight_hole, r.trunc_weight_particle) for r in result.iterations),
            default=0.0,
        )
        report = memory_report(result)
        rows.append(
            {
                "m": m,
                "E0": result.final_energy,
                "error_vs_best": diff,
                "trunc_weight": worst,
                "wall_seconds": result.wall_seconds,
                "peak_memory_entries": result.memory_peak_entries,
                "self_convergence": rel,
                "per_level_peak_entries": report["per_level_peak_entries"],
                "within_bound": report["within_bound"],
            }
        )
    print(f"swept m = {ms}")
    _write_outputs(args, {"rows": rows}, rows)
    return 0


# --- parser ----------------------------------------------------------------


def _add_common(p):
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--pairs", type=int, required=True, help="total pair number M")
    p.add_argument("--out", required=True, help="output file path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit generation times and zero wall-clock fields",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairsolve",
        description="Solvers for pairing Hamiltonians: model building, "
        "exact diagonalization and infinite-algorithm DMRG.",
    )
    sub = parser.add_subparsers(required=True)

    b = sub.add_parser("build", help="build and validate a model file")
    b.add_argument("--input", help="existing model JSON to validate/expand")
    b.add_argument(
        "--family", choices=[f.value for f in FamilyKind], help="solvable family"
    )
    b.add_argument("--g", type=float, help="family coupling constant")
    b.add_argument("--epsilon", help="comma-separated level energies")
    b.add_argument("--eta", help="comma-separated family parameters")
    b.add_argument("--bcs-g", type=float, help="constant pairing strength G")
    b.add_argument("--out", required=True)
    b.add_argument("--no-timestamp", action="store_true")
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("ed", help="exact diagonalization of one pair sector")
    _add_common(e)
    e.add_argument("--k", type=int, default=1, help="number of lowest states (default 1)")
    e.set_defaults(func=cmd_ed)

    d = sub.add_parser("dmrg", help="infinite-algorithm DMRG run")
    _add_common(d)
    d.add_argument("--m", type=int, required=True, help="kept states per block")
    d.add_argument("--history", help="history CSV path (default <out>.history.csv)")
    d.set_defaults(func=cmd_dmrg)

    c = sub.add_parser("compare", help="DMRG vs exact diagonalization")
    _add_common(c)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--format", choices=["json", "csv"], default="json")
    c.set_defaults(func=cmd_compare)

    s = sub.add_parser("sweep", help="DMRG convergence sweep over m")
    _add_common(s)
    s.add_argument("--m-list", required=True, help="comma-separated ascending m values")
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PairsolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, NoConvergence):
            if exc.energies is None:
                print("best energies: none settled", file=sys.stderr)
            else:
                best = ", ".join(repr(float(e)) for e in exc.energies)
                print(f"best energies: {best}", file=sys.stderr)
                print(f"residual: {exc.residual!r}", file=sys.stderr)
        return exc.exit_code
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
        print(f"error: linear algebra failure: {exc}", file=sys.stderr)
        print("best energies: none settled", file=sys.stderr)
        return 5
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory {exc}".rstrip(), file=sys.stderr)
        return 3


def entry_point():
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
