import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pairsolve
from pairsolve import (
    DegenerateEta,
    DimensionMismatch,
    DmrgConfig,
    EmptySector,
    InfeasibleTarget,
    InvariantViolation,
    NoConvergence,
    NotNormalized,
    OddN,
    PairsolveError,
    PatternMismatch,
    SchemaError,
    SingularKernel,
    TooLarge,
    build_reduced_bcs,
    dense_spectrum,
    enumerate_basis,
    iterative_ground,
    memory_report,
    run_infinite,
)
from pairsolve import cli, exactdiag
from pairsolve.cli import main
from pairsolve.exactdiag import lowest_eigenpairs
from test_exactdiag import cap_davidson

TOY_GROUND = 4.5103478446361525

TOY_DOC = """\
{
  "type": "reduced_bcs",
  "eps": [1.0, 2.0, 3.0, 4.0],
  "G": 1.0
}
"""

EIGHT_DOC = """\
{
  "type": "reduced_bcs",
  "eps": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
  "G": 0.4
}
"""


@pytest.fixture
def toy_path(tmp_path):
    p = tmp_path / "toy.json"
    p.write_text(TOY_DOC)
    return str(p)


@pytest.fixture
def eight_path(tmp_path):
    p = tmp_path / "eight.json"
    p.write_text(EIGHT_DOC)
    return str(p)


def test_build_from_family_flags(tmp_path, capsys):
    out = tmp_path / "model.json"
    code = main(
        [
            "build",
            "--family", "trigonometric",
            "--g", "0.1",
            "--epsilon=-0.1,0.9",
            "--eta", "0.3,1.0853981633974483",
            "--out", str(out),
            "--no-timestamp",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "levels: 2" in text
    assert "free parameters (general): 6" in text
    assert "free parameters (integrable family): 5" in text
    assert "invariants: ok" in text
    doc = json.loads(out.read_text())
    assert doc["type"] == "general"
    assert doc["v1"][0][1] == pytest.approx(0.2 * np.sqrt(2.0), abs=1e-12)
    assert "generated_at" not in doc
    manifest = json.loads((tmp_path / "model.json.manifest.json").read_text())
    assert manifest["command"] == "build"
    assert manifest["output_path"] == str(out)


def test_build_reduced_bcs_and_warning(tmp_path, capsys):
    out = tmp_path / "bcs.json"
    code = main(
        ["build", "--bcs-g", "0.0", "--epsilon", "1,2,3,4", "--out", str(out), "--no-timestamp"]
    )
    assert code == 0
    assert "warning: non-interacting model" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["type"] == "general"
    assert doc["n_levels"] == 4


def test_build_from_input_expands_integrable(tmp_path):
    inp = tmp_path / "spec.json"
    inp.write_text(
        json.dumps(
            {
                "type": "integrable",
                "family": "rational",
                "g": -0.2,
                "epsilon": [1.0, 2.0, 3.0],
                "eta": [1.0, 2.0, 3.0],
            }
        )
    )
    out = tmp_path / "expanded.json"
    assert main(["build", "--input", str(inp), "--out", str(out), "--no-timestamp"]) == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "general"
    assert doc["v1"][0][1] == pytest.approx(-0.4, abs=1e-13)


def test_build_duplicate_eta_fails_validation(tmp_path, capsys):
    code = main(
        [
            "build",
            "--family", "rational",
            "--g", "0.5",
            "--epsilon", "1,2,3",
            "--eta", "1,3,3",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_build_requires_a_source(tmp_path, capsys):
    assert main(["build", "--out", str(tmp_path / "x.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_ed_dense_on_toy(toy_path, tmp_path, capsys):
    out = tmp_path / "ed.json"
    code = main(
        ["ed", "--model", toy_path, "--pairs", "2", "--out", str(out), "--no-timestamp"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "sector dimension: 6" in text
    assert "method: dense" in text
    assert "wall seconds" not in text
    doc = json.loads(out.read_text())
    assert set(doc) == {"energies", "residual", "method", "n_levels", "n_pairs", "matvecs"}
    assert doc["energies"][0] == pytest.approx(TOY_GROUND, abs=1e-10)
    # the ground state alone unless --k asks for more
    assert len(doc["energies"]) == 1
    manifest = json.loads((tmp_path / "ed.json.manifest.json").read_text())
    assert manifest["command"] == "ed"
    assert manifest["overrides"]["pairs"] == 2
    assert manifest["overrides"]["seed"] == 0
    assert "out" not in manifest["overrides"]


def test_ed_k_slices_dense_spectrum(toy_path, tmp_path):
    out = tmp_path / "ed.json"
    code = main(
        ["ed", "--model", toy_path, "--pairs", "2", "--k", "3", "--out", str(out), "--no-timestamp"]
    )
    assert code == 0
    assert len(json.loads(out.read_text())["energies"]) == 3


def test_ed_iterative_method(eight_path, tmp_path, capsys):
    # 70 states, above the dense fallback of one pair
    out = tmp_path / "ed.json"
    code = main(
        ["ed", "--model", eight_path, "--pairs", "4", "--out", str(out), "--no-timestamp"]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "iterative"
    assert doc["n_pairs"] == 4
    assert len(doc["energies"]) == 1
    # the solve's work and certificate follow the energy on stdout
    lines = capsys.readouterr().out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("ground energy: "))
    assert lines[at + 1 : at + 3] == [
        f"matvecs: {doc['matvecs']}",
        f"residual: {doc['residual']!r}",
    ]
    assert doc["matvecs"] > 0


def test_ed_full_spectrum_is_k_equal_to_dim(eight_path, tmp_path):
    # k > dim - 2 takes the eigensolver's dense branch: every energy
    out = tmp_path / "ed.json"
    argv = ["ed", "--model", eight_path, "--pairs", "4", "--k", "70", "--out", str(out)]
    assert main([*argv, "--no-timestamp"]) == 0
    doc = json.loads(out.read_text())
    assert doc["method"] == "dense"
    model = build_reduced_bcs(np.arange(1.0, 9.0), 0.4)  # EIGHT_DOC
    exact = dense_spectrum(model, enumerate_basis(8, 4)).energies
    assert np.allclose(doc["energies"], exact, rtol=1e-12, atol=0.0)


def test_ed_non_convergence_reports_best_estimate(tmp_path, capsys, monkeypatch):
    # three Davidson steps for two pairs cannot converge; the CLI prints
    # the Ritz values and the residual that NoConvergence carries.  Ten
    # levels at half filling (252 states) are above the dense fallback
    # of two pairs
    model = build_reduced_bcs(np.arange(1.0, 11.0), 0.4)
    path = tmp_path / "ten.json"
    path.write_text(json.dumps(pairsolve.save_model(model)))
    cap_davidson(monkeypatch, 3)
    with pytest.raises(NoConvergence) as exc:
        iterative_ground(model, enumerate_basis(10, 5), k=2)
    out = tmp_path / "ed.json"
    code = main(
        [
            "ed",
            "--model", str(path),
            "--pairs", "5",
            "--k", "2",
            "--out", str(out),
            "--no-timestamp",
        ]
    )
    assert code == 5
    err = capsys.readouterr().err
    assert "error:" in err
    best = ", ".join(repr(float(e)) for e in exc.value.energies)
    assert f"best energies: {best}\n" in err
    assert f"residual: {exc.value.residual!r}\n" in err
    assert exc.value.residual > 0
    assert not out.exists()


def test_ed_over_budget_exits_3(tmp_path, capsys):
    # the basis budget refuses the sector before either solver runs
    model = tmp_path / "big.json"
    model.write_text(
        json.dumps({"type": "reduced_bcs", "eps": list(range(1, 41)), "G": 0.5})
    )
    code = main(
        ["ed", "--model", str(model), "--pairs", "20", "--out", str(tmp_path / "x.json")]
    )
    assert code == 3
    assert capsys.readouterr().err == (
        "error: sector dimension C(40,20) = 137846528820 exceeds "
        "the budget of 5000000 states\n"
    )


class SolverCalled(Exception):
    """Raised by a solver patched to fail if it is called."""


def test_ed_k_over_the_storage_of_one_pair_at_the_budget_exits_3(tmp_path, capsys, monkeypatch):
    # --k 300 at N = 20, M = 10 would hold a 903-vector Davidson window,
    # 4.5e8 entries, over the 75,000,081 of one pair on a 5e6-state
    # sector: refused before the action is built or any solver runs
    def called(*args, **kwargs):
        raise SolverCalled

    action = exactdiag.HamiltonianAction
    for name in ("HamiltonianAction", "lowest_eigenpairs", "dense_spectrum"):
        monkeypatch.setattr(exactdiag, name, called)
    model = tmp_path / "twenty.json"
    model.write_text(json.dumps({"type": "reduced_bcs", "eps": list(range(1, 21)), "G": 0.5}))
    out = str(tmp_path / "x.json")
    code = main(["ed", "--model", str(model), "--pairs", "10", "--k", "300", "--out", out])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: 300 eigenpairs of a 184756-state sector would hold ")
    assert err.endswith(" entries, over the 75000081 of one pair at 5000000 states\n")
    # every pair of the 3432-state sector is a dense solve of 3432^2
    # entries, within the bound: it reaches the solver
    model.write_text(json.dumps({"type": "reduced_bcs", "eps": list(range(1, 15)), "G": 0.5}))
    monkeypatch.setattr(exactdiag, "HamiltonianAction", action)
    with pytest.raises(SolverCalled):
        main(["ed", "--model", str(model), "--pairs", "7", "--k", "3432", "--out", out])
    assert exactdiag.eigensolver_entries(3432, 3432) == 3432**2


BAD_FLAGS = [
    (["ed", "--k", "0"], "k must be in 1..70, got 0"),
    (["ed", "--k", "-2"], "k must be in 1..70, got -2"),
    (["ed", "--k", "100"], "k must be in 1..70, got 100"),
    (["ed", "--k", "71"], "k must be in 1..70, got 71"),
    (["ed", "--tol", "nan"], "tol must be finite and positive, got nan"),
    (["ed", "--tol", "inf"], "tol must be finite and positive, got inf"),
    (["ed", "--seed", "-1"], "seed must be nonnegative, got -1"),
    # k = 1 on 70 states runs Davidson, k = 70 the dense build; both refuse these
    (["ed", "--k", "70", "--tol", "nan"], "tol must be finite and positive, got nan"),
    (["ed", "--k", "70", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["dmrg", "--m", "32", "--tol", "inf"], "tol must be finite and positive, got inf"),
    (["dmrg", "--m", "32", "--seed", "-1"], "seed must be nonnegative, got -1"),
    (["sweep", "--m-list", "2,x"], "--m-list must be comma-separated integers, got 'x'"),
]


@pytest.mark.parametrize(
    "argv, message", BAD_FLAGS, ids=[" ".join(argv) for argv, _ in BAD_FLAGS]
)
def test_bad_solver_flags_exit_2(eight_path, tmp_path, capsys, argv, message):
    # the 8-level sector at 4 pairs has dim 70
    out = tmp_path / "x.json"
    code = main([*argv, "--model", eight_path, "--pairs", "4", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [tmp_path / "eight.json"]


COMMON_OPTIONS = {"func", "model", "pairs", "out", "seed", "tol", "no_timestamp"}
SOLVE = ["--model", "m.json", "--pairs", "1", "--out", "o.json"]
OPTION_SETS = [
    (
        ["build", "--out", "o.json"],
        {"func", "input", "family", "g", "epsilon", "eta", "bcs_g", "out", "no_timestamp"},
    ),
    (["ed", *SOLVE], COMMON_OPTIONS | {"k"}),
    (["dmrg", *SOLVE, "--m", "4"], COMMON_OPTIONS | {"m", "history"}),
    (["compare", *SOLVE, "--m", "4"], COMMON_OPTIONS | {"m", "format"}),
    (["sweep", *SOLVE, "--m-list", "4"], COMMON_OPTIONS | {"m_list", "format"}),
]


@pytest.mark.parametrize("argv, keys", OPTION_SETS, ids=[argv[0] for argv, _ in OPTION_SETS])
def test_option_census(argv, keys):
    # every option of every subcommand: a new knob is an edit here
    assert set(vars(cli.build_parser().parse_args(argv))) == keys


LIBRARY_KNOBS = [
    (iterative_ground, {"model", "basis", "k", "tol", "seed"}),
    (dense_spectrum, {"model", "basis"}),
    (enumerate_basis, {"n_levels", "n_pairs"}),
    (lowest_eigenpairs, {"matvec", "n", "k", "tol", "v0", "seed", "diagonal"}),
]


@pytest.mark.parametrize("func, names", LIBRARY_KNOBS, ids=[f.__name__ for f, _ in LIBRARY_KNOBS])
def test_library_knob_census(func, names):
    # every parameter of the solver entry points: a new knob is an edit here
    assert set(inspect.signature(func).parameters) == names


def test_dmrg_config_census():
    fields = {f.name for f in dataclasses.fields(DmrgConfig)}
    assert fields == {"m", "total_pairs", "superblock_tol", "seed"}


def test_ed_pairs_beyond_levels(toy_path, tmp_path, capsys):
    code = main(
        ["ed", "--model", toy_path, "--pairs", "9", "--out", str(tmp_path / "x.json")]
    )
    assert code == 2


def test_ed_missing_model_file(tmp_path):
    code = main(
        ["ed", "--model", str(tmp_path / "nope.json"), "--pairs", "1", "--out", str(tmp_path / "x.json")]
    )
    assert code == 2


def test_dmrg_on_toy(toy_path, tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(
        [
            "dmrg",
            "--model", toy_path,
            "--pairs", "2",
            "--m", "8",
            "--out", str(out),
            "--no-timestamp",
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
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
    assert doc["within_bound"] is True
    assert doc["final_energy"] == pytest.approx(TOY_GROUND, abs=1e-9)
    assert doc["iterations"] == 2
    assert doc["wall_seconds"] == 0.0
    history = (tmp_path / "run.history.csv").read_text()
    lines = history.splitlines()
    assert lines[0].startswith("iteration,levels_in_superblock,target_pairs,E0,")
    assert lines[0].endswith(
        ",dim_particle,matvecs,residual,warm_start_overlap,grow_s,setup_s,solve_s,truncate_s"
    )
    assert len(lines) == 3
    for line in lines[1:]:
        matvecs, residual, overlap, *phases = line.split(",")[8:]
        # --no-timestamp zeroes the phase seconds
        assert phases == ["0", "0", "0", "0"]
        # the toy's superblocks are solved densely: one matvec per column
        assert int(matvecs) >= 2
        assert 0.0 <= float(residual) <= 1e-10 * abs(float(line.split(",")[3]))
        assert 0.0 <= float(overlap) <= 1.0 + 1e-12
    text = capsys.readouterr().out
    assert "iterations: 2" in text


def test_dmrg_custom_history_path(toy_path, tmp_path):
    out = tmp_path / "run.json"
    hist = tmp_path / "conv.csv"
    code = main(
        [
            "dmrg",
            "--model", toy_path,
            "--pairs", "2",
            "--m", "4",
            "--history", str(hist),
            "--out", str(out),
            "--no-timestamp",
        ]
    )
    assert code == 0
    assert hist.read_text().splitlines()[0].endswith(
        ",matvecs,residual,warm_start_overlap,grow_s,setup_s,solve_s,truncate_s"
    )


def test_dmrg_odd_levels(tmp_path, capsys):
    model = tmp_path / "odd.json"
    model.write_text(json.dumps({"type": "reduced_bcs", "eps": [1.0, 2.0, 3.0], "G": 0.5}))
    code = main(
        ["dmrg", "--model", str(model), "--pairs", "1", "--m", "4", "--out", str(tmp_path / "x.json")]
    )
    assert code == 4


def test_dmrg_infeasible_pairs(toy_path, tmp_path):
    code = main(
        ["dmrg", "--model", toy_path, "--pairs", "5", "--m", "4", "--out", str(tmp_path / "x.json")]
    )
    assert code == 4


@pytest.mark.parametrize(
    "command, m_flag",
    [("dmrg", ["--m", "4"]), ("compare", ["--m", "4"]), ("sweep", ["--m-list", "2,4"])],
)
def test_dmrg_storage_violation_exits_2(
    toy_path, tmp_path, monkeypatch, capsys, command, m_flag
):
    # every DMRG run is checked against the storage bound before any output
    real = cli.run_infinite

    def oversized(model, config):
        return dataclasses.replace(real(model, config), per_level_peak_entries=10**9)

    monkeypatch.setattr(cli, "run_infinite", oversized)
    out = tmp_path / "x.out"
    code = main(
        [command, "--model", toy_path, "--pairs", "2", *m_flag, "--out", str(out)]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "toy.json"]


# the exit codes the README documents, by failure
EXIT_CODES = [
    (np.linalg.LinAlgError("eigh did not converge"), 5),
    (MemoryError(), 3),
    (PairsolveError("base"), 2),
    (SchemaError("schema"), 2),
    (InvariantViolation("invariant"), 2),
    (DegenerateEta("eta"), 2),
    (SingularKernel("kernel"), 2),
    (PatternMismatch("pattern"), 2),
    (DimensionMismatch("dimension"), 2),
    (NotNormalized("norm"), 2),
    (FileNotFoundError("no such file"), 2),
    (ValueError("bad value"), 2),
    (TooLarge("too large"), 3),
    (OddN("odd"), 4),
    (InfeasibleTarget("infeasible"), 4),
    (EmptySector("empty"), 4),
    (NoConvergence("unsettled"), 5),
    (NoConvergence("settled", energies=np.array([-1.5, 0.25]), residual=1e-3), 5),
]


def test_exit_code_table_covers_every_error_class():
    covered = {type(exc) for exc, _ in EXIT_CODES}
    assert set(PairsolveError.__subclasses__()) <= covered


@pytest.mark.parametrize("exc, code", EXIT_CODES)
def test_solver_errors_map_to_exit_codes(
    toy_path, tmp_path, monkeypatch, capsys, exc, code
):
    def fail(model, config):
        raise exc

    monkeypatch.setattr(cli, "run_infinite", fail)
    out = tmp_path / "x.json"
    argv = ["dmrg", "--model", toy_path, "--pairs", "2", "--m", "4", "--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if getattr(exc, "energies", None) is not None:
        assert err.endswith("best energies: -1.5, 0.25\nresidual: 0.001\n")
    elif code == 5:
        assert err.endswith("\nbest energies: none settled\n")
    else:
        assert "best energies" not in err
    assert list(tmp_path.iterdir()) == [tmp_path / "toy.json"]


def test_compare_json(toy_path, tmp_path, capsys):
    out = tmp_path / "cmp.json"
    code = main(
        [
            "compare",
            "--model", toy_path,
            "--pairs", "2",
            "--m", "8",
            "--out", str(out),
            "--no-timestamp",
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["ed_method"] == "dense"
    assert doc["sig_figs"] >= 9
    assert doc["abs_error"] == pytest.approx(abs(doc["e_dmrg"] - doc["e_ed"]), rel=1e-12)
    assert "agreement:" in capsys.readouterr().out


def test_compare_csv(toy_path, tmp_path):
    out = tmp_path / "cmp.csv"
    code = main(
        [
            "compare",
            "--model", toy_path,
            "--pairs", "2",
            "--m", "4",
            "--format", "csv",
            "--out", str(out),
            "--no-timestamp",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,e_ed,e_dmrg,abs_error,rel_error,sig_figs"
    assert len(lines) == 2
    assert lines[1].split(",")[0] == "4"


# two degenerate levels: the exact ground energy is 0.0, DMRG's -1.1e-16
ZERO_DOC = {
    "type": "general",
    "n_levels": 2,
    "eps": [0.25, 0.25],
    "v1": [[0.0, 0.5], [0.5, 0.0]],
    "v2": [[0.0, 0.0], [0.0, 0.0]],
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_compare_at_a_zero_reference_reports_no_figures(tmp_path, capsys, fmt):
    model = tmp_path / "zero.json"
    model.write_text(json.dumps(ZERO_DOC))
    out = tmp_path / f"cmp.{fmt}"
    argv = ["compare", "--model", str(model), "--pairs", "1", "--m", "2", "--format", fmt]
    assert main([*argv, "--out", str(out), "--no-timestamp"]) == 0
    if fmt == "json":
        assert '"rel_error": Infinity' in out.read_text()
        doc = json.loads(out.read_text())
    else:
        header, row = out.read_text().splitlines()
        doc = dict(zip(header.split(","), row.split(",")))
    assert float(doc["e_ed"]) == 0.0
    assert float(doc["rel_error"]) == np.inf
    assert int(doc["sig_figs"]) == 0
    assert "agreement: 0 significant figures" in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc, argv, code",
    [
        # reduced BCS of 16 levels: DmrgConfig refuses m = 1
        ({"type": "reduced_bcs", "eps": list(range(1, 17)), "G": 0.3}, ["--m", "1"], 2),
        # an odd number of levels: the DMRG plan refuses it
        ({"type": "reduced_bcs", "eps": list(range(1, 16)), "G": 0.3}, ["--m", "8"], 4),
    ],
    ids=["m-1", "odd-n"],
)
def test_compare_checks_the_whole_run_before_the_ed_solve(tmp_path, monkeypatch, doc, argv, code):
    def unreachable(*args, **kwargs):
        pytest.fail("compare ran the ED solve before its checks")

    monkeypatch.setattr(cli, "iterative_ground", unreachable)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    assert main(["compare", "--model", str(model), "--pairs", "7", *argv, "--out", str(out)]) == code
    assert not out.exists()


#: Reduced BCS over eps = 1..10 whose Hamiltonian scale overflows the
#: solvers' squared norms; each solved to a wrong energy, exit 0, unchecked.
OVERFLOWING = {
    "g-3e159": {"type": "reduced_bcs", "eps": list(range(1, 11)), "G": 3e159},
    "g-1e308": {"type": "reduced_bcs", "eps": list(range(1, 11)), "G": 1e308},
    "eps-1e308": {"type": "reduced_bcs", "eps": [1e308, *range(2, 11)], "G": 1.0},
}


@pytest.mark.parametrize("doc", OVERFLOWING.values(), ids=OVERFLOWING.keys())
@pytest.mark.parametrize(
    "argv",
    [["build", "--input"], ["ed", "--pairs", "5", "--model"], ["dmrg", "--pairs", "5", "--m", "8", "--model"]],
    ids=["build", "ed", "dmrg"],
)
def test_overflowing_models_exit_2_before_any_solve(tmp_path, capsys, monkeypatch, doc, argv):
    def unreachable(*args, **kwargs):
        pytest.fail("a solve started on a model over the scale bound")

    monkeypatch.setattr(cli, "iterative_ground", unreachable)
    monkeypatch.setattr(cli, "run_infinite", unreachable)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    out = tmp_path / "x.json"
    assert main([*argv, str(model), "--out", str(out)]) == 2
    assert "error: Hamiltonian scale" in capsys.readouterr().err
    assert not out.exists()


def _cli_model(kind, n, seed):
    if kind == "zero":
        return ZERO_DOC
    rng = np.random.default_rng(seed)
    eps = rng.normal(size=n).tolist()
    if kind == "reduced_bcs":
        return {"type": "reduced_bcs", "eps": eps, "G": float(rng.normal())}
    v1, v2 = rng.normal(size=(2, n, n))
    v1, v2 = v1 + v1.T, v2 + v2.T
    np.fill_diagonal(v1, 0.0)
    np.fill_diagonal(v2, 0.0)
    return {"type": "general", "n_levels": n, "eps": eps, "v1": v1.tolist(), "v2": v2.tolist()}


#: values of each drawn flag that a check refuses (a k of 200 is above dim)
INVALID = {
    "pairs": [-1, 9],
    "m": [1, 0, -1],
    "k": [0, -1, 200],
    "tol": [0.0, -1e-10, np.nan, np.inf],
    "seed": [-1, -2],
}


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    command=st.sampled_from(["ed", "dmrg", "compare", "sweep"]),
    kind=st.sampled_from(["general", "reduced_bcs"]),
    n=st.integers(2, 7),
    model_seed=st.integers(0, 3),
    pairs=st.integers(0, 7),
    m=st.integers(2, 8),
    k=st.integers(1, 4),
    tol=st.sampled_from([1e-12, 1e-10, 1e-6]),
    seed=st.integers(0, 3),
    bad=st.sampled_from([None, None, None, *INVALID]),
    which=st.integers(0, 3),
)
@example(
    command="compare", kind="zero", n=2, model_seed=0, pairs=1, m=2, k=1, tol=1e-10, seed=0,
    bad=None, which=0,
)
def test_every_input_exits_with_a_documented_code(
    tmp_path_factory, command, kind, n, model_seed, pairs, m, k, tol, seed, bad, which
):
    # odd n (no DMRG plan) and k above the sector size are drawn as well
    flags = {"pairs": min(pairs, n), "m": m, "k": k, "tol": tol, "seed": seed}
    if bad:
        flags[bad] = INVALID[bad][which % len(INVALID[bad])]
    where = tmp_path_factory.mktemp("cli")
    model = where / "model.json"
    model.write_text(json.dumps(_cli_model(kind, n, model_seed)))
    argv = [command, "--model", str(model), "--out", str(where / "o"), "--no-timestamp"]
    argv += [f"--{name}={flags[name]!r}" for name in ("pairs", "tol", "seed")]
    argv += {
        "ed": [f"--k={flags['k']}"],
        "dmrg": [f"--m={flags['m']}"],
        "compare": [f"--m={flags['m']}"],
        "sweep": [f"--m-list={flags['m']},{flags['m'] + 2}"],
    }[command]
    assert main(argv) in (0, 2, 3, 4, 5)


def test_sweep_csv(toy_path, tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--model", toy_path,
            "--pairs", "2",
            "--m-list", "2,4",
            "--out", str(out),
            "--no-timestamp",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == (
        "m,E0,error_vs_best,trunc_weight,wall_seconds,"
        "peak_memory_entries,self_convergence,per_level_peak_entries,within_bound"
    )
    assert len(lines) == 3
    last = lines[2].split(",")
    assert last[0] == "4"
    assert float(last[2]) == 0.0  # the richest run is its own reference
    assert float(last[6]) == 0.0
    # the toy's two-level blocks (sectors of 1, 2 and 1 states) keep one
    # raise mode each, held on its edges 0 -> 1 and 1 -> 2: 2 + 2 entries
    assert last[7:] == ["8", "true"]


def test_sweep_json_format(toy_path, tmp_path):
    out = tmp_path / "sweep.json"
    code = main(
        [
            "sweep",
            "--model", toy_path,
            "--pairs", "2",
            "--m-list", "2,4",
            "--format", "json",
            "--out", str(out),
            "--no-timestamp",
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["m"] == 2
    assert doc["rows"][1]["error_vs_best"] == 0.0
    model = build_reduced_bcs([1.0, 2.0, 3.0, 4.0], 1.0)
    for row in doc["rows"]:
        report = memory_report(run_infinite(model, DmrgConfig(m=row["m"], total_pairs=2)))
        assert row["per_level_peak_entries"] == report["per_level_peak_entries"]
        assert row["within_bound"] is True


def test_sweep_rejects_non_ascending(toy_path, tmp_path, capsys):
    code = main(
        ["sweep", "--model", toy_path, "--pairs", "2", "--m-list", "4,2", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2
    assert "ascending" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--family", "trigonometric", "--g", "0.1", "--epsilon=-0.1,0.9",
         "--eta", "0.3,1.0853981633974483", "--out", "out.json"],
        ["ed", "--model", "MODEL", "--pairs", "2", "--out", "out.json"],
        ["dmrg", "--model", "MODEL", "--pairs", "2", "--m", "8", "--out", "out.json"],
        ["compare", "--model", "MODEL", "--pairs", "2", "--m", "4", "--out", "out.json"],
        ["compare", "--model", "MODEL", "--pairs", "2", "--m", "4", "--format", "csv",
         "--out", "out.csv"],
        ["sweep", "--model", "MODEL", "--pairs", "2", "--m-list", "2,4", "--out", "out.csv"],
        ["sweep", "--model", "MODEL", "--pairs", "2", "--m-list", "2,4", "--format", "json",
         "--out", "out.json"],
    ],
    ids=["build", "ed", "dmrg", "compare-json", "compare-csv", "sweep-csv", "sweep-json"],
)
def test_outputs_are_byte_identical_across_runs(toy_path, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    argv = [toy_path if a == "MODEL" else a for a in argv]

    def outputs():
        assert main([*argv, "--no-timestamp"]) == 0
        return {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name != "toy.json"}

    first = outputs()
    out = argv[argv.index("--out") + 1]
    assert {out, out + ".manifest.json"} <= set(first)
    if argv[0] == "dmrg":
        assert "out.history.csv" in first
    assert outputs() == first


def test_module_entry_point(toy_path, tmp_path):
    out = tmp_path / "ed.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "pairsolve",
            "ed", "--model", toy_path, "--pairs", "2", "--out", str(out), "--no-timestamp",
        ],
        capture_output=True,
        text=True,
        # the package the tests import, installed or not
        env={**os.environ, "PYTHONPATH": str(Path(pairsolve.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert "ground energy" in proc.stdout
    assert out.exists()
