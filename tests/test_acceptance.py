"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line (visible with -s; pytest -v shows the
per-test verdict either way).  Criterion 6 is the long N = 100 run and is
marked slow.
"""
import json
import math
import time

import numpy as np
import pytest

from pairsolve import (
    DmrgConfig,
    FamilyKind,
    GrownBlock,
    IntegrableSpec,
    PairingModel,
    build_integrable,
    build_reduced_bcs,
    cot_kernel,
    dense_spectrum,
    enumerate_basis,
    iterative_ground,
    memory_report,
    run_infinite,
    sin_kernel,
    target_pairs,
)
from pairsolve.cli import main
from pairsolve.dmrg import _plan, _solve_superblock, _truncate_with_basis, vacuum_block

TOY_DOC = {"type": "reduced_bcs", "eps": [1.0, 2.0, 3.0, 4.0], "G": 1.0}
TOY_GROUND = 4.5103478446361525


def _passed(n, label):
    print(f"ACCEPTANCE {n:02d} {label}: PASS")


def _random_model(rng, n):
    kind = rng.integers(0, 4)
    if kind == 0:
        v1 = rng.normal(size=(n, n)) * 0.4
        v1 = 0.5 * (v1 + v1.T)
        np.fill_diagonal(v1, 0.0)
        v2 = rng.normal(size=(n, n)) * 0.25
        v2 = 0.5 * (v2 + v2.T)
        np.fill_diagonal(v2, 0.0)
        return PairingModel(eps=rng.normal(size=n) * 2.0, v1=v1, v2=v2)
    family = [FamilyKind.RATIONAL, FamilyKind.TRIGONOMETRIC, FamilyKind.HYPERBOLIC][kind - 1]
    eta = np.sort(rng.uniform(0.1, 2.9, size=n)) + np.arange(n) * 0.03
    spec = IntegrableSpec(
        g=float(rng.uniform(-0.6, 0.6)),
        epsilon=rng.normal(size=n) * 1.5,
        eta=eta,
        family=family,
    )
    return build_integrable(spec)


@pytest.fixture(scope="module")
def n16_model():
    return build_reduced_bcs(np.arange(1.0, 17.0), 0.5)


@pytest.fixture(scope="module")
def n16_exact(n16_model):
    res = iterative_ground(n16_model, enumerate_basis(16, 8), tol=1e-12)
    return float(res.energies[0])


@pytest.fixture(scope="module")
def n16_runs(n16_model):
    return {
        m: run_infinite(n16_model, DmrgConfig(m=m, total_pairs=8))
        for m in (8, 16, 32, 64)
    }


@pytest.fixture(scope="module")
def small_exact_runs():
    """Half-filled constant-pairing chains with untruncating m = 2^(N/2)."""
    out = {}
    for n in (4, 6, 8):
        model = build_reduced_bcs(np.arange(1.0, n + 1.0), 1.0)
        exact = dense_spectrum(model, enumerate_basis(n, n // 2)).energies[0]
        result = run_infinite(model, DmrgConfig(m=2 ** (n // 2), total_pairs=n // 2))
        out[n] = (float(exact), result)
    return out


def test_criterion_01_iterative_agrees_with_dense_all_fillings():
    # 20 randomized models up to 8 levels, every pair sector, lowest
    # three states, 1e-9 relative, within a minute
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for trial in range(20):
        n = int(rng.integers(2, 9))
        model = _random_model(rng, n)
        for pairs in range(n + 1):
            basis = enumerate_basis(n, pairs)
            k = min(3, basis.dim)
            it = iterative_ground(model, basis, k=k, tol=1e-12, seed=trial)
            dn = dense_spectrum(model, basis)
            assert np.allclose(
                it.energies, dn.energies[:k], rtol=1e-9, atol=1e-9
            ), f"trial {trial}, {pairs} pairs on {n} levels"
    assert time.perf_counter() - start < 60.0
    _passed(1, "iterative vs dense, 20 random models")


def test_criterion_02_rational_family_reduces_to_constant_pairing():
    # eta = epsilon = 1..8, g = -0.3, half filling: the expanded model is
    # the constant-pairing model up to the rigid shift
    # 2gM(M-1) - 2gM(N-1); all 70 states to 1e-9
    n, pairs, g = 8, 4, -0.3
    eps = np.arange(1.0, n + 1.0)
    spec = IntegrableSpec(g=g, epsilon=eps, eta=eps, family=FamilyKind.RATIONAL)
    basis = enumerate_basis(n, pairs)
    e_int = dense_spectrum(build_integrable(spec), basis).energies
    e_bcs = dense_spectrum(build_reduced_bcs(eps, -2.0 * g), basis).energies
    shift = 2 * g * pairs * (pairs - 1) - 2 * g * pairs * (n - 1)
    assert shift == pytest.approx(9.6)
    assert len(e_int) == 70
    assert np.allclose(e_int, e_bcs + shift, atol=1e-9)
    _passed(2, "integrable limit matches constant pairing")


def test_criterion_03_kernel_closed_forms_and_evenness():
    table = [
        (FamilyKind.RATIONAL, cot_kernel, 1.0, 2.0, 0.5),
        (FamilyKind.RATIONAL, sin_kernel, 1.0, 2.0, 0.5),
        (FamilyKind.TRIGONOMETRIC, cot_kernel, 1.0, math.pi / 4, 1.0),
        (FamilyKind.TRIGONOMETRIC, sin_kernel, 2.0, math.pi / 6, 4.0),
        (FamilyKind.HYPERBOLIC, cot_kernel, 3.0, math.log(2.0), 5.0),
        (FamilyKind.HYPERBOLIC, sin_kernel, 3.0, math.log(2.0), 4.0),
    ]
    for family, fn, d_eps, d_eta, want in table:
        assert abs(fn(family, d_eps, d_eta) - want) <= 1e-14
    rng = np.random.default_rng(99)
    for _ in range(10000):
        family = [FamilyKind.RATIONAL, FamilyKind.TRIGONOMETRIC, FamilyKind.HYPERBOLIC][
            int(rng.integers(0, 3))
        ]
        fn = (cot_kernel, sin_kernel)[int(rng.integers(0, 2))]
        de = float(rng.uniform(-5.0, 5.0))
        dn = float(rng.uniform(0.05, 2.5) * rng.choice([-1.0, 1.0]))
        assert fn(family, -de, -dn) == pytest.approx(fn(family, de, dn), rel=1e-15)
    _passed(3, "kernel values and evenness")


def test_criterion_04_exact_when_nothing_is_truncated(small_exact_runs):
    # m = 2^(N/2) keeps every block state, so the final superblock energy
    # must equal the dense ground energy to 1e-9
    for n, (exact, result) in small_exact_runs.items():
        assert abs(result.final_energy - exact) <= 1e-9, f"N={n}"
    _passed(4, "untruncated runs reproduce dense energies")


def test_criterion_05_convergence_in_m_sixteen_levels(n16_exact, n16_runs):
    # eps = 1..16, G = 0.5, half filling: relative error at m = 64 below
    # 1e-6 and non-increasing in m (10 percent slack), well under 5 min
    start = time.perf_counter()
    errors = {
        m: abs(r.final_energy - n16_exact) / abs(n16_exact)
        for m, r in n16_runs.items()
    }
    assert errors[64] <= 1e-6
    for lo, hi in ((8, 16), (16, 32), (32, 64)):
        assert errors[hi] <= errors[lo] * 1.1, (errors[lo], errors[hi])
    assert time.perf_counter() - start < 300.0
    _passed(5, "sixteen-level convergence in m")


@pytest.mark.slow
def test_criterion_06_hundred_levels_self_convergence():
    # N = 100 equally spaced levels, G = 0.3, half filling: energies at
    # m = 96 and m = 128 agree to 1e-7 relative
    start = time.perf_counter()
    model = build_reduced_bcs(np.arange(1.0, 101.0), 0.3)
    runs = {}
    for m in (96, 128):
        config = DmrgConfig(m=m, total_pairs=50, superblock_tol=1e-12)
        runs[m] = run_infinite(model, config)
        assert memory_report(runs[m])["within_bound"] is True
    e96, e128 = runs[96].final_energy, runs[128].final_energy
    assert abs(e128 - e96) / abs(e128) <= 1e-7
    assert len(runs[128].iterations) == 50
    assert time.perf_counter() - start < 3600.0
    _passed(6, "hundred-level self convergence")


def test_criterion_07_iteration_count_is_half_n(n16_runs):
    cases = [
        (4, build_reduced_bcs([1.0, 2.0, 3.0, 4.0], 1.0), 4, 2),
        (8, build_reduced_bcs(np.arange(1.0, 9.0), 0.5), 8, 4),
    ]
    for n, model, m, pairs in cases:
        res = run_infinite(model, DmrgConfig(m=m, total_pairs=pairs))
        assert len(res.iterations) == n // 2, f"N={n}"
    assert len(n16_runs[8].iterations) == 8
    res100 = run_infinite(
        build_reduced_bcs(np.arange(1.0, 101.0), 0.3), DmrgConfig(m=8, total_pairs=50)
    )
    assert len(res100.iterations) == 50
    _passed(7, "iteration count N/2 for N = 4, 8, 16, 100")


def test_criterion_08_block_storage_within_budget(small_exact_runs, n16_runs):
    # stored block operators never exceed 3 m^2 N entries (plus the fixed
    # block-Hamiltonian allowance); memory_report raises on violation
    for n, (_, result) in small_exact_runs.items():
        rep = memory_report(result)
        assert rep["per_level_peak_entries"] <= rep["block_operator_bound_entries"]
    for m, result in n16_runs.items():
        rep = memory_report(result)
        bound = 3 * m * m * 16
        assert rep["block_operator_bound_entries"] == bound
        assert rep["per_level_peak_entries"] <= bound
        assert (
            rep["stored_peak_entries"]
            <= bound + rep["overhead_allowance_entries"]
        )
    _passed(8, "block-operator storage within 3 m^2 N")


def test_criterion_09_structural_invariants_randomized():
    # on the path run_infinite takes (plan, growth, superblock solve,
    # Schmidt decomposition, truncation): Schmidt weights are nonnegative,
    # sum to 1 on each side and are 0 in a sector without a partner;
    # Schmidt vectors are orthonormal and sector pure; truncation weights
    # sit in [0, 1]; kept dimensions respect m; energies are variational;
    # runs are deterministic
    start = time.perf_counter()
    rng = np.random.default_rng(515)
    for trial in range(6):
        n = int(rng.choice([4, 6]))
        model = _random_model(rng, n)
        pairs = int(rng.integers(1, n))
        m = int(rng.choice([3, 4, 6]))
        config = DmrgConfig(m=m, total_pairs=pairs)

        new_h, new_p, tgt = _plan(model, config)[0]
        assert tgt == target_pairs(1, n, pairs)
        hole, particle = (GrownBlock(vacuum_block(), new, model) for new in (new_h, new_p))
        _, op, x, _ = _solve_superblock(hole, particle, model, tgt, config)
        assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-10)
        partners = (set(op.secs), {tgt - s for s in op.secs})
        for block, states, paired in zip((hole, particle), op.schmidt(x), partners):
            # per sector: a square matrix over the sector's own states
            assert sorted(states) == sorted(block.dims)
            for s, (vectors, weights) in states.items():
                d = block.dims[s]
                assert vectors.shape == (d, d) and weights.shape == (d,)
                assert weights.min() >= 0.0
                assert np.allclose(vectors.T @ vectors, np.eye(d), rtol=0, atol=1e-13)
                assert s in paired or not weights.any()
            total = sum(weights.sum() for _, weights in states.values())
            assert total == pytest.approx(1.0, abs=1e-10)
            small, w, _ = _truncate_with_basis(block, states, m)
            assert 0.0 <= w <= 1.0
            assert small.dim <= m

        exact = dense_spectrum(model, enumerate_basis(n, pairs)).energies[0]
        res_a = run_infinite(model, config)
        res_b = run_infinite(model, config)
        assert res_a.final_energy >= exact - 1e-9
        assert [r.e0 for r in res_a.iterations] == [r.e0 for r in res_b.iterations]
        for rec in res_a.iterations:
            assert 0.0 <= rec.trunc_weight_hole <= 1.0
            assert 0.0 <= rec.trunc_weight_particle <= 1.0
            assert rec.dim_hole <= max(m, 2) and rec.dim_particle <= max(m, 2)
    assert time.perf_counter() - start < 120.0
    _passed(9, "structural invariant suite")


def test_criterion_10_cli_golden_files(tmp_path):
    # every command, run twice with --no-timestamp: outputs (and their
    # manifests) must be byte-identical, and the numbers must be right
    model_path = tmp_path / "toy.json"
    model_path.write_text(json.dumps(TOY_DOC, indent=2) + "\n")
    mp = str(model_path)

    jobs = {
        "build": [
            "build", "--bcs-g", "1.0", "--epsilon", "1,2,3,4",
            "--out", str(tmp_path / "built.json"), "--no-timestamp",
        ],
        "ed": [
            "ed", "--model", mp, "--pairs", "2",
            "--out", str(tmp_path / "ed.json"), "--no-timestamp",
        ],
        "dmrg": [
            "dmrg", "--model", mp, "--pairs", "2", "--m", "8",
            "--out", str(tmp_path / "dmrg.json"), "--no-timestamp",
        ],
        "compare": [
            "compare", "--model", mp, "--pairs", "2", "--m", "8",
            "--out", str(tmp_path / "cmp.json"), "--no-timestamp",
        ],
        "sweep": [
            "sweep", "--model", mp, "--pairs", "2", "--m-list", "2,4,8",
            "--out", str(tmp_path / "sweep.csv"), "--no-timestamp",
        ],
    }
    products = {
        "build": ["built.json", "built.json.manifest.json"],
        "ed": ["ed.json", "ed.json.manifest.json"],
        "dmrg": ["dmrg.json", "dmrg.history.csv", "dmrg.json.manifest.json"],
        "compare": ["cmp.json", "cmp.json.manifest.json"],
        "sweep": ["sweep.csv", "sweep.csv.manifest.json"],
    }

    for name, argv in jobs.items():
        assert main(argv) == 0, name
    first = {
        f: (tmp_path / f).read_bytes() for fs in products.values() for f in fs
    }
    for name, argv in jobs.items():
        assert main(argv) == 0, name
    for f, blob in first.items():
        assert (tmp_path / f).read_bytes() == blob, f

    built = json.loads((tmp_path / "built.json").read_text())
    assert built["v1"][0][1] == -1.0
    ed = json.loads((tmp_path / "ed.json").read_text())
    assert ed["energies"][0] == pytest.approx(TOY_GROUND, abs=1e-10)
    dmrg = json.loads((tmp_path / "dmrg.json").read_text())
    assert dmrg["final_energy"] == pytest.approx(TOY_GROUND, abs=1e-9)
    assert dmrg["iterations"] == 2
    cmp_doc = json.loads((tmp_path / "cmp.json").read_text())
    assert cmp_doc["sig_figs"] >= 9
    sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(sweep_lines) == 4
    assert float(sweep_lines[-1].split(",")[2]) == 0.0
    _passed(10, "command-line golden files")
