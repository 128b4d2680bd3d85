"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(workload, trace, seed=0, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def _result(proc):
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _report(workload, trace, seed=0):
    return json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_end_to_end_metrics_emitted_and_checked(workload):
    result = _result(_run(workload, 0))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    env = _report(workload, 0)["environment"]
    for key in ("blas_numpy", "blas_threads", "nproc", "cpu", "numpy", "scipy"):
        assert key in env


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_per_layer_metrics_emitted_and_matvecs_repeat(workload):
    first = _result(_run(workload, 1))
    absent = _report(workload, 1)["absent"]
    second = _result(_run(workload, 1))
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for name, unit in expected.items():
        if name in absent:
            assert absent[name], name
        else:
            assert first["metrics"][name]["unit"] == unit, name
    for name in ("exactdiag.matvecs", "dmrg.matvecs"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]
    layer = "exactdiag" if workload.startswith("ed-") else "dmrg"
    assert first["metrics"][f"{layer}.matvecs"]["value"] > 0


def test_layer_map_covers_every_metric():
    layers = json.loads((HERE / "layers.json").read_text())
    assert set(layers["per_layer"]) == {m["name"] for m in BENCH["per_layer"]}
    assert set(layers["workloads"]) == set(WORKLOAD_NAMES)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(WORKLOAD_NAMES[0], 0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_private_helper_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    from pairsolve import dmrg
    import spans

    monkeypatch.delattr(dmrg, "_truncate_with_basis")
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == {"dmrg.truncate_s": "pairsolve.dmrg._truncate_with_basis no longer exists"}
    assert dmrg.GrownBlock.__name__ == "GrownBlock"


def test_superblock_without_term_lists_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import spans

    class Reshaped:
        sector_dim, dh, dp = 4, 2, 2

    tracer = spans.Tracer()
    tracer._superblock_stats(Reshaped())
    assert set(tracer.absent) == {
        "dmrg.coupling_terms", "dmrg.matvec_flops_computed", "dmrg.sector_fraction"
    }
