"""pairsolve benchmark: time-to-energy for ED and infinite DMRG.

Usage (from the repository root):

    python3 perfbench/run.py --workload ed-bcs-n20 --seed 0 --seconds 30 --trace 0

One process, one solve at a time, BLAS at its default thread count.  A
run repeats solve units until the next unit would end after ``--seconds``
(at least one unit; two for dmrg-general-n40, so each model is solved
twice).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
each unit's models once untraced and once traced and reports the
per-layer metrics, plus the traced-minus-untraced solve time.  Every
solve is checked; a failed check counts as a failed operation.  The last
line of stdout is the JSON result; a report with the environment (and
the spans, when traced) is written under ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import envinfo
import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Set-up is measured this many times per run, each in a fresh interpreter;
#: single samples spread by up to a third, so the median needs several.
SETUP_REPEATS = 9
#: In-process load_model repetitions behind model.load_s.
LOAD_REPEATS = 5

SETUP_CODE = """
import json, sys, time
docs = json.loads(sys.stdin.read())
t0 = time.perf_counter()
import pairsolve
for doc in docs:
    pairsolve.load_model(doc)
elapsed = time.perf_counter() - t0
if not pairsolve.__file__.startswith(sys.argv[1]):
    sys.exit("pairsolve imported from " + pairsolve.__file__)
print(repr(elapsed))
"""

def _import_pairsolve():
    """Import pairsolve from this checkout's sources, or exit non-zero."""
    if not (SRC / "pairsolve" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pairsolve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pairsolve

    if not Path(pairsolve.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: pairsolve imported from {pairsolve.__file__}, not {SRC}")
    return pairsolve


def measure_setup(docs):
    """Median seconds to import pairsolve and load the documents, each
    sample in a fresh interpreter timed from inside."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            input=json.dumps(docs),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


class Runner:
    """Runs solves of one workload, timing and checking each."""

    def __init__(self, ps, workload, models):
        self.ps = ps
        self.workload = workload
        self.models = models
        self.attempted = 0
        self.failed = 0
        self.solve_id = 0

    def solve(self, index, tr):
        self.attempted += 1
        self.solve_id += 1
        if tr.enabled:
            tr.solve = self.solve_id
            tr.layer = self.workload.layer
            tr.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            with tr.span("solve"):
                energy, failure = self.workload.solve(
                    self.ps, self.models[index], index, tr
                )
        except Exception:
            energy, failure = None, traceback.format_exc()
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if tr.enabled:
                tr.uninstall()
        if failure is not None:
            self.failed += 1
            print(f"perfbench: solve {self.solve_id} of model {index} failed: {failure}",
                  file=sys.stderr)
        return {"id": self.solve_id, "model": index, "wall": wall, "cpu": cpu,
                "energy": energy, "failure": failure}


def run_units(seconds, min_units, unit):
    """Repeat ``unit`` until the next one would end after ``seconds``."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        unit()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(durations) >= min_units and elapsed + statistics.median(durations) > seconds:
            return


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    ps = _import_pairsolve()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    models = [ps.load_model(doc) for doc in workload.docs]
    workload.prepare(ps, models)
    workload.warm_up(ps)
    runner = Runner(ps, workload, models)
    env = envinfo.environment()
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env}

    if args.trace:
        tracer = spans.Tracer()
        untraced, traced = [], []

        def unit():
            for index in range(len(models)):
                untraced.append(runner.solve(index, spans.NullTracer()))
                traced.append(runner.solve(index, tracer))

        run_units(args.seconds, 1, unit)
        loads = []
        for _ in range(LOAD_REPEATS):
            t0 = time.perf_counter()
            ps.load_model(workload.docs[0])
            loads.append(time.perf_counter() - t0)
        per_solve = [tracer.solve_metrics(s["id"]) for s in traced]
        values = {k: statistics.median(m[k] for m in per_solve) for k in per_solve[0]}
        values["model.load_s"] = statistics.median(loads)
        values["trace.overhead_s"] = statistics.median(
            s["wall"] for s in traced
        ) - statistics.median(s["wall"] for s in untraced)
        samples = {k: len(per_solve) for k in values}
        samples["model.load_s"] = LOAD_REPEATS
        absent = dict(tracer.absent)
        report["solves"] = untraced + traced
        report["spans"] = tracer.spans
        report["superblocks"] = tracer.superblocks
    else:
        solves = []

        def unit():
            for index in range(len(models)):
                solves.append(runner.solve(index, spans.NullTracer()))

        run_units(args.seconds, workload.min_units, unit)
        setup = measure_setup(workload.docs)
        values = {
            "solve_s": statistics.median(s["wall"] for s in solves),
            "solve_cpu_s": statistics.median(s["cpu"] for s in solves),
            "setup_s": statistics.median(setup),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        samples = {"solve_s": len(solves), "solve_cpu_s": len(solves),
                   "setup_s": len(setup), "peak_rss_mb": 1}
        absent = {}
        report["solves"] = solves
        report["setup_samples"] = setup

    units = _declared_units("per_layer" if args.trace else "end_to_end")
    missing = set(units) - set(values) - set(absent)
    extra = set(values) - set(units)
    if missing or extra:
        sys.exit(f"perfbench: metrics out of step with BENCHMARK.json: "
                 f"missing {sorted(missing)}, extra {sorted(extra)}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    report["metrics"] = metrics
    report["absent"] = absent
    report["samples"] = samples
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))

    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} "
          f"report={path.relative_to(ROOT)}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, metric in sorted(metrics.items()):
        print(f"  {name:34s} {metric['value']:>16.6g} {metric['unit']:6s} n={samples[name]}")
    for name, reason in sorted(absent.items()):
        print(f"  {name:34s} absent: {reason}")
    print(f"  failed/attempted: {runner.failed}/{runner.attempted}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))


def run_all(args):
    """Run every workload in its own process, then print one combined
    result whose metric names are prefixed with the workload name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))


def _declared_units(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


if __name__ == "__main__":
    main()
