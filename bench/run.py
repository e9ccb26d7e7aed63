#!/usr/bin/env python3
"""Catalog benchmark for chernlab.

Runs catalog experiments through ``chernlab.experiments.run_experiment`` as a
closed loop with one client: one process per workload, the workload's
experiments one after another, and passes over them repeated until the time
budget is spent.  Artifacts go to a temporary directory inside the checkout
and are checked against ``reference.json``.  README.md explains the
workloads and the metrics.

    python3 bench/run.py --workload holder-grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the passes run untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics of the traced passes are reported.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"
SCRATCH = ROOT / ".bench_tmp"

# Config overrides per workload.  The three heavy experiments are scaled down
# from their catalog defaults (106 s, 44 s and 14 s a run) so that a pass
# takes a few seconds and a run holds several passes; README.md shows that
# the scaled runs keep the dominant layer and the solver branch.
WORKLOADS = {
    "holder-grid": {
        "approxomtienri-decay": {"grid": "256", "j_max_log2": "4",
                                 "pair_cap": "12000000"},
    },
    "commutator-spectrum": {
        "svd-decay-szego": {"window_log2": "11", "level_cap": "11",
                            "count": "512", "fit_hi": "512"},
    },
    "operator-diagonals": {
        "fourtedo-operator-crosscheck": {"level_cap_operator": "13", "m_max": "12"},
        "szego-diagonal-dense-check": {},
        "adnaodnaond-kernel-equivalence": {},
    },
    "small-catalog": {name: {} for name in (
        "lkandapdn-pairing", "compmpmpnpanf-calibration", "fourtedo-limit",
        "hochschild-cocycle-vanishing", "smooth-vanishing-comega",
        "chain-identities", "cyclicity-check", "ch-cc-normalization",
        "extended-limit-sensitivity", "holder-seminorm-witness")},
}

# Seeded experiments run at seed (--seed + pass mod SEEDS_PER_RUN) mod
# REFERENCE_SEEDS, so every artifact has a reference.  A run times at least
# SEEDS_PER_RUN passes after the warm-up, so the seeds its timed passes
# cover, and with them its fastest pass and its peak memory, do not depend
# on how many passes fit in --seconds.
REFERENCE_SEEDS = 100
SEEDS_PER_RUN = 6
SETUP_SAMPLES = 7
# The child arms its own alarm instead of the parent passing a timeout:
# Popen.wait with a timeout polls every 50 ms, which would round setup_s up.
SETUP_CODE = ("import signal; signal.alarm(120); "
              "import sys, chernlab; sys.exit(not chernlab.REGISTRY)")


def blas_thread_limit() -> int:
    """Set the BLAS threads to the number of CPUs this process may use.

    Must run before numpy is imported: OpenBLAS reads the variable once,
    when it loads.
    """
    nproc = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(nproc)
    return nproc


def import_chernlab():
    """Import chernlab from this checkout's sources, never from elsewhere."""
    package = SRC / "chernlab"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no chernlab sources at {package}; "
                         "run the benchmark from the root of a chernlab checkout")
    sys.path.insert(0, str(SRC))
    import chernlab
    if Path(chernlab.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported chernlab from {chernlab.__file__}, "
                         f"expected {package}")
    return chernlab


def git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(seed: int, nproc: int) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "commit": git_commit(), "seed": seed}


def setup_once() -> float:
    """Wall time from a fresh interpreter to chernlab imported and the
    experiment registry loaded."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    return time.perf_counter() - start


def plan_for(workload: str, seed: int, registry) -> list:
    """(experiment, overrides) in run order; the seed goes to every
    experiment that has a seed key."""
    plan = []
    for name, overrides in WORKLOADS[workload].items():
        overrides = dict(overrides)
        if "seed" in registry[name].defaults:
            overrides["seed"] = str(seed)
        plan.append((name, overrides))
    return plan


def outcome(report) -> dict:
    """Assertion results and CSV digests of one experiment run."""
    artifacts = {}
    for path in map(Path, report.artifacts):
        if path.suffix == ".csv":
            artifacts[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"assertions": [[a.name, bool(a.passed)] for a in report.assertions],
            "artifacts": artifacts}


def run_pass(run_experiment, plan, out_dir: Path, tracer=None) -> tuple:
    """One pass over the plan: (wall seconds, CPU seconds, outcomes).

    An experiment that raises has the outcome None.  Only the experiments
    are timed; hashing the artifacts comes after.
    """
    gc.collect()
    reports = {}
    start, cpu_start = time.perf_counter(), time.process_time()
    for name, overrides in plan:
        span = (tracer.span(f"experiments.{name}", "experiments") if tracer
                else contextlib.nullcontext())
        try:
            with span:
                reports[name] = run_experiment(name, overrides, out_dir / name)
        except Exception:
            traceback.print_exc()
            reports[name] = None
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
    outcomes = {name: (outcome(r) if r is not None else None) for name, r in reports.items()}
    shutil.rmtree(out_dir, ignore_errors=True)
    return wall, cpu, outcomes


class Checker:
    """Compares each experiment run with the reference outcomes."""

    def __init__(self, reference: dict, workload: str):
        self.reference = reference["experiments"]
        for name, config in WORKLOADS[workload].items():
            if self.reference[name]["config"] != config:
                raise SystemExit(f"error: reference.json was recorded for {name} with "
                                 f"{self.reference[name]['config']}, the workload uses {config}")
        self.attempted = self.failed = 0
        self.assertions = self.assertions_passed = 0
        self.artifacts_checked = self.artifacts_matched = 0
        self.mismatched, self.unreferenced = set(), set()
        self.problems = set()

    def check(self, name: str, overrides: dict, got: dict | None):
        entry = self.reference[name]
        seed = overrides.get("seed")
        expected = entry["artifacts"] if seed is None else entry["artifacts_by_seed"][seed]
        self.attempted += 1
        raised = got is None
        ok = not raised
        if raised:
            self.problems.add(f"{name}: raised")
            got = {"assertions": [[a, False] for a, _ in entry["assertions"]],
                   "artifacts": {}}
        self.assertions += len(got["assertions"])
        self.assertions_passed += sum(passed for _, passed in got["assertions"])
        if got["assertions"] != entry["assertions"]:
            ok = False
            self.problems.add(f"{name}: assertion outcomes differ from the reference")
        for filename in set(expected) | set(got["artifacts"]):
            key = f"{name}/{filename}"
            if filename not in expected:
                self.unreferenced.add(key)
                continue
            self.artifacts_checked += 1
            if got["artifacts"].get(filename) == expected[filename]:
                self.artifacts_matched += 1
            else:
                ok = False
                self.mismatched.add(key)
        if not ok:
            self.failed += 1

    def summary(self) -> dict:
        return {
            "assertions_failed_frac": 1 - self.assertions_passed / max(self.assertions, 1),
            "artifacts_mismatched": len(self.mismatched),
            "mismatched": sorted(self.mismatched),
            "unreferenced": sorted(self.unreferenced),
            "problems": sorted(self.problems),
        }


def quartiles(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"min": min(values), "q1": q[0], "median": statistics.median(values),
            "q3": q[2], "n": len(values)}


def measure(workload, seed, seconds, tracer, chernlab, reference) -> tuple:
    """Passes until the next one would end after `seconds`; the first is a
    warm-up.

    A run times at least SEEDS_PER_RUN passes.  An untraced run also
    launches SETUP_SAMPLES fresh interpreters, spread over the run between
    passes, so that a slow spell of the machine does not fall on all of
    them.  In a traced run, untraced and traced passes alternate after the
    warm-up.  Returns (passes, setup samples, checker, per-layer metrics of
    each traced pass).
    """
    run_experiment = chernlab.experiments.run_experiment
    checker = Checker(reference, workload)
    trace = tracer is not None
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH))
    passes = {"untraced": [], "traced": []}
    walls, setup, layer_metrics = [], [], []
    start = time.perf_counter()
    try:
        for index in itertools.count():
            traced = trace and index % 2 == 0 and index > 0
            # a traced run gives each seed an untraced pass, then a traced one
            cycle = (index + 1) // 2 if trace else index
            plan = plan_for(workload, (seed + cycle % SEEDS_PER_RUN) % REFERENCE_SEEDS,
                            chernlab.experiments.REGISTRY)
            if traced:
                tracer.reset()
                tracer.install()
            try:
                wall, cpu, outcomes = run_pass(run_experiment, plan, tmp / f"pass{index}",
                                               tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            for name, overrides in plan:
                checker.check(name, overrides, outcomes[name])
            walls.append(wall)
            if index > 0:
                passes["traced" if traced else "untraced"].append((wall, cpu))
            if traced:
                layer_metrics.append(tracer.metrics(chernlab.experiments.REGISTRY))
            elapsed = time.perf_counter() - start
            if not trace and len(setup) < SETUP_SAMPLES * elapsed / seconds:
                setup.append(setup_once())
            if len(walls) > SEEDS_PER_RUN and elapsed + statistics.median(walls) > seconds:
                break
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(setup_once())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()
    return passes, setup, checker, layer_metrics


def run_one(args) -> int:
    nproc = blas_thread_limit()
    spec = json.loads(SPEC.read_text())
    chernlab = import_chernlab()
    reference = json.loads(REFERENCE.read_text())
    tracer = None
    if args.trace:
        import spans  # imports chernlab, so only after import_chernlab()
        tracer = spans.Tracer()
    passes, setup, checker, layer_metrics = measure(
        args.workload, args.seed, args.seconds, tracer, chernlab, reference)
    untraced = passes["untraced"]
    pass_s = quartiles([w for w, _ in untraced])
    info = {"workload": args.workload, "provenance": provenance(args.seed, nproc),
            "pass_s": pass_s, "cpu_s": quartiles([c for _, c in untraced])}
    info.update(checker.summary())
    correct = checker.failed == 0
    if args.trace:
        traced = quartiles([w for w, _ in passes["traced"]])
        values = {name: statistics.median(m[name] for m in layer_metrics)
                  for name in layer_metrics[0]}
        values["trace.pass_s"] = traced["median"]
        values["trace.untraced_pass_s"] = pass_s["median"]
        values["trace.overhead_s"] = traced["median"] - pass_s["median"]
        silent = [f"{layer}.{path}" for layer, path, workload in spans.SPANS
                  if workload == args.workload
                  and not any(m[f"{layer}.{path}.calls"] for m in layer_metrics)]
        correct = correct and not silent
        info.update({"traced_pass_s": traced, "silent_spans": silent,
                     "self_s_sum": sum(values[f"{layer}.self_s"] for layer in spans.LAYERS),
                     "labels": {k: sorted(v) for k, v in tracer.labels.items()}})
        declared = spec["per_layer"]
    else:
        # A slow spell of the machine only adds time, so the fastest pass
        # and the fastest launch are the steadiest estimates of the cost.
        values = {
            "setup_s": min(setup),
            "pass_s": pass_s["min"],
            "cpu_s": info["cpu_s"]["min"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "assertions_passed_frac": checker.assertions_passed / max(checker.assertions, 1),
            "artifacts_matched_frac": (checker.artifacts_matched
                                       / max(checker.artifacts_checked, 1)),
        }
        info["setup_s"] = quartiles(setup)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{pass_s['n']} untraced passes after one warm-up")
    for name, metric in metrics.items():
        print(f"  {name:<58} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print(f"  {'assertions_failed_frac':<58} {info['assertions_failed_frac']:>14.6g} ratio")
        print(f"  {'artifacts_mismatched':<58} {info['artifacts_mismatched']:>14d} count")
    for problem in info["problems"] + [f"artifact differs: {k}" for k in info["mismatched"]] \
            + [f"span never called: {k}" for k in info.get("silent_spans", [])]:
        print(f"  FAIL {problem}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one table of every metric."""
    rows, status = [], 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=args.seconds + 600)
        sys.stderr.write(done.stderr)
        print(done.stdout, end="")
        if done.returncode != 0:
            status = 1
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        status |= not result["correct"]
        rows += [(workload, name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    print(f"\n{'workload':<20} {'metric':<58} {'value':>14} unit")
    for workload, name, value, unit in rows:
        print(f"{workload:<20} {name:<58} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
