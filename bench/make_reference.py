#!/usr/bin/env python3
"""Record reference.json: the outcomes the benchmark checks every run against.

For every experiment of every workload, at the workload's config, it stores
each assertion's pass/fail and the SHA-256 of each CSV artifact.  Seeded
experiments are recorded at every seed a run can use, 0-99; their
assertion outcomes must not depend on the seed.  Record it from the
commit whose behaviour is the reference, and commit the file with the
benchmark:

    python3 bench/make_reference.py
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.blas_thread_limit()
    chernlab = run.import_chernlab()
    registry = chernlab.experiments.REGISTRY
    run.SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=run.SCRATCH))
    experiments = {}
    try:
        for workload, configs in run.WORKLOADS.items():
            for name, config in configs.items():
                seeds = [None]
                if "seed" in registry[name].defaults:
                    seeds = list(range(run.REFERENCE_SEEDS))
                by_seed = {}
                for seed in seeds:
                    overrides = dict(config) if seed is None else dict(config, seed=str(seed))
                    report = chernlab.experiments.run_experiment(name, overrides, tmp / name)
                    by_seed[seed] = run.outcome(report)
                first = by_seed[seeds[0]]
                if any(o["assertions"] != first["assertions"] for o in by_seed.values()):
                    raise SystemExit(f"error: assertion outcomes of {name} depend on the seed")
                entry = {"workload": workload, "config": config,
                         "assertions": first["assertions"]}
                if seeds == [None]:
                    entry["artifacts"] = first["artifacts"]
                else:
                    entry["artifacts_by_seed"] = {str(s): o["artifacts"]
                                                  for s, o in by_seed.items()}
                experiments[name] = entry
                print(f"{workload}: {name} ({len(seeds)} seeds)", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        run.SCRATCH.rmdir()
    run.REFERENCE.write_text(json.dumps(
        {"commit": run.git_commit(), "experiments": experiments},
        indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
