#!/usr/bin/env python3
"""Write reference.json: the outputs each workload's commands give at the
reference seed, which every benchmark run compares against.

    python3 perfbench/make_reference.py

Run from the root of a source tree.  Only rerun it when a change is meant
to alter these numbers, and say so where the change is described.
"""

import json
import shutil
import sys

import run
from workloads import WORKLOADS

# Relative tolerances.  rmse, rb_squared and the estimate curve are fixed
# arithmetic on the sample; c_alpha and coverage come from band simulation,
# whose Monte Carlo error (about 0.4% on c_alpha at 5000 sims) a change of
# factorization may redraw.
RTOL = {
    "estimate": 1e-9,
    "rmse": 1e-6,
    "rb_squared": 1e-6,
    "c_alpha": 0.03,
    "coverage": 0.05,
}


def main() -> int:
    workloads = {}
    for wl in WORKLOADS.values():
        work = run.ROOT / ".bench_build" / "perfbench" / f"reference-{wl.name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            bench = run.Bench(wl, 0, work)
            calls = bench.iteration(bench.run_subprocess, run.REFERENCE_SEED,
                                    wl.workers)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if bench.problems:
            print("\n".join(bench.problems), file=sys.stderr)
            return 1
        out = {c.command: c.outputs for c in calls}
        workloads[wl.name] = {
            "estimate": out["estimate"]["estimate"],
            "c_alpha": out["bands"]["c_alpha"],
            "report": [
                {
                    "n": int(r["n"]),
                    "rmse": float(r["rmse"]),
                    "rb_squared": float(r["rb_squared"]),
                    "coverage": float(r["coverage"]) if r["coverage"] else None,
                }
                for r in out["montecarlo"]["report"]
            ],
        }
    run.REFERENCE.write_text(json.dumps(
        {"seed": run.REFERENCE_SEED, "rtol": RTOL, "workloads": workloads},
        indent=1,
    ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
