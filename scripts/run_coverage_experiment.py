#!/usr/bin/env python3
"""Empirical coverage of simultaneous confidence bands.

Draws many samples, builds a band on each, and reports the fraction that
contain the true population mean curve everywhere on the grid.
"""

import argparse

from curvesurvey.cli import report_errors  # first: it starts BLAS on one thread
from curvesurvey import SamplingDesign, run_campaign, study_population


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-units", type=int, default=2000)
    ap.add_argument("--n-points", type=int, default=48)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--replicates", type=int, default=2000)
    ap.add_argument("--alpha", type=float, default=0.05)
    ap.add_argument("--band-sims", type=int, default=5000)
    ap.add_argument("--corr", type=float, default=0.95)
    ap.add_argument("--seed", type=int, default=90)
    ap.add_argument("--pop-seed", type=int, default=100)
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args()

    pop = study_population(
        args.n_units, args.n_points, corr=args.corr, seed=args.pop_seed
    )
    design = SamplingDesign(N=pop.N, n=args.n)
    [report] = run_campaign(
        pop,
        [design],
        replicates=args.replicates,
        a=0.0,
        compute_coverage=True,
        alpha=args.alpha,
        band_sims=args.band_sims,
        master_seed=args.seed,
        workers=args.workers,
    )
    # no coverage rate when no band was built (e.g. a census has no variance)
    coverage = "-" if report.coverage is None else f"{report.coverage:.4f}"
    print(
        f"n={args.n} alpha={args.alpha} replicates={args.replicates} "
        f"coverage={coverage} (target {1 - args.alpha:.2f}) "
        f"errors={report.n_errors}"
    )


if __name__ == "__main__":
    # a library error: one line on stderr and the CLI's exit code
    raise SystemExit(report_errors(main))
