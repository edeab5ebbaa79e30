#!/usr/bin/env python3
"""Replicated-sampling campaign across several sample sizes.

Reproduces the accuracy-trend experiment: RMSE of the variance estimator
should fall with n while its squared-bias share stays small.  Every size
runs in one run_campaign call, so --workers starts one pool for the whole
trend, and its rows are printed once every size has its report.
"""

import argparse

from curvesurvey.cli import report_errors  # first: it starts BLAS on one thread
from curvesurvey import (
    SamplingDesign,
    heteroscedastic_study_population,
    run_campaign,
    study_population,
)
from curvesurvey.estimators import ESTIMATORS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-units", type=int, default=2000)
    ap.add_argument("--n-points", type=int, default=48)
    ap.add_argument("--replicates", type=int, default=1000)
    ap.add_argument("--sizes", type=int, nargs="+", default=[50, 100, 300])
    ap.add_argument("--estimator", choices=ESTIMATORS, default="ma")
    ap.add_argument("--seed", type=int, default=90)
    ap.add_argument("--pop-seed", type=int, default=100)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument(
        "--homoscedastic",
        action="store_true",
        help="use the constant-residual-scale population instead of the "
        "heavy-tailed unit-scale one",
    )
    args = ap.parse_args()

    if args.homoscedastic:
        pop = study_population(args.n_units, args.n_points, seed=args.pop_seed)
    else:
        pop = heteroscedastic_study_population(
            args.n_units, args.n_points, seed=args.pop_seed
        )
    header = f"{'n':>5}  {'rmse':>10}  {'rb^2':>10}  {'vr':>10}  {'median E_r':>10}"
    print(header)
    reports = run_campaign(
        pop,
        [SamplingDesign(N=pop.N, n=n) for n in args.sizes],
        replicates=args.replicates,
        estimator=args.estimator,
        a=0.0,
        master_seed=args.seed,
        workers=args.workers,
    )
    for r in reports:
        print(
            f"{r.n:>5}  {r.rmse:>10.5f}  {r.rb_squared:>10.5f}  {r.vr:>10.5f}"
            f"  {r.er_quantiles['median']:>10.5f}"
        )


if __name__ == "__main__":
    # a library error: one line on stderr and the CLI's exit code
    raise SystemExit(report_errors(main))
