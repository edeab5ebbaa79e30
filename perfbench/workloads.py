"""The benchmark's workloads.

Every workload runs the same three CLI commands, `estimate`, `bands` and
`montecarlo`, each on its own config.  The campaign (`montecarlo`) is the
bulk of the work and is what separates the workloads:

- readme-coverage: README scale with band coverage on, so the bands and
  linalg layers do about 90% of the work (acceptance criterion C07).
- readme-trend: README scale, Hajek estimator, three sample sizes, two
  workers, no coverage: per-replicate overhead of designs, estimators, the
  HT covariance and the process pool.  The campaign builds no band, so it
  is the no-change control for band work.
- loadcurve: load-curve scale (a week of half-hourly readings); the dense
  n x n covariance weight matrix dominates the campaign, and set-up, io and
  memory are large enough to see.  `estimate` and `bands` run on SRSWOR and
  the campaign on 4-stratum stratified SRSWOR, so both design kinds run at
  scale.

Thread budget: CLI workers x BLAS threads <= cores, recorded per workload.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

COMMANDS = ("estimate", "bands", "montecarlo")


def _population(n_units: int, n_points: int) -> str:
    return (
        f"[population]\nsynthetic = true\nn_units = {n_units}\n"
        f"n_points = {n_points}\ncorr = 0.95\n"
    )


N_SIMS = 5000
_BAND = f"[band]\nalpha = 0.05\nn_sims = {N_SIMS}\n"
_README_SRSWOR = _population(2000, 48) + "[design]\nkind = srswor\nn = 200\n"
_LOADCURVE_SRSWOR = (
    _population(20000, 336) + "[design]\nkind = srswor\nn = 2000\n"
)
_LOADCURVE_STRATIFIED = _population(20000, 336) + (
    "[design]\nkind = stratified\nn = 2000\n"
    "ranges = 0-4999,5000-9999,10000-14999,15000-19999\n"
    "n_per_stratum = 500,500,500,500\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    point_design: str  # [population] and [design] of estimate and bands
    campaign_design: str  # [population] and [design] of montecarlo
    estimator: str
    workers: int  # --workers of the campaign in the untraced run
    replicates: int  # per sample size
    sizes: tuple  # the n of each report row, in order
    coverage: bool
    n_points: int

    def config(self, command: str) -> str:
        if command == "montecarlo":
            design = self.campaign_design
        else:
            design = self.point_design
        campaign = f"[campaign]\nreplicates = {self.replicates}\n"
        if len(self.sizes) > 1:
            campaign += "n_list = " + ",".join(map(str, self.sizes)) + "\n"
        if self.coverage:
            campaign += "coverage = true\n"
        estimator = f"[estimator]\nkind = {self.estimator}\na = 0\n"
        return design + estimator + _BAND + campaign

    @property
    def blas_threads(self) -> int:
        return max(1, len(os.sched_getaffinity(0)) // self.workers)

    @property
    def replicates_attempted(self) -> int:
        return self.replicates * len(self.sizes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="readme-coverage",
            point_design=_README_SRSWOR,
            campaign_design=_README_SRSWOR,
            estimator="ma",
            workers=1,
            replicates=200,
            sizes=(200,),
            coverage=True,
            n_points=48,
        ),
        Workload(
            name="readme-trend",
            point_design=_README_SRSWOR,
            campaign_design=_README_SRSWOR,
            estimator="hajek",
            workers=2,
            replicates=1000,
            sizes=(50, 100, 300),
            coverage=False,
            n_points=48,
        ),
        Workload(
            name="loadcurve",
            point_design=_LOADCURVE_SRSWOR,
            campaign_design=_LOADCURVE_STRATIFIED,
            estimator="ma",
            workers=1,
            replicates=10,
            sizes=(2000,),
            coverage=False,
            n_points=336,
        ),
    )
}
