"""Replicated-sampling evaluation harness.

Draws many independent samples, re-estimates the mean curve and its
covariance on each, and summarizes variance-estimation accuracy (relative
error, RMSE split into squared relative bias plus a variance term) and,
optionally, simultaneous band coverage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import covers
from .covariance import CovarianceEstimate, ht_covariance_estimate
from .designs import SamplingDesign, draw, replicate_rng
from .errors import CurveSurveyError, NumericalError, ValidationError
from .estimators import ESTIMATORS
from .grids import FunctionalPopulation, population_mean
from .linalg import _one_blas_thread, _set_blas_threads


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    """Summary of one campaign at a fixed sample size."""

    n: int
    replicates: int
    gamma_emp: CovarianceEstimate
    rmse: float
    rb_squared: float
    vr: float
    er_quantiles: dict
    coverage: float | None
    coverage_bands: int  # bands the coverage rate averages; 0 without it
    n_errors: int
    mean_curve: np.ndarray  # average of replicate estimates
    mean_gamma_diag: np.ndarray


def empirical_covariance(estimates: np.ndarray) -> CovarianceEstimate:
    """Cross-product covariance of replicate mean curves, normalized by 1/I:
    the Gram matrix of the rows (estimate - mean) / sqrt(I)."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[0] < 2:
        raise ValidationError("need at least 2 replicate curves")
    rows = (estimates - estimates.mean(axis=0)) / np.sqrt(estimates.shape[0])
    return CovarianceEstimate(rows)


@dataclass(frozen=True, eq=False)
class _Campaign:
    """What every replicate of one campaign reads; sent to each pool worker
    once, through its initializer."""

    pop: FunctionalPopulation
    design: SamplingDesign
    estimator: str
    a: float | None
    seed: int
    coverage: bool
    alpha: float
    sims: int
    truth: np.ndarray


def _run_replicate(campaign: _Campaign, i: int):
    """(mean curve, variance curve, band covers truth) of replicate i.

    When the estimate failed the mean curve is None and the variance slot
    holds the error message; covered is None without coverage or when the
    band failed.
    """
    c = campaign
    sample = draw(c.design, replicate_rng(c.seed, i, 0))
    try:
        estimate = ESTIMATORS[c.estimator](c.pop, sample, c.a)
        gamma = ht_covariance_estimate(c.pop, sample, estimate=estimate)
    except CurveSurveyError as exc:
        return None, str(exc), None
    gdiag = gamma.variance  # covers alone reads the D x D matrix
    if not c.coverage:
        return estimate.curve, gdiag, None
    try:
        covered = covers(estimate, gamma, n=c.design.n, alpha=c.alpha,
                         n_sims=c.sims, seed=replicate_rng(c.seed, i, 1),
                         truth=c.truth)
    except CurveSurveyError:
        return estimate.curve, gdiag, None
    return estimate.curve, gdiag, covered


_WORKER_CAMPAIGN: _Campaign | None = None


def _start_worker(campaign: _Campaign) -> None:
    """Pool initializer: keep the campaign, run BLAS on one thread for good."""
    global _WORKER_CAMPAIGN
    _WORKER_CAMPAIGN = campaign
    _set_blas_threads(1)


def _worker_replicate(i: int):
    return _run_replicate(_WORKER_CAMPAIGN, i)


def run_campaign(
    pop: FunctionalPopulation,
    design: SamplingDesign,
    replicates: int,
    estimator: str = "ma",
    a: float | None = 0.0,
    compute_coverage: bool = False,
    alpha: float = 0.05,
    band_sims: int = 5000,
    master_seed: int = 0,
    workers: int = 1,
) -> MonteCarloReport:
    """Full replication campaign; deterministic given master_seed, and
    independent of the worker count (streams are keyed per replicate)."""
    if estimator not in ESTIMATORS:
        raise ValidationError(f"estimator must be one of "
                              f"{', '.join(ESTIMATORS)}, not {estimator!r}")
    if replicates < 2:
        raise ValidationError("need at least 2 replicates")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    campaign = _Campaign(pop, design, estimator, a, master_seed,
                         compute_coverage, alpha, band_sims, population_mean(pop))
    workers = min(workers, replicates)  # a fork pool starts every worker at once
    if workers == 1:
        with _one_blas_thread():
            results = [_run_replicate(campaign, i) for i in range(replicates)]
    else:
        # imported for a pool only: it loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, replicates // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                                 initargs=(campaign,)) as pool:
            results = list(pool.map(_worker_replicate, range(replicates),
                                    chunksize=chunksize))

    mus, gdiags, flags, failures, first_error = [], [], [], 0, None
    for mu, gdiag, covered in results:
        if mu is None:
            failures += 1
            first_error = first_error or gdiag
            continue
        mus.append(mu)
        gdiags.append(gdiag)
        if compute_coverage:
            if covered is None:
                failures += 1  # estimate succeeded but the band step failed
            else:
                flags.append(covered)
    if len(mus) < 2:
        raise NumericalError(
            f"only {len(mus)} of {replicates} replicates produced estimates "
            f"(first failure: {first_error})"
        )
    mus = np.asarray(mus)
    gdiags = np.asarray(gdiags)
    gamma_emp = empirical_covariance(mus)
    emp_diag = gamma_emp.variance
    mean_gdiag = gdiags.mean(axis=0)

    quantile_keys = ("q5", "q25", "median", "q75", "q95")
    if np.any(emp_diag <= 0.0):
        # degenerate campaign (e.g. census design): no relative errors exist
        failures = replicates
        rmse = rb2 = vr = 0.0
        quantiles = dict.fromkeys(quantile_keys, 0.0)
        coverage = None
    else:
        ers = np.mean(((gdiags - emp_diag) / emp_diag) ** 2, axis=1)
        rmse = float(ers.mean())
        rb2 = float(np.mean(((mean_gdiag - emp_diag) / emp_diag) ** 2))
        vr = rmse - rb2
        qs = np.quantile(ers, [0.05, 0.25, 0.5, 0.75, 0.95])
        quantiles = dict(zip(quantile_keys, map(float, qs)))
        coverage = float(np.mean(flags)) if flags else None
    return MonteCarloReport(
        n=design.n,
        replicates=replicates,
        gamma_emp=gamma_emp,
        rmse=rmse,
        rb_squared=rb2,
        vr=vr,
        er_quantiles=quantiles,
        coverage=coverage,
        coverage_bands=0 if coverage is None else len(flags),
        n_errors=failures,
        mean_curve=mus.mean(axis=0),
        mean_gamma_diag=mean_gdiag,
    )
