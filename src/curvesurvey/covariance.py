"""Covariance functions of the mean-curve estimators.

Exact Horvitz-Thompson covariance from the full population, the residual
covariance approximating the model-assisted estimator's covariance, and its
sample-only estimator.  Matrices are stored unscaled (no factor n); the
bands layer applies the sqrt(n)/n scalings.

Every design here is stratified SRSWOR (SRSWOR is one stratum), whose HT
covariance is (1/N^2) sum_h N_h^2 (1 - f_h) / n_h S_h, with f_h = n_h / N_h
and S_h the within-stratum covariance of the curves (Sarndal, Swensson &
Wretman 1992, section 3.7).  So every covariance is the Gram matrix C'C of
scaled, stratum-centred rows: row k of stratum h is
sqrt(c_h) (y_k - ybar_h) / N, c_h = N_h^2 (1 - f_h) / (n_h (m_h - 1)) over
the m_h rows of the stratum, its N_h curves for the exact covariances and
its n_h linearized rows for the estimators.  A stratum of one row keeps
the n_h = 1 convention (1 - f_h) u u' / N^2 with u = y / f_h: its row is
uncentred, c_h = N_h^2 (1 - f_h) / n_h^2.  Centred, C'C is shift-invariant
and PSD by construction, so its Cholesky factorization fails only on a
singular C'C, as when n - H < D.  The variance function costs O(rows * D)
and the D x D matrix O(rows * D^2); no n x n or N x N matrix is built.
The dense u' W u formulas live in ``oracle.py`` as the reference the tests
compare against.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import estimators
from .designs import Sample, SamplingDesign
from .errors import NumericalError
from .estimators import MeanEstimate, _check_match, beta_population
from .grids import FunctionalPopulation


class CovarianceEstimate:
    """Covariance C'C on the grid, from the (rows, D) array C.  The
    `variance` function, C's column sums of squares, is computed here at
    O(rows * D); the D x D `matrix` is formed when first read, which
    releases C.  A variance that overflows float64 raises NumericalError;
    a finite one bounds every entry of C'C (Cauchy-Schwarz)."""

    def __init__(self, rows: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            self.variance = np.einsum("ij,ij->j", rows, rows)
        if not np.isfinite(self.variance).all():
            raise NumericalError("covariance overflows float64 (a variance "
                                 "is not finite)")
        self._rows = rows

    @cached_property
    def matrix(self) -> np.ndarray:
        rows, self._rows = self._rows, None
        return rows.T @ rows


def _centred_covariance(rows: np.ndarray, design: SamplingDesign,
                        indices: np.ndarray | None = None):
    """CovarianceEstimate of the population curves, or of the linearized
    rows of the sampled units `indices`: one gather puts the rows in
    stratum order (a copy when they already are), then each stratum's
    slice is centred and scaled in place (module docstring)."""
    strata, n_h = design.allocation
    labels = design.stratum_of()
    if indices is None:
        sizes = [s.size for s in strata]
    else:
        labels, sizes = labels[indices], n_h
    if np.all(labels[:-1] <= labels[1:]):  # already in stratum order
        c = rows.copy()
    else:
        c = rows[np.argsort(labels, kind="stable")]
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for s, n, m in zip(strata, n_h, sizes):
            block = c[start:start + m]
            start += m
            weight = s.size**2 * (1.0 - n / s.size) / n
            if m > 1:
                block -= block.sum(axis=0) / m
                weight /= m - 1
            else:  # the uncentred n_h = 1 convention
                weight /= n
            block *= np.sqrt(weight) / design.N
    return CovarianceEstimate(c)


def ht_covariance_exact(
    pop: FunctionalPopulation, design: SamplingDesign
) -> CovarianceEstimate:
    """Exact design covariance of the HT mean estimator at all grid pairs."""
    _check_match(pop, design)
    return _centred_covariance(pop.values, design)


def ma_covariance_approx(
    pop: FunctionalPopulation, design: SamplingDesign
) -> CovarianceEstimate:
    """HT covariance of the census-fit residuals: the approximate covariance
    of the model-assisted estimator (exactly the covariance of the difference
    estimator)."""
    _check_match(pop, design)
    residuals = pop.values - pop.aux @ beta_population(pop)
    return _centred_covariance(residuals, design)


def ma_covariance_estimate(
    pop: FunctionalPopulation,
    sample: Sample,
    a: float | None = 0.0,
    estimate: MeanEstimate | None = None,
) -> CovarianceEstimate:
    """Sample-only estimator of the model-assisted covariance.

    Plugs the residuals of the design-weighted regression fitted on the
    sample into the HT covariance estimator; they are read from the
    model-assisted `estimate` of this sample and floor when given.
    """
    if estimate is None:
        estimate = estimators.model_assisted_mean(pop, sample, a=a)
    return _centred_covariance(estimate.linearized, sample.design,
                               sample.indices)


def ht_covariance_estimate(
    pop: FunctionalPopulation,
    sample: Sample,
    estimate: MeanEstimate | None = None,
) -> CovarianceEstimate:
    """Sample HT covariance estimator of the HT mean of this sample, or of
    the Hajek mean given its `estimate`: the HT covariance of the sampled
    curves centred at that estimate, its linearized rows."""
    if estimate is None:
        estimate = estimators.ht_mean(pop, sample)
    return _centred_covariance(estimate.linearized, sample.design,
                               sample.indices)


# The one table of estimator kinds: kind -> (mean, covariance).
# mean(pop, sample, a) gives the MeanEstimate and covariance(pop, sample, a,
# estimate) its CovarianceEstimate from that estimate's linearized rows;
# covariance is None for an estimator without a sample covariance
# estimator, which cannot run a campaign.  Functions are looked up by name
# at each call, so wrappers installed on them later (tracing spans) see
# these calls.
ESTIMATORS = {
    "ht": (lambda pop, s, a: estimators.ht_mean(pop, s),
           lambda pop, s, a, est: ht_covariance_estimate(pop, s, estimate=est)),
    # HT covariance of the linearized curves: the sample centred at the mean
    "hajek": (lambda pop, s, a: estimators.hajek_mean(pop, s),
              lambda pop, s, a, est: ht_covariance_estimate(pop, s, estimate=est)),
    "ma": (lambda pop, s, a: estimators.model_assisted_mean(pop, s, a=a),
           lambda pop, s, a, est: ma_covariance_estimate(pop, s, a=a, estimate=est)),
    # the census-fit difference estimator, a testing oracle
    "difference": (lambda pop, s, a: estimators.difference_mean(pop, s), None),
}

CAMPAIGN_ESTIMATORS = tuple(k for k, (_, cov) in ESTIMATORS.items() if cov)
