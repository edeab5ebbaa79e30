"""Covariance functions of the mean-curve estimators.

Exact Horvitz-Thompson covariance from the full population, the residual
covariance approximating the model-assisted estimator's covariance, and its
sample-only estimator.  Matrices are stored unscaled (no factor n); the
bands layer applies the sqrt(n)/n scalings.

Every design here is stratified SRSWOR (SRSWOR is one stratum), so a
weight matrix over unit pairs takes two values per stratum h: w_diag,h on
the diagonal and w_off,h between distinct units of h (cross-stratum pairs
weigh 0).  With U_h the rows u_k = y_k / pi_k of stratum h and
s_h = sum_{k in h} u_k, every covariance is the closed form

    (1/N^2) sum_h [ w_diag,h U_h'U_h + w_off,h (s_h s_h' - U_h'U_h) ]

at O(rows * D^2) cost, without an n x n or N x N matrix.  Its diagonal,
the variance function, is (1/N^2) sum_h [(w_diag,h - w_off,h) sum_k u_k^2
+ w_off,h s_h^2] at O(rows * D).  The exact
covariances take w = Delta_kl = pi_kl - pi_k pi_l over the population
(f_h(1 - f_h) and pi_kl,h - f_h^2, with f_h = n_h / N_h); the estimators
take w = Delta_kl / pi_kl over the sample (1 - f_h and
(pi_kl,h - f_h^2) / pi_kl,h).  The dense u' W u formulas live in
``oracle.py`` as the reference the tests compare against.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import estimators
from .designs import Sample, SamplingDesign, joint_prob_within
from .estimators import MeanEstimate, _check_match, beta_population
from .grids import FunctionalPopulation


class CovarianceEstimate:
    """D x D symmetric `matrix` of covariance values at grid-point pairs and
    its diagonal, the `variance` function.  From a (rows, blocks, N) kernel
    the variance costs O(rows * D); the matrix, O(rows * D^2), is formed
    when first read."""

    def __init__(self, matrix=None, kind: str = "", kernel=None):
        self.kind = kind  # HT_exact | MA_approx | MA_estimated | ...
        self._kernel = kernel
        if matrix is not None:  # instance attributes shadow the properties
            self.matrix = matrix
        if kernel is not None:
            self.variance = _block_covariance(*kernel, diagonal=True)

    matrix = cached_property(lambda self: _block_covariance(*self._kernel))
    variance = cached_property(lambda self: np.diag(self.matrix).copy())


def _block_covariance(rows: np.ndarray, blocks, N: int, diagonal=False):
    """(1/N^2) sum_h [w_diag,h U_h'U_h + w_off,h (s_h s_h' - U_h'U_h)], or
    with `diagonal` its diagonal alone, elementwise at O(rows * D).

    blocks holds (members, f_h, w_diag,h, w_off,h) per stratum, where
    members selects the stratum's rows and U_h = rows[members] / f_h.
    """
    cov = 0.0
    for members, f, w_diag, w_off in blocks:
        u = rows[members] / f
        total = u.sum(axis=0)
        if diagonal:
            cov += (w_diag - w_off) * np.einsum("ij,ij->j", u, u) + w_off * total**2
        else:
            cov += (w_diag - w_off) * (u.T @ u) + w_off * np.outer(total, total)
    cov /= N**2
    return cov if diagonal else 0.5 * (cov + cov.T)


def _exact_covariance(curves: np.ndarray, design: SamplingDesign, kind: str):
    """(1/N^2) u' Delta u over the population, Delta_kl = pi_kl - pi_k pi_l."""
    blocks = []
    for s, m in zip(*design.allocation):
        f = m / s.size
        blocks.append((s, f, f * (1.0 - f), joint_prob_within(s.size, m) - f * f))
    return CovarianceEstimate(kind=kind, kernel=(curves, blocks, design.N))


def _estimated_covariance(rows: np.ndarray, sample: Sample, kind: str):
    """HT covariance estimator (1/N^2) u' (Delta / pi_kl) u over the sample.

    A stratum with n_h = 1 has no sampled pair, so only its diagonal term
    enters (its pi_kl = 0 never divides).
    """
    design = sample.design
    labels = design.stratum_of()[sample.indices]
    blocks = []
    for h, (s, m) in enumerate(zip(*design.allocation)):
        f = m / s.size
        pi_kl = joint_prob_within(s.size, m)
        w_off = (pi_kl - f * f) / pi_kl if m > 1 else 0.0
        blocks.append((labels == h, f, 1.0 - f, w_off))
    return CovarianceEstimate(kind=kind, kernel=(rows, blocks, design.N))


def ht_covariance_exact(
    pop: FunctionalPopulation, design: SamplingDesign
) -> CovarianceEstimate:
    """Exact design covariance of the HT mean estimator at all grid pairs."""
    _check_match(pop, design)
    return _exact_covariance(pop.values, design, "HT_exact")


def ma_covariance_approx(
    pop: FunctionalPopulation, design: SamplingDesign
) -> CovarianceEstimate:
    """HT covariance of the census-fit residuals: the approximate covariance
    of the model-assisted estimator (exactly the covariance of the difference
    estimator)."""
    _check_match(pop, design)
    residuals = pop.values - pop.aux @ beta_population(pop)
    return _exact_covariance(residuals, design, "MA_approx")


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
    return _estimated_covariance(estimate.linearized, sample, "MA_estimated")


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
    return _estimated_covariance(estimate.linearized, sample, "HT_estimated")


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
