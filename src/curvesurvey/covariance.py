"""The covariance estimator of every mean-curve estimator.

The paper estimates each estimator's covariance the same way: the sample
Horvitz-Thompson covariance estimator of its linearized rows (y_s for HT,
y_s - mu_hat for Hajek, the regression residuals for MA), which every
`MeanEstimate` carries.  Matrices are stored unscaled (no factor n), and
the bands layer reads them so: n cancels from the band.

Every design here is stratified SRSWOR (SRSWOR is one stratum), whose HT
covariance is (1/N^2) sum_h N_h^2 (1 - f_h) / n_h S_h, with f_h = n_h / N_h
and S_h the within-stratum covariance of the curves (Sarndal, Swensson &
Wretman 1992, section 3.7).  So every covariance is the Gram matrix C'C of
scaled, stratum-centred rows: row k of stratum h is
sqrt(c_h) (y_k - ybar_h) / N, c_h = N_h^2 (1 - f_h) / (n_h (m_h - 1)) over
the m_h rows of the stratum, its n_h linearized rows for the estimators
(its N_h curves for the exact covariances of ``oracle.py``).  A stratum of
one row keeps the n_h = 1 convention (1 - f_h) u u' / N^2 with u = y / f_h:
its row is uncentred, c_h = N_h^2 (1 - f_h) / n_h^2.  Centred, C'C is
shift-invariant and PSD by construction, so its Cholesky factorization
fails only on a singular C'C, as when n - H < D; the bands then factor C
itself by a thin QR, so the estimate keeps C as `rows`.  The variance
function costs O(rows * D) and the D x D matrix O(rows * D^2); no n x n
or N x N matrix is built.  The dense u' W u formulas live in
``oracle.py`` as the reference the tests compare against.

The estimator takes the linearized rows of one sample or of a (B, n)
stack of samples: each sample's rows are put in stratum order and centred
on their own, along the last two axes, so the stacked C, variance and
C'C equal their single-sample values bit for bit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import estimators
from .designs import Sample, SamplingDesign
from .errors import NumericalError, ValidationError
from .estimators import MeanEstimate
from .grids import FunctionalPopulation


class CovarianceEstimate:
    """Covariance C'C on the grid, from the (rows, D) array C, kept as
    `rows`.  The `variance` function, C's column sums of squares, is
    computed here at O(rows * D); the D x D `matrix` is formed when first
    read.  A variance that overflows float64 raises NumericalError; a
    finite one bounds every entry of C'C (Cauchy-Schwarz).  A (B, rows, D)
    stack holds the B estimates of a stack of samples; `variance` and
    `matrix` then carry the leading B too."""

    def __init__(self, rows: np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            self.variance = np.einsum("...ij,...ij->...j", rows, rows)
        if not np.isfinite(self.variance).all():
            raise NumericalError("covariance overflows float64 (a variance "
                                 "is not finite)")
        self.rows = rows

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.rows.swapaxes(-1, -2) @ self.rows


def _centred_covariance(rows: np.ndarray, design: SamplingDesign,
                        indices: np.ndarray | None = None):
    """CovarianceEstimate of the population curves (oracle.py's exact
    covariances), or of the linearized rows of the sampled units `indices`,
    one sample (n,) or a stack (B, n) with rows (B, n, D): each stratum's
    rows are centred into one new array, straight from `rows` when they are
    in stratum order, else in place in the one gather that orders them,
    and then scaled in place (module docstring)."""
    strata, n_h, labels = design.strata, design.n_h, design.labels
    if indices is None:
        sizes = [s.size for s in strata]
    else:
        labels, sizes = labels[indices], n_h
    if np.all(labels[..., :-1] <= labels[..., 1:]):  # already in stratum order
        c = np.empty(rows.shape, dtype=rows.dtype)
    else:
        order = np.argsort(labels, axis=-1, kind="stable")
        rows = c = np.take_along_axis(rows, order[..., None], axis=-2)
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for s, n, m in zip(strata, n_h, sizes):
            source = rows[..., start:start + m, :]
            block = c[..., start:start + m, :]
            start += m
            weight = s.size**2 * (1.0 - n / s.size) / n
            if m > 1:
                np.subtract(source, source.sum(axis=-2, keepdims=True) / m,
                            out=block)
                weight /= m - 1
            else:  # the uncentred n_h = 1 convention
                block[...] = source
                weight /= n
            block *= np.sqrt(weight) / design.N
    return CovarianceEstimate(c)


def _linearized(estimate: MeanEstimate) -> np.ndarray:
    if estimate.linearized is None:
        raise ValidationError(
            f"a {estimate.estimator_kind} estimate has no linearized rows, "
            "so no covariance estimator"
        )
    return estimate.linearized


def ma_covariance_estimate(
    pop: FunctionalPopulation,
    sample: Sample,
    a: float | None = 0.0,
    estimate: MeanEstimate | None = None,
) -> CovarianceEstimate:
    """Sample-only estimator of the model-assisted covariance:
    ht_covariance_estimate of the model-assisted `estimate` of this sample,
    whose linearized rows are the residuals of the design-weighted
    regression fitted on the sample; fitted here with floor `a` when not
    given.
    """
    if estimate is None:
        estimate = estimators.model_assisted_mean(pop, sample, a=a)
    return _centred_covariance(_linearized(estimate), sample.design,
                               sample.indices)


def ht_covariance_estimate(
    pop: FunctionalPopulation,
    sample: Sample,
    estimate: MeanEstimate | None = None,
) -> CovarianceEstimate:
    """Sample HT covariance estimator of the linearized rows of `estimate`,
    an HT, Hajek or model-assisted estimate of this sample (the HT mean
    when not given): the covariance estimator of that mean."""
    if estimate is None:
        estimate = estimators.ht_mean(pop, sample)
    return _centred_covariance(_linearized(estimate), sample.design,
                               sample.indices)

