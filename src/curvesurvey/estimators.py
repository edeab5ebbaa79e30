"""Mean-curve estimators.

Horvitz-Thompson, Hajek, the generalized difference estimator (population
regression fit, an oracle for testing), the model-assisted estimator with an
eigenvalue-floored design matrix, and calibration weights equivalent to the
unregularized model-assisted estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Sample, SamplingDesign, first_order_probs
from .errors import NumericalError, ValidationError
from .grids import FunctionalPopulation
from .linalg import RegularizedInverse, regularized_inverse, sym_eigen

# a=None asks for this relative floor; a=0.0 means "no floor, fail on
# singular sampled design matrix".
DEFAULT_FLOOR_REL = 1e-8
SINGULARITY_REL = 1e-12


@dataclass(frozen=True, eq=False)
class MeanEstimate:
    """Estimated mean curve on the population grid, with the linearized
    sample rows its covariance estimator reads (HT y_s, Hajek y_s - curve,
    MA the fit residuals y_s - x_s beta)."""

    curve: np.ndarray
    estimator_kind: str  # HT | Hajek | ModelAssisted | Difference
    sample: Sample | None = None
    a_used: float | None = None
    linearized: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class BetaEstimate:
    """Regression coefficient curves, (p, D); column i = beta(t_i)."""

    coefficients: np.ndarray
    ghat: np.ndarray
    kind: str  # "population" | "sampled"
    regularization: RegularizedInverse | None = None


@dataclass(frozen=True, eq=False)
class CalibrationWeights:
    """Per-sampled-unit weights reproducing the auxiliary population totals."""

    weights: np.ndarray  # aligned with `indices`
    indices: np.ndarray


def _check_match(pop: FunctionalPopulation, design: SamplingDesign):
    if design.N != pop.N:
        raise ValidationError(f"design has N={design.N}, population has N={pop.N}")


def _sample_arrays(pop: FunctionalPopulation, sample: Sample):
    """(x_s, y_s, pi) of the sampled units, once the sizes are checked."""
    _check_match(pop, sample.design)
    pi = first_order_probs(sample.design)[sample.indices]
    return pop.aux[sample.indices], pop.values[sample.indices], pi


def ht_mean(pop: FunctionalPopulation, sample: Sample) -> MeanEstimate:
    """Horvitz-Thompson estimator: inverse-probability-weighted mean."""
    _, y_s, pi = _sample_arrays(pop, sample)
    curve = (y_s / pi[:, None]).sum(axis=0) / pop.N
    return MeanEstimate(curve=curve, estimator_kind="HT", sample=sample,
                        linearized=y_s)


def hajek_mean(pop: FunctionalPopulation, sample: Sample) -> MeanEstimate:
    """Hajek estimator: HT total divided by the HT-estimated population size."""
    _, y_s, pi = _sample_arrays(pop, sample)
    w = 1.0 / pi
    curve = (y_s * w[:, None]).sum(axis=0) / w.sum()
    return MeanEstimate(curve=curve, estimator_kind="Hajek", sample=sample,
                        linearized=y_s - curve)


def _solve_moment_system(g: np.ndarray, b: np.ndarray, label: str) -> np.ndarray:
    w, _ = sym_eigen(g)
    p = g.shape[0]
    threshold = SINGULARITY_REL * np.trace(g) / p
    if w.min() <= threshold:
        raise NumericalError(
            f"{label} moment matrix is singular "
            f"(min eigenvalue {w.min():g} <= threshold {threshold:g})"
        )
    return np.linalg.solve(g, b)


def beta_population(pop: FunctionalPopulation) -> BetaEstimate:
    """Census-level OLS coefficient curves (the unobservable fit)."""
    g = pop.aux.T @ pop.aux / pop.N
    b = pop.aux.T @ pop.values / pop.N
    coef = _solve_moment_system(g, b, "population")
    return BetaEstimate(coefficients=coef, ghat=g, kind="population")


def _sampled_beta(
    x_s: np.ndarray, y_s: np.ndarray, pi: np.ndarray, N: int, a: float | None
) -> BetaEstimate:
    xw = x_s / pi[:, None]
    ghat = xw.T @ x_s / N
    ghat = 0.5 * (ghat + ghat.T)
    b = xw.T @ y_s / N
    if a is None:
        a = DEFAULT_FLOOR_REL * np.trace(ghat) / ghat.shape[0]
    if a < 0:
        raise ValidationError("regularization floor a must be >= 0")
    if a == 0.0:
        coef = _solve_moment_system(ghat, b, "sampled")
        reg = None
    else:
        reg = regularized_inverse(ghat, a)
        coef = reg.inverse @ b
    return BetaEstimate(
        coefficients=coef, ghat=ghat, kind="sampled", regularization=reg
    )


def beta_sampled(
    pop: FunctionalPopulation, sample: Sample, a: float | None = 0.0
) -> BetaEstimate:
    """Design-weighted coefficient curves from sample data only."""
    x_s, y_s, pi = _sample_arrays(pop, sample)
    return _sampled_beta(x_s, y_s, pi, pop.N, a)


def _has_intercept(x_s: np.ndarray) -> bool:
    return bool(np.any(np.all(x_s == 1.0, axis=0)))


def model_assisted_mean_core(
    aux_totals: np.ndarray,
    x_s: np.ndarray,
    y_s: np.ndarray,
    pi: np.ndarray,
    N: int,
    a: float | None = 0.0,
) -> tuple[np.ndarray, BetaEstimate, np.ndarray]:
    """(curve, beta, residuals y_s - x_s beta) of the model-assisted mean
    from sample rows plus auxiliary population totals.

    This is the full information contract: nothing outside the sample is
    needed beyond the totals of the auxiliary variables.
    """
    aux_totals = np.asarray(aux_totals, dtype=float)
    if aux_totals.shape != (x_s.shape[1],):
        raise ValidationError("aux_totals must have one entry per covariate")
    beta = _sampled_beta(x_s, y_s, pi, N, a)
    residuals = y_s - x_s @ beta.coefficients
    # the HT mean of y - x beta: exactly minus that of x beta - y in IEEE
    resid_ht = (residuals / pi[:, None]).sum(axis=0) / N
    curve = aux_totals @ beta.coefficients / N + resid_ht
    floored = beta.regularization is not None and beta.regularization.floor_applied
    if _has_intercept(x_s) and not floored:
        # with an intercept the HT sum of estimated residuals must vanish
        tol = 1e-8 * max(1.0, float(np.abs(y_s).max()))
        if np.abs(resid_ht).max() > tol:
            raise NumericalError(
                "intercept residual cancellation violated "
                f"(max |HT residual| = {np.abs(resid_ht).max():g})"
            )
    return curve, beta, residuals


def model_assisted_mean(
    pop: FunctionalPopulation, sample: Sample, a: float | None = 0.0
) -> MeanEstimate:
    """Convenience wrapper extracting the information contract from a
    population object and a sample."""
    x_s, y_s, pi = _sample_arrays(pop, sample)
    curve, beta, residuals = model_assisted_mean_core(
        pop.aux_totals(), x_s, y_s, pi, pop.N, a
    )
    a_used = None if beta.regularization is None else beta.regularization.a
    if a == 0.0:
        a_used = 0.0
    return MeanEstimate(curve=curve, estimator_kind="ModelAssisted",
                        sample=sample, a_used=a_used, linearized=residuals)


def difference_mean(pop: FunctionalPopulation, sample: Sample) -> MeanEstimate:
    """Generalized difference estimator built on the census-level fit.

    Requires the full population; design-unbiased, used as a testing oracle
    and as the target the model-assisted estimator approximates.
    """
    _, y_s, pi = _sample_arrays(pop, sample)
    beta = beta_population(pop)
    pred = pop.aux @ beta.coefficients
    resid_ht = ((pred[sample.indices] - y_s) / pi[:, None]).sum(axis=0) / pop.N
    curve = pred.mean(axis=0) - resid_ht
    return MeanEstimate(curve=curve, estimator_kind="Difference", sample=sample)


def calibration_weights(
    aux_totals: np.ndarray, x_s: np.ndarray, pi: np.ndarray, indices: np.ndarray
) -> CalibrationWeights:
    """Weights closest (chi-square distance) to 1/pi_k that reproduce the
    auxiliary population totals exactly."""
    aux_totals = np.asarray(aux_totals, dtype=float)
    xw = x_s / pi[:, None]
    moment = xw.T @ x_s
    gap = xw.sum(axis=0) - aux_totals  # HT totals minus true totals
    correction = _solve_moment_system(
        0.5 * (moment + moment.T), gap, "calibration"
    )
    weights = (1.0 - x_s @ correction) / pi
    achieved = weights @ x_s
    scale = np.maximum(np.abs(aux_totals), 1.0)
    if np.abs(achieved - aux_totals).max() > 1e-8 * scale.max():
        raise NumericalError("calibration equations not satisfied")
    return CalibrationWeights(weights=weights, indices=np.asarray(indices))


def calibration_weights_for(
    pop: FunctionalPopulation, sample: Sample
) -> CalibrationWeights:
    x_s, _, pi = _sample_arrays(pop, sample)
    return calibration_weights(pop.aux_totals(), x_s, pi, sample.indices)


def calibration_mean(
    weights: CalibrationWeights, y_s: np.ndarray, N: int
) -> np.ndarray:
    """Calibration-weighted mean curve, (1/N) * sum_s w_k Y_k."""
    return weights.weights @ y_s / N
