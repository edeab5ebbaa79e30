"""Mean-curve estimators and the one table of estimator kinds.

Horvitz-Thompson, Hajek and the model-assisted estimator with an
eigenvalue-floored design matrix.  `ESTIMATORS` maps each kind to its mean
function; it is the only table of kinds that the config, the CLI and the
campaigns read.  Every estimate carries its linearized rows, whose HT
covariance estimator (``covariance.ht_covariance_estimate``) is the
estimate's covariance estimator, so every kind runs every command.  The
generalized difference estimator fits beta on every unit's curve, which a
survey never has, so it is an oracle in ``oracle.py``.

Every regression fit, the sampled design-weighted one here and the census
one of ``oracle.py``, comes from one thin SVD of the weighted design
(`_fit`), never from the moment matrix x'x / pi, so a fit loses
cond(x / sqrt(pi)) digits, not its square.  At a = 0 the model-assisted
mean is the calibration estimator (Deville & Sarndal 1992): the mean under
the weights closest to 1/pi that reproduce the auxiliary totals.  The MA
estimate and those calibration weights therefore come from the same SVD
fit; ``oracle.py`` keeps independent twins of the weights (exact rational
arithmetic) and of the eigenvalue-floored inverse (an eigendecomposition),
for the tests and ``oracle-check``.

Every mean takes one sample or a (B, n) stack of samples (a campaign's
block of replicates) through the same code: sums run over axis -2,
products over the last two axes and the fit is one stacked SVD, so each
stacked curve equals its single-sample curve bit for bit.  A stack fails
as a whole when any of its samples fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .designs import Sample, SamplingDesign, first_order_probs
from .errors import NumericalError, ValidationError
from .grids import FunctionalPopulation

# a=None asks for this relative floor; a=0.0 means "no floor, fail on
# singular sampled design matrix".
DEFAULT_FLOOR_REL = 1e-8
SINGULARITY_REL = 1e-12
_SQRT_MAX = np.sqrt(np.finfo(float).max)


@dataclass(frozen=True, eq=False)
class MeanEstimate:
    """Estimated mean curve on the population grid, with the linearized
    sample rows its covariance estimator reads (HT y_s, Hajek y_s - curve,
    MA the fit residuals y_s - x_s beta; None for the oracle's difference
    estimate, which has no covariance estimator)."""

    curve: np.ndarray
    estimator_kind: str  # HT | Hajek | ModelAssisted; Difference in oracle.py
    a_used: float | None = None
    linearized: np.ndarray | None = None


def _check_match(pop: FunctionalPopulation, design: SamplingDesign):
    if design.N != pop.N:
        raise ValidationError(f"design has N={design.N}, population has N={pop.N}")


def _check_floor(a: float | None, N: int):
    """Refuse a floor a that is negative, NaN or infinite, or whose N * a,
    the floor of the fit's unnormalized moment matrix, overflows."""
    if a is None:
        return
    if not 0.0 <= a < np.inf:  # NaN fails the test too
        raise ValidationError(
            f"regularization floor a must be finite and >= 0, got {a}")
    if not math.isfinite(float(N) * float(a)):
        raise ValidationError(f"regularization floor a = {a:g} is too large "
                              f"for N = {N}: N * a overflows float64")


def _sample_arrays(pop: FunctionalPopulation, sample: Sample):
    """(y_s, pi) of the sampled units, once the sizes are checked: (n, D)
    and (n,) for one sample, with a leading B for a stack, gathered by one
    fancy index each.  Only the MA mean gathers x_s as well."""
    _check_match(pop, sample.design)
    pi = first_order_probs(sample.design)[sample.indices]
    return pop.values[sample.indices], pi


def ht_mean(pop: FunctionalPopulation, sample: Sample) -> MeanEstimate:
    """Horvitz-Thompson estimator: inverse-probability-weighted mean."""
    y_s, pi = _sample_arrays(pop, sample)
    curve = (y_s / pi[..., None]).sum(axis=-2) / pop.N
    return MeanEstimate(curve=curve, estimator_kind="HT", linearized=y_s)


def hajek_mean(pop: FunctionalPopulation, sample: Sample) -> MeanEstimate:
    """Hajek estimator: HT total divided by the HT-estimated population size."""
    y_s, pi = _sample_arrays(pop, sample)
    w = 1.0 / pi
    curve = (y_s * w[..., None]).sum(axis=-2) / w.sum(axis=-1, keepdims=True)
    y_s -= curve[..., None, :]  # the linearized rows, over the gathered rows
    return MeanEstimate(curve=curve, estimator_kind="Hajek", linearized=y_s)


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    """The value of the first sample of a batch flagged bad, for a message."""
    return float(np.broadcast_to(values, bad.shape)[bad].flat[0])


def _fit(x, y, pi, N: int, a: float | None, label: str = "sampled"):
    """(beta, e, a_used, floored): the (p, D) coefficient curves of the
    regression of y on x weighted by 1/pi, with the moment matrix
    G = sum x x' / (pi N) floored at a, the residuals e = y - x beta and
    whether the floor fired.  x, y and pi may carry a leading batch axis,
    one independent fit per sample (one stacked SVD); a_used and floored
    then have the batch shape, and the call fails when any fit of it fails.

    With the thin SVD x / sqrt(pi) = U S V', G = V diag(S^2 / N) V' and
    b = sum x y / (pi N) = V diag(S / N) U' (y / sqrt(pi)), so
    inv(G floored at a) b = V diag(scale) (U / sqrt(pi))' y with scale 1/S
    where S^2 / N >= a and S / (N a) below the floor.  a = 0 asks for no
    floor and fails on a singular G (min eigenvalue <= SINGULARITY_REL
    trace(G) / p); a = None asks for the floor DEFAULT_FLOOR_REL
    trace(G) / p.  Both tests read the eigenvalues relative to the largest,
    (S / S_max)^2, so no step squares the design.

    One step of iterative refinement through the same SVD (Bjorck 1967),
    beta += inv(M) (x' e / pi - (M - N G) beta) with M = N G floored and e
    the residuals, takes the solve's error down to the residuals' rounding.
    """
    _check_floor(a, N)
    root_pi = np.sqrt(pi)[..., None]
    u, s, vt = np.linalg.svd(x / root_pi, full_matrices=False)
    # eigenvalues of G over the largest; those missing when n < p are 0
    ratio = np.zeros(s.shape[:-1] + x.shape[-1:])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio[..., : s.shape[-1]] = np.where(s[..., :1] > 0,
                                             (s / s[..., :1]) ** 2, 0.0)
    mean_ratio = ratio.mean(axis=-1)  # trace(G) / p over the largest eigenvalue
    root_eig = s / np.sqrt(N)  # square roots of the eigenvalues of G
    if a is None:
        overflow = ~(root_eig[..., 0] < _SQRT_MAX)
        if np.any(overflow):
            raise NumericalError(
                f"{label} moment matrix overflows float64 (largest eigenvalue "
                f"{_first(root_eig[..., 0], overflow):g}^2), so its relative "
                "floor is undefined"
            )
        a = DEFAULT_FLOOR_REL * mean_ratio * root_eig[..., 0] ** 2
    a = np.asarray(a, dtype=float)
    threshold = SINGULARITY_REL * mean_ratio
    singular = (a == 0.0) & (ratio.min(axis=-1) <= threshold)
    if np.any(singular):
        raise NumericalError(
            f"{label} moment matrix is singular (eigenvalue ratio min/max "
            f"{_first(ratio.min(axis=-1), singular):g} <= threshold "
            f"{_first(threshold, singular):g})"
        )
    floored = root_eig < np.sqrt(a)[..., None]
    floor = N * a[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = np.where(floored, s / floor, 1.0 / s)
        inverse = np.where(floored, 1.0 / floor, scale / s)  # inv(M) on V
        lift = np.where(floored, floor - s * s, 0.0)  # M - N G on V
    v = vt.swapaxes(-1, -2)
    beta = v @ (scale[..., None] * ((u / root_pi).swapaxes(-1, -2) @ y))
    resid = x @ beta
    np.subtract(y, resid, out=resid)
    r = vt @ ((x / pi[..., None]).swapaxes(-1, -2) @ resid)
    r -= lift[..., None] * (vt @ beta)
    beta += v @ (inverse[..., None] * r)
    np.matmul(x, beta, out=resid)
    np.subtract(y, resid, out=resid)
    return beta, resid, a, floored.any(axis=-1) | (s.shape[-1] < x.shape[-1])


def _has_intercept(x_s: np.ndarray) -> np.ndarray:
    return np.any(np.all(x_s == 1.0, axis=-2), axis=-1)


def model_assisted_mean(
    pop: FunctionalPopulation, sample: Sample, a: float | None = 0.0
) -> MeanEstimate:
    """Model-assisted mean t_x' beta / N + (1/N) sum_s e_k / pi_k.

    beta is the sampled fit floored at a and e_s = y_s - x_s beta its
    residuals, the linearized rows.  Nothing outside the sample enters
    beyond the auxiliary population totals t_x.  For a (B, n) stack of
    samples a_used is a float, or a list of B floats when a = None.
    """
    y_s, pi = _sample_arrays(pop, sample)
    x_s = pop.aux[sample.indices]
    y_max = np.maximum(y_s.max(axis=(-2, -1)), -y_s.min(axis=(-2, -1)))
    beta, resid, a_used, floored = _fit(x_s, y_s, pi, pop.N, a)
    resid_ht = ((1.0 / pi)[..., None, :] @ resid)[..., 0, :] / pop.N
    # with an intercept the HT sum of estimated residuals must vanish
    worst = np.abs(resid_ht).max(axis=-1)
    broken = (_has_intercept(x_s) & ~floored
              & (worst > 1e-8 * np.maximum(1.0, y_max)))
    if np.any(broken):
        raise NumericalError(
            "intercept residual cancellation violated "
            f"(max |HT residual| = {_first(worst, broken):g})"
        )
    curve = pop.aux_totals() @ beta / pop.N + resid_ht
    return MeanEstimate(curve=curve, estimator_kind="ModelAssisted",
                        a_used=a_used.tolist(), linearized=resid)


# kind -> mean(pop, sample, a).  Each looks its function up by name at the
# call, so wrappers installed on the functions later (tracing spans) see
# these calls.
ESTIMATORS = {
    "ht": lambda pop, s, a: ht_mean(pop, s),
    "hajek": lambda pop, s, a: hajek_mean(pop, s),
    "ma": lambda pop, s, a: model_assisted_mean(pop, s, a=a),
}
