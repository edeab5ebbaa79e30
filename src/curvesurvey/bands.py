"""Simultaneous confidence bands via Gaussian-process simulation.

A centered Gaussian vector with the n-scaled estimated covariance is drawn
repeatedly; the (1 - alpha) quantile of the sup of |Z(t)| / sigma_hat(t)
gives the band constant c_alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .covariance import CovarianceEstimate
from .errors import DegenerateVarianceError, ValidationError
from .estimators import MeanEstimate
from .linalg import psd_repair


@dataclass(frozen=True, eq=False)
class ConfidenceBand:
    """Band center plus pointwise half-widths c_alpha * sigma_hat(t) / sqrt(n)."""

    center: np.ndarray
    half_width: np.ndarray
    c_alpha: float
    alpha: float
    n_sims: int
    seed: object = None


# Simulations per block of the sup kernel.  Blocks of 512 to 2048 ran alike
# at D = 48; 1024 was the fastest at D = 336.
SIM_BLOCK = 1024


def _scaled_factor(cov_scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F / sigma[:, None], sigma) from one eigendecomposition of cov_scaled.

    sigma is the square root of the repaired diagonal; F F' is the repaired
    matrix (see linalg.psd_repair).
    """
    repaired, factor = psd_repair(cov_scaled)
    diag = np.diag(repaired)
    if np.any(diag <= 0.0):
        worst = int(np.argmin(diag))
        raise DegenerateVarianceError(
            f"estimated variance is not strictly positive at grid index "
            f"{worst} (value {diag[worst]:g}); no band can be built"
        )
    sigma = np.sqrt(diag)
    return factor / sigma[:, None], sigma


def _sup_sample(
    scaled_factor: np.ndarray, sups: np.ndarray, rng: np.random.Generator
):
    """Fills sups with max_t |(F Z)(t)| / sigma(t) for sups.size standard
    normal vectors Z, one SIM_BLOCK-row block at a time, and yields each
    block of sups as soon as it is filled.

    The draws come from rng in the order of one
    rng.standard_normal((sups.size, D)) call, so the sups equal those of
    that one-shot form (oracle.one_shot_sup_sample) up to rounding.
    Callers allocate sups whole, so an n_sims beyond memory fails before
    any draw.
    """
    d = scaled_factor.shape[0]
    n_sims = sups.size
    block = min(SIM_BLOCK, n_sims)
    draws = np.empty(block * d)
    product = np.empty(block * d)
    for lo in range(0, n_sims, block):
        b = min(block, n_sims - lo)
        z = draws[: b * d].reshape(b, d)
        rng.standard_normal(out=z)
        p = product[: b * d].reshape(d, b)
        np.matmul(scaled_factor, z.T, out=p)
        np.abs(p, out=p)
        yield p.max(axis=0, out=sups[lo : lo + b])


def _quantile_rank(alpha: float, n_sims: int) -> int:
    # conservative empirical quantile: order statistic ceil((1-alpha)*n_sims)
    return ceil((1.0 - alpha) * n_sims)


def _check_sims(alpha: float, n_sims: int) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    if n_sims < 100:
        raise ValidationError("need at least 100 simulations")


def _band_constant(
    cov_scaled: np.ndarray, alpha: float, n_sims: int, seed
) -> tuple[float, np.ndarray]:
    """(c_alpha, sigma) from one eigendecomposition of cov_scaled."""
    _check_sims(alpha, n_sims)
    scaled_factor, sigma = _scaled_factor(cov_scaled)
    sups = np.empty(n_sims)
    for _ in _sup_sample(scaled_factor, sups, np.random.default_rng(seed)):
        pass
    k = _quantile_rank(alpha, n_sims)
    return float(np.partition(sups, k - 1)[k - 1]), sigma


def simulate_sup_quantile(
    cov: CovarianceEstimate | np.ndarray,
    alpha: float,
    n_sims: int,
    seed,
) -> float:
    """Band constant c_alpha from n_sims Gaussian draws.

    `cov` must already carry the n scaling (gamma_Z = n * gamma_hat).
    Deterministic given the seed.
    """
    matrix = cov.matrix if isinstance(cov, CovarianceEstimate) else np.asarray(cov)
    return _band_constant(matrix, alpha, n_sims, seed)[0]


def build_band(
    estimate: MeanEstimate,
    cov: CovarianceEstimate,
    n: int,
    alpha: float,
    n_sims: int = 10_000,
    seed=None,
) -> ConfidenceBand:
    """Simultaneous band around an estimated mean curve.

    `cov` is the unscaled covariance estimate; sigma_hat(t) =
    sqrt(n * gamma_hat(t, t)), so the half-width reduces to
    c_alpha * sqrt(gamma_hat(t, t)).  Same constant as
    simulate_sup_quantile(n * cov, alpha, n_sims, seed), from one
    eigendecomposition of n * cov.
    """
    if n < 1:
        raise ValidationError("sample size n must be >= 1")
    c_alpha, sigma = _band_constant(n * cov.matrix, alpha, n_sims, seed)
    half_width = c_alpha * sigma / np.sqrt(n)
    return ConfidenceBand(
        center=np.asarray(estimate.curve, dtype=float),
        half_width=half_width,
        c_alpha=c_alpha,
        alpha=alpha,
        n_sims=n_sims,
        seed=seed,
    )


def _truth_array(truth, center: np.ndarray) -> np.ndarray:
    truth = np.asarray(truth, dtype=float)
    if truth.shape != center.shape:
        raise ValidationError(
            f"truth has length {truth.size}, band has {center.size}"
        )
    return truth


def contains(band: ConfidenceBand, truth: np.ndarray) -> bool:
    """True iff the band covers `truth` at every grid point (closed intervals)."""
    truth = _truth_array(truth, band.center)
    return bool(np.all(np.abs(truth - band.center) <= band.half_width))


def covers(
    estimate: MeanEstimate,
    cov: CovarianceEstimate,
    n: int,
    alpha: float,
    n_sims: int,
    seed,
    truth: np.ndarray,
) -> bool:
    """contains(build_band(estimate, cov, n, alpha, n_sims, seed), truth),
    drawing simulations only until the answer is settled.

    Same checks and errors as that pair.  Why stopping early is exact: let
    P(s) = all(|truth - center| <= s * sigma / sqrt(n)), the float
    expression of build_band's half-width and of contains' test.  IEEE
    multiplication and division by positive numbers are monotone, so P is
    monotone in s and the sups satisfying it are the largest ones.  The
    band covers truth iff P(c_alpha), with c_alpha the k-th smallest of
    the n_sims sups, k = ceil((1 - alpha) * n_sims).  By monotonicity that
    holds iff at least n_sims - k + 1 sups satisfy P, and fails iff at
    least k sups fail P.  The sups are drawn block by block in
    build_band's order, and the walk stops as soon as either count is
    reached (a sequential Monte Carlo test, Besag & Clifford 1991).
    """
    if n < 1:
        raise ValidationError("sample size n must be >= 1")
    _check_sims(alpha, n_sims)
    scaled_factor, sigma = _scaled_factor(n * cov.matrix)
    center = np.asarray(estimate.curve, dtype=float)
    deviation = np.abs(_truth_array(truth, center) - center)[:, None]
    sigma = sigma[:, None]
    root_n = np.sqrt(n)
    k = _quantile_rank(alpha, n_sims)
    inside = outside = 0
    sups = np.empty(n_sims)
    for block in _sup_sample(scaled_factor, sups, np.random.default_rng(seed)):
        hits = int(np.count_nonzero(
            np.all(deviation <= block * sigma / root_n, axis=0)))
        inside += hits
        outside += block.size - hits
        if inside > n_sims - k or outside >= k:
            break
    return inside > n_sims - k
