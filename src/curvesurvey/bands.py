"""Simultaneous confidence bands via Gaussian-process simulation.

A centered Gaussian vector with the n-scaled estimated covariance is drawn
repeatedly; the (1 - alpha) quantile of the sup of |Z(t)| / sigma_hat(t)
gives the band constant c_alpha.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from math import ceil

import numpy as np

from .covariance import CovarianceEstimate
from .errors import DegenerateVarianceError, ValidationError
from .estimators import MeanEstimate
from .linalg import _one_blas_thread, normal_blocks, psd_repair


@dataclass(frozen=True, eq=False)
class ConfidenceBand:
    """Band center plus pointwise half-widths c_alpha * sigma_hat(t) / sqrt(n)."""

    center: np.ndarray
    half_width: np.ndarray
    c_alpha: float


# Simulations per tile of the sup product, for the band and covers alike.
# Measured on a 2-core Xeon at one BLAS thread, against tiles of 1024 with
# covers drawing its own adaptive blocks: covers, which stops at a tile
# boundary, still takes about 1.6 ms per README-scale call, and the best
# time of a 5000-sim band at D = 336 fell from 36-42 to 33-37 ms.
SIM_BLOCK = 256


def _scaled_factor(cov_scaled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F / sigma[:, None], sigma) from linalg.psd_repair(cov_scaled).

    sigma is the square root of the repaired diagonal; F F' is the repaired
    matrix.
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


def _tile_sups(scaled_factor: np.ndarray, z: np.ndarray, out: np.ndarray,
               product: np.ndarray) -> np.ndarray:
    """out[i] = max_t |(F z_i)(t)| / sigma(t) for the rows z_i of one tile,
    with scaled_factor = F / sigma[:, None] and product a reused buffer of
    at least z.size floats.

    The band and covers both send their SIM_BLOCK tiles of one stream
    through this product, so they get the same sups bit for bit; these
    equal the sups of one rng.standard_normal((n_sims, D)) draw
    (oracle.one_shot_sup_sample) up to rounding.
    """
    p = product[: z.size].reshape(z.shape[1], z.shape[0])
    np.matmul(scaled_factor, z.T, out=p)
    np.abs(p, out=p)
    return p.max(axis=0, out=out)


def _quantile_rank(alpha: float, n_sims: int) -> int:
    # conservative empirical quantile: order statistic ceil((1-alpha)*n_sims)
    return ceil((1.0 - alpha) * n_sims)


def _check_sims(alpha: float, n_sims: int) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    if n_sims < 100:
        raise ValidationError("need at least 100 simulations")


def _band_sups(scaled_factor: np.ndarray, n_sims: int,
               rng: np.random.Generator) -> np.ndarray:
    """The band's n_sims sups, from SIM_BLOCK tiles of one stream drawn on
    a helper thread (linalg.normal_blocks)."""
    d = scaled_factor.shape[0]
    sups, product = np.empty(n_sims), np.empty(min(SIM_BLOCK, n_sims) * d)
    with closing(normal_blocks(rng, n_sims, d, SIM_BLOCK)) as blocks:
        for lo, z in blocks:
            _tile_sups(scaled_factor, z, sups[lo:lo + len(z)], product)
    return sups


@_one_blas_thread()
def _band_constant(
    cov_scaled: np.ndarray, alpha: float, n_sims: int, seed
) -> tuple[float, np.ndarray]:
    """(c_alpha, sigma) of the band on cov_scaled, on one BLAS thread
    whatever the caller's count."""
    _check_sims(alpha, n_sims)
    scaled_factor, sigma = _scaled_factor(cov_scaled)
    sups = _band_sups(scaled_factor, n_sims, np.random.default_rng(seed))
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
    simulate_sup_quantile(n * cov, alpha, n_sims, seed).
    """
    if n < 1:
        raise ValidationError("sample size n must be >= 1")
    c_alpha, sigma = _band_constant(n * cov.matrix, alpha, n_sims, seed)
    half_width = c_alpha * sigma / np.sqrt(n)
    return ConfidenceBand(center=np.asarray(estimate.curve, dtype=float),
                          half_width=half_width, c_alpha=c_alpha)


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


def _coverage_threshold(deviation: np.ndarray, sigma: np.ndarray,
                        root_n) -> float:
    """The smallest float s >= 0 with
    P(s) = all(deviation <= s * sigma / root_n), or inf when no finite s
    satisfies P (e.g. a NaN or infinite deviation).

    P is monotone in s (see covers), so the floats satisfying it are those
    from this threshold up.  The search starts at deviation * root_n /
    sigma, which is exact or a few ulps off, and walks the floats in bit
    order (non-negative floats order as their bit patterns), doubling its
    step until P changes and then bisecting, so a far start (an overflow)
    costs a few dozen evaluations, not a walk.
    """

    def holds(bits: int) -> bool:
        s = np.int64(bits).view(np.float64)
        return bool(np.all(deviation <= s * sigma / root_n))

    inf = int(np.float64(np.inf).view(np.int64))
    with np.errstate(over="ignore"):
        if not holds(inf):
            return np.inf
        start = float(np.max(deviation * root_n / sigma))
        hi = int(np.float64(start).view(np.int64))
        step = 1
        if holds(hi):  # walk down to a failing lo; -1 stands for "below 0"
            lo = hi - step
            while lo >= 0 and holds(lo):
                hi, step = lo, 2 * step
                lo = hi - step
            lo = max(lo, -1)
        else:  # walk up to a holding hi; holds(inf) ends the walk
            lo = hi
            hi = min(lo + step, inf)
            while not holds(hi):
                lo, step = hi, 2 * step
                hi = min(lo + step, inf)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if holds(mid):
                hi = mid
            else:
                lo = mid
    return float(np.int64(hi).view(np.float64))


@_one_blas_thread()  # as the band is built, whatever the caller's count
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
    monotone in s: a sup satisfies it iff it is at least the threshold s*
    of _coverage_threshold, one scalar per band.  The band covers truth iff
    P(c_alpha), with c_alpha the k-th smallest of the n_sims sups,
    k = ceil((1 - alpha) * n_sims).  By monotonicity that holds iff at
    least n_sims - k + 1 sups reach s*, and fails iff at least k sups fall
    short.  covers draws the band's tiles of the band's stream on the
    calling thread, so its sups are the band's, and stops at the first
    tile that reaches either count (a sequential Monte Carlo test, Besag &
    Clifford 1991).
    """
    if n < 1:
        raise ValidationError("sample size n must be >= 1")
    _check_sims(alpha, n_sims)
    scaled_factor, sigma = _scaled_factor(n * cov.matrix)
    center = np.asarray(estimate.curve, dtype=float)
    deviation = np.abs(_truth_array(truth, center) - center)
    threshold = _coverage_threshold(deviation, sigma, np.sqrt(n))
    k = _quantile_rank(alpha, n_sims)
    need_in = n_sims - k + 1  # sups reaching s* that make the band cover
    # allocated before any draw, so an n_sims beyond memory fails at once
    draws = np.empty((min(SIM_BLOCK, n_sims), scaled_factor.shape[0]))
    sups, product = np.empty(n_sims), np.empty(draws.size)
    rng = np.random.default_rng(seed)
    inside = 0
    for lo in range(0, n_sims, SIM_BLOCK):
        z = draws[: n_sims - lo]
        rng.standard_normal(out=z)
        tile = _tile_sups(scaled_factor, z, sups[lo:lo + len(z)], product)
        inside += int(np.count_nonzero(tile >= threshold))
        if inside >= need_in or lo + len(z) - inside >= k:
            break
    return inside >= need_in
