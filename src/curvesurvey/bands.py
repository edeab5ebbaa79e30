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
    alpha: float
    n_sims: int
    seed: object = None


# Simulations per block of the sup kernel.  Blocks of 512 to 2048 ran alike
# at D = 48; 1024 was the fastest at D = 336.
SIM_BLOCK = 1024


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


class _SupKernel:
    """The sup kernel of build_band and covers: for standard normal vectors
    Z drawn from one stream, sups[i] = max_t |(F Z_i)(t)| / sigma(t).

    fill(lo, hi) draws simulations lo..hi-1, at most SIM_BLOCK of them,
    into draws[:hi - lo] and returns sups[lo:hi].  Called on consecutive
    ranges from 0, it takes the draws from rng in the order of one
    rng.standard_normal((n_sims, D)) call, so the sups equal those of that
    one-shot form (oracle.one_shot_sup_sample) up to rounding.  The band
    (_band_sups) takes whole SIM_BLOCK tiles of the same stream (the last
    one shorter) through the same product.  A BLAS product can round a
    column differently at another width, so a fill of another range can
    differ from the band's sups in the last bits, by at most
    slack(hi - lo); tile_sup recomputes one sup exactly as the band does.
    sups is allocated whole before any draw, so an n_sims beyond memory
    fails at once.
    """

    def __init__(self, scaled_factor: np.ndarray, n_sims: int,
                 rng: np.random.Generator):
        d = scaled_factor.shape[0]
        self.factor, self.rng = scaled_factor, rng
        self.sups = np.empty(n_sims)
        self.draws = np.empty((min(SIM_BLOCK, n_sims), d))
        self._product = np.empty(self.draws.size)
        # any two summation orders of a D-term product F_t . z differ by at
        # most 2 gamma_D sum_j |F_tj z_j| (Higham 2002, eq. 3.5), doubled
        # here for the rounding of the bound itself
        unit = np.finfo(float).eps / 2.0
        self._slack_per_z = 4.0 * d * unit / (1.0 - d * unit) * float(
            np.abs(scaled_factor).sum(axis=1).max())

    def _sups(self, z: np.ndarray, out: np.ndarray) -> np.ndarray:
        p = self._product[: z.size].reshape(z.shape[1], z.shape[0])
        np.matmul(self.factor, z.T, out=p)
        np.abs(p, out=p)
        return p.max(axis=0, out=out)

    def fill(self, lo: int, hi: int) -> np.ndarray:
        z = self.draws[: hi - lo]
        self.rng.standard_normal(out=z)
        return self._sups(z, self.sups[lo:hi])

    def slack(self, b: int) -> float:
        """A bound on |sup - band's sup| for the last fill, of b draws."""
        z = self.draws[:b]
        return self._slack_per_z * max(float(z.max()), -float(z.min()))

    def tile_sup(self, i: int, z: np.ndarray) -> float:
        """Simulation i's sup, of draw z, as the band's tile fill gives it:
        the same product shape, z at the same column."""
        tile = i - i % SIM_BLOCK
        draws = np.zeros((min(SIM_BLOCK, self.sups.size - tile), z.size))
        draws[i - tile] = z
        return float(self._sups(draws, np.empty(draws.shape[0]))[i - tile])


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
    """The band's n_sims sups: _SupKernel's product on whole SIM_BLOCK
    tiles of one stream, drawn on a helper thread (linalg.normal_blocks)."""
    kernel = _SupKernel(scaled_factor, n_sims, rng)
    d = scaled_factor.shape[0]
    with closing(normal_blocks(rng, n_sims, d, SIM_BLOCK)) as blocks:
        for lo, z in blocks:
            kernel._sups(z, kernel.sups[lo:lo + len(z)])
    return kernel.sups


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
    short.  The sups are drawn in build_band's order by the same kernel,
    and the walk stops as soon as either count is reached (a sequential
    Monte Carlo test, Besag & Clifford 1991).  Its blocks are not the
    band's tiles, so a sup can differ from the band's by up to the fill's
    slack; a sup that close to s* is recomputed as the band computes it
    (_SupKernel.tile_sup), so both counts are the band's.  The first block
    is the fewest draws that could settle the flag, min(n_sims - k + 1,
    k); each later one is the expected number still needed at the observed
    rate q of sups reaching s*, ceil(min(rem_in / q, rem_out / (1 - q))),
    and at least min(rem_in, rem_out), which any answer still needs.  No
    block exceeds SIM_BLOCK.
    """
    if n < 1:
        raise ValidationError("sample size n must be >= 1")
    _check_sims(alpha, n_sims)
    scaled_factor, sigma = _scaled_factor(n * cov.matrix)
    center = np.asarray(estimate.curve, dtype=float)
    deviation = np.abs(_truth_array(truth, center) - center)
    threshold = _coverage_threshold(deviation, sigma, np.sqrt(n))
    k = _quantile_rank(alpha, n_sims)
    need_in, need_out = n_sims - k + 1, k
    kernel = _SupKernel(scaled_factor, n_sims, np.random.default_rng(seed))
    inside = drawn = 0
    block = min(need_in, need_out, SIM_BLOCK)
    while True:
        sups = kernel.fill(drawn, drawn + block)
        slack = kernel.slack(block)
        sure = np.nextafter(threshold + slack, np.inf)
        inside += int(np.count_nonzero(sups >= sure))
        near = (sups >= np.nextafter(threshold - slack, -np.inf)) & (sups < sure)
        for j in np.flatnonzero(near):  # within rounding of the threshold
            inside += kernel.tile_sup(drawn + j, kernel.draws[j]) >= threshold
        drawn += block
        rem_in, rem_out = need_in - inside, need_out - (drawn - inside)
        if rem_in <= 0 or rem_out <= 0:
            return rem_in <= 0
        q = inside / drawn
        expected = min(rem_in / q if q > 0.0 else np.inf,
                       rem_out / (1.0 - q) if q < 1.0 else np.inf)
        block = min(max(ceil(expected), min(rem_in, rem_out)), SIM_BLOCK,
                    n_sims - drawn)
