"""Simultaneous confidence bands via Gaussian-process simulation.

The band is mu_hat(t) +- c_alpha sigma_hat(t) / sqrt(n), with
sigma_hat^2(t) = n gamma_hat(t, t) and c_alpha the (1 - alpha) quantile
of sup_t |Z(t)| / sigma_hat(t) for a centered Gaussian Z with covariance
n C'C.  The n cancels from both: c_alpha is the quantile of the same sup
for Z with covariance C'C, scaled by sqrt(gamma_hat(t, t)), and the
half-width is c_alpha sqrt(gamma_hat(t, t)).  So the band reads C and
C'C as the covariance estimate stores them.  Z = F z with F F' = C'C:
the Cholesky factor of C'C, else, when Cholesky refuses a singular C'C
(as when n - H < D), R' from the thin QR C = QR.  Either factor comes
from C'C or C as they are, with no repair and no clip.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from math import ceil

import numpy as np

from .covariance import CovarianceEstimate
from .errors import DegenerateVarianceError, ValidationError
from .estimators import MeanEstimate
from .linalg import _one_blas_thread, normal_blocks


@dataclass(frozen=True, eq=False)
class ConfidenceBand:
    """Band center plus pointwise half-widths c_alpha * sqrt(gamma_hat(t, t)),
    which is c_alpha * sigma_hat(t) / sqrt(n)."""

    center: np.ndarray
    half_width: np.ndarray
    c_alpha: float


# Simulations per tile of the sup product, for the band and covers alike.
# Measured on a 2-core Xeon at one BLAS thread, against tiles of 1024 with
# covers drawing its own adaptive blocks: covers, which stops at a tile
# boundary, still takes about 1.6 ms per README-scale call, and the best
# time of a 5000-sim band at D = 336 fell from 36-42 to 33-37 ms.
SIM_BLOCK = 256

# Simulations in the head of a band stream that a serial coverage campaign
# draws ahead on a helper thread (montecarlo._band_heads), D normals each.
# Measured on a shared 2-core Xeon, the serial README-scale campaign in
# process (median of 8 alternating best-of-3 runs) took 0.413 s wall with
# no head, and 0.371 / 0.337 / 0.349 s with heads of 2 / 3 / 4 tiles.
# There covers reads 4.7 tiles a replicate on average, and 95 of 200
# replicates stop after two, so a 3-tile head draws about half a tile a
# replicate that is never read.
HEAD_SIMS = 3 * SIM_BLOCK


def _scaled_factor(cov: CovarianceEstimate) -> tuple[np.ndarray, np.ndarray]:
    """(F / sigma[:, None], sigma) with F F' = C'C, C = cov.rows, and
    sigma = sqrt(cov.variance), the square root of the diagonal of C'C.

    F is the lower Cholesky factor of C'C (D x D) when that exists, else
    R' (D x min(rows, D)) from the thin QR of C: R'R = C'C of any rank
    (Golub & Van Loan, Matrix Computations, section 5.2).  The variance is
    finite (CovarianceEstimate refuses it otherwise), and it bounds every
    entry of C'C.
    """
    if np.any(cov.variance <= 0.0):
        worst = int(np.argmin(cov.variance))
        raise DegenerateVarianceError(
            f"estimated variance is not strictly positive at grid index "
            f"{worst} (value {cov.variance[worst]:g}); no band can be built"
        )
    try:
        factor = np.linalg.cholesky(cov.matrix)
    except np.linalg.LinAlgError:
        factor = np.linalg.qr(cov.rows, mode="r").T
    sigma = np.sqrt(cov.variance)
    return factor / sigma[:, None], sigma


def _tile_sups(scaled_factor: np.ndarray, z: np.ndarray, out: np.ndarray,
               product: np.ndarray) -> np.ndarray:
    """out[i] = max_t |(F z_i)(t)| / sigma(t) for the rows z_i of one tile,
    with scaled_factor = F / sigma[:, None] (D x r), z of width r and
    product a reused buffer of at least D * len(z) floats.

    The band and covers both send their SIM_BLOCK tiles of one stream
    through this product, so they get the same sups bit for bit; these
    equal the sups of one rng.standard_normal((n_sims, r)) draw
    (oracle.one_shot_sup_sample) up to rounding.
    """
    d = scaled_factor.shape[0]
    p = product[: d * len(z)].reshape(d, len(z))
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
    """The band's n_sims sups, from SIM_BLOCK tiles of one stream of
    r-wide normals drawn on a helper thread (linalg.normal_blocks)."""
    d, r = scaled_factor.shape
    sups, product = np.empty(n_sims), np.empty(min(SIM_BLOCK, n_sims) * d)
    with closing(normal_blocks(rng, n_sims, r, SIM_BLOCK)) as blocks:
        for lo, z in blocks:
            _tile_sups(scaled_factor, z, sups[lo:lo + len(z)], product)
    return sups


@_one_blas_thread()
def build_band(
    estimate: MeanEstimate,
    cov: CovarianceEstimate,
    alpha: float,
    n_sims: int = 10_000,
    seed=None,
) -> ConfidenceBand:
    """Simultaneous band around an estimated mean curve, built on one BLAS
    thread whatever the caller's count; deterministic given the seed.

    `cov` is the unscaled covariance estimate C'C; the half-width is
    c_alpha * sqrt(gamma_hat(t, t)) (module docstring).
    """
    _check_sims(alpha, n_sims)
    scaled_factor, sigma = _scaled_factor(cov)
    sups = _band_sups(scaled_factor, n_sims, np.random.default_rng(seed))
    k = _quantile_rank(alpha, n_sims)
    c_alpha = float(np.partition(sups, k - 1)[k - 1])
    half_width = c_alpha * sigma
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


def _coverage_threshold(deviation: np.ndarray, sigma: np.ndarray) -> float:
    """The smallest float s >= 0 with P(s) = all(deviation <= s * sigma),
    or inf when no finite s satisfies P (e.g. a NaN or infinite
    deviation).

    P is monotone in s (see covers), so the floats satisfying it are those
    from this threshold up.  The search starts at max(deviation / sigma),
    which is exact or an ulp off, and walks the floats in bit order
    (non-negative floats order as their bit patterns), doubling its step
    until P changes and then bisecting, so a far start (an overflow) costs
    a few dozen evaluations, not a walk.
    """

    def holds(bits: int) -> bool:
        s = np.int64(bits).view(np.float64)
        return bool(np.all(deviation <= s * sigma))

    inf = int(np.float64(np.inf).view(np.int64))
    with np.errstate(over="ignore"):
        if not holds(inf):
            return np.inf
        start = float(np.max(deviation / sigma))
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
    alpha: float,
    n_sims: int,
    seed,
    truth: np.ndarray,
    head: np.ndarray | None = None,
) -> bool:
    """contains(build_band(estimate, cov, alpha, n_sims, seed), truth),
    drawing simulations only until the answer is settled.

    Same checks and errors as that pair.  Why stopping early is exact: let
    P(s) = all(|truth - center| <= s * sigma), the float expression of
    build_band's half-width and of contains' test.  IEEE multiplication by
    a positive number is monotone, so P is monotone in s: a sup satisfies
    it iff it is at least the threshold s* of _coverage_threshold, one
    scalar per band.  The band covers truth iff P(c_alpha), with c_alpha
    the k-th smallest of the n_sims sups, k = ceil((1 - alpha) * n_sims).
    By monotonicity that holds iff at least n_sims - k + 1 sups reach s*,
    and fails iff at least k sups fall short.  covers draws the band's
    tiles of the band's stream, so its sups are the band's, and stops at
    the first tile that reaches either count (a sequential Monte Carlo
    test, Besag & Clifford 1991).

    `head`, when given, is the start of that stream drawn ahead as one flat
    array of any length, and `seed` is a Generator positioned just after
    it: the first tiles are read from the head, a tile that runs past its
    end is completed from the Generator, and later tiles are drawn from the
    Generator on the calling thread.  A tile of m sims reads m * r normals
    of the stream in order either way, so the sups are the same.
    """
    _check_sims(alpha, n_sims)
    scaled_factor, sigma = _scaled_factor(cov)
    center = np.asarray(estimate.curve, dtype=float)
    deviation = np.abs(_truth_array(truth, center) - center)
    threshold = _coverage_threshold(deviation, sigma)
    k = _quantile_rank(alpha, n_sims)
    need_in = n_sims - k + 1  # sups reaching s* that make the band cover
    # allocated before any draw, so an n_sims beyond memory fails at once
    d, r = scaled_factor.shape
    tile_sims = min(SIM_BLOCK, n_sims)
    draws, product = np.empty(tile_sims * r), np.empty(tile_sims * d)
    sups = np.empty(n_sims)
    rng = np.random.default_rng(seed)
    head = np.empty(0) if head is None else head
    inside = 0
    for lo in range(0, n_sims, SIM_BLOCK):
        m = min(SIM_BLOCK, n_sims - lo)
        start, stop = lo * r, (lo + m) * r
        if stop <= head.size:
            z = head[start:stop]
        else:
            z, taken = draws[: stop - start], head[start:]
            z[:taken.size] = taken
            rng.standard_normal(out=z[taken.size:])
        tile = _tile_sups(scaled_factor, z.reshape(m, r), sups[lo:lo + m],
                          product)
        inside += int(np.count_nonzero(tile >= threshold))
        if inside >= need_in or lo + m - inside >= k:
            break
    return inside >= need_in
