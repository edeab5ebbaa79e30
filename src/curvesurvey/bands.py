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

A simulation is one D-wide row of standard normals, of which a D x r
factor reads the first r columns; every row's sup comes out of the same
SIM_BLOCK-wide product, so (on the BLAS measured, see _tile_sups) it does
not depend on where the row is read.
covers decides whether the band on a given (n_sims, D) matrix of such
rows covers a curve, without c_alpha, and in any row order; a coverage
campaign (``montecarlo``) gives every replicate's covers one shared
matrix, largest norm first, and a block's stack of estimates in one
call, which forms the block's Gram matrices in one product and factors
each band on its own.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from math import ceil

import numpy as np

from .covariance import CovarianceEstimate
from .designs import _integer
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

def _factor(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """F with F F' = C'C: the lower Cholesky factor of matrix = C'C (D x D)
    when that exists, else R' (D x min(rows, D)) from the thin QR of
    C = rows: R'R = C'C of any rank (Golub & Van Loan, Matrix Computations,
    section 5.2)."""
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return np.linalg.qr(rows, mode="r").T


def _check_variance(variance: np.ndarray) -> None:
    if np.any(variance <= 0.0):
        worst = int(np.argmin(variance))
        raise DegenerateVarianceError(
            f"estimated variance is not strictly positive at grid index "
            f"{worst} (value {variance[worst]:g}); no band can be built"
        )


def _scaled_factor(cov: CovarianceEstimate) -> tuple[np.ndarray, np.ndarray]:
    """(F / sigma[:, None], sigma) with F = _factor(C'C, C), C = cov.rows,
    and sigma = sqrt(cov.variance), the square root of the diagonal of C'C.
    The variance is finite (CovarianceEstimate refuses it otherwise), and
    it bounds every entry of C'C.
    """
    _check_variance(cov.variance)
    sigma = np.sqrt(cov.variance)
    return _factor(cov.matrix, cov.rows) / sigma[:, None], sigma


def _empty(shape, what: str) -> np.ndarray:
    """np.empty(shape); a size numpy cannot even express raises the
    MemoryError of a size beyond memory, naming `what`."""
    try:
        return np.empty(shape)
    except ValueError as exc:
        raise MemoryError(f"{what}: {exc}") from None


def _tile_sups(scaled_factor: np.ndarray, z: np.ndarray, out: np.ndarray,
               product: np.ndarray) -> np.ndarray:
    """out[i] = max_t |(F z_i)(t)| / sigma(t) for the first r columns z_i
    of each row of one tile z of at most SIM_BLOCK rows, with
    scaled_factor = F / sigma[:, None] (D x r) and product a reused buffer
    of at least D * SIM_BLOCK floats.

    A shorter tile is padded to SIM_BLOCK rows, so every product has one
    shape, (D, r) by (r, SIM_BLOCK): BLAS may round a product of another
    width (a one-row product is a GEMV) differently.  Within that one
    shape, a row's sup did not depend on its place in the tile on the
    OpenBLAS measured (0.3.31, Haswell kernels, one thread), so the band
    and covers got the same sup from a row bit for bit, in whatever order
    they read the rows; BLAS does not promise this, and
    test_bands.TestRowOrder checks it on the BLAS in use.  These sups
    equal those of one rng.standard_normal((n_sims, D)) draw
    (oracle.one_shot_sup_sample) up to rounding.
    """
    d, r = scaled_factor.shape
    m = len(z)
    z = z[:, :r]
    if m < SIM_BLOCK:
        padded = np.zeros((SIM_BLOCK, r))
        padded[:m] = z
        z = padded
    p = product[: d * SIM_BLOCK].reshape(d, SIM_BLOCK)
    np.matmul(scaled_factor, z.T, out=p)
    np.abs(p, out=p)
    return p[:, :m].max(axis=0, out=out)


def _quantile_rank(alpha: float, n_sims: int) -> int:
    # conservative empirical quantile: order statistic ceil((1-alpha)*n_sims)
    return ceil((1.0 - alpha) * n_sims)


def _check_sims(alpha: float, n_sims: int) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    if _integer(n_sims, "n_sims") < 100:
        raise ValidationError("need at least 100 simulations")


def _band_sups(scaled_factor: np.ndarray, n_sims: int,
               rng: np.random.Generator) -> np.ndarray:
    """The band's n_sims sups, from SIM_BLOCK tiles of one stream of
    D-wide rows of normals drawn on a helper thread
    (linalg.normal_blocks).  A count numpy cannot size an array for fails
    as a MemoryError, before any draw."""
    d = scaled_factor.shape[0]
    sups = _empty(n_sims, f"{n_sims} band simulations")
    product = np.empty(SIM_BLOCK * d)
    with closing(normal_blocks(rng, n_sims, d, SIM_BLOCK)) as blocks:
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
    if truth.shape != center.shape[-1:]:
        raise ValidationError(
            f"truth has length {truth.size}, band has {center.shape[-1]}"
        )
    return truth


def contains(band: ConfidenceBand, truth: np.ndarray) -> bool:
    """True iff the band covers `truth` at every grid point (closed intervals)."""
    truth = _truth_array(truth, band.center)
    return bool(np.all(np.abs(truth - band.center) <= band.half_width))


def _covered(scaled_factor: np.ndarray, deviation: np.ndarray,
             sigma: np.ndarray, normals: np.ndarray, k: int) -> bool:
    """Whether at least n_sims - k + 1 of the sups s of the rows of normals
    satisfy P(s) = all(deviation <= s * sigma), reading SIM_BLOCK tiles in
    order until that count, or k sups short of it, is reached.

    P is monotone in s (see covers).  So when P fails at a and holds at b,
    the points start * (1 -+ 1e-9) around start = max(deviation / sigma),
    it fails at every sup <= a and holds at every sup >= b, and only a sup
    strictly between them needs P itself.  Where the bracket does not come
    out so (a NaN, infinite, zero or subnormal deviation), P is evaluated
    on every sup."""

    def holds(s: np.ndarray) -> np.ndarray:  # P at each of the scales s
        with np.errstate(over="ignore"):
            return np.all(deviation[:, None] <= s * sigma[:, None], axis=0)

    n_sims, d = normals.shape
    need_in = n_sims - k + 1  # sups satisfying P that make the band cover
    with np.errstate(over="ignore"):
        start = float((deviation / sigma).max())
    a, b = start * (1.0 - 1e-9), start * (1.0 + 1e-9)
    bracket = holds(np.array([a, b])).tolist() == [False, True]
    sups, product = np.empty(SIM_BLOCK), np.empty(SIM_BLOCK * d)
    inside = 0
    for lo in range(0, n_sims, SIM_BLOCK):
        z = normals[lo:lo + SIM_BLOCK]
        tile = _tile_sups(scaled_factor, z, sups[:len(z)], product)
        if bracket:
            held = np.count_nonzero(tile >= b)
            if np.count_nonzero(tile > a) > held:  # a sup in (a, b)
                held += np.count_nonzero(holds(tile[(a < tile) & (tile < b)]))
        else:
            held = np.count_nonzero(holds(tile))
        inside += held
        if inside >= need_in or lo + len(z) - inside >= k:
            break
    return inside >= need_in


@_one_blas_thread()  # as the band is built, whatever the caller's count
def covers(
    estimate: MeanEstimate,
    cov: CovarianceEstimate,
    alpha: float,
    normals: np.ndarray,
    truth: np.ndarray,
) -> bool | np.ndarray:
    """contains(build_band(estimate, cov, alpha, n_sims, seed), truth) for
    normals = default_rng(seed).standard_normal((n_sims, D)), or any row
    permutation of it, reading simulations only until the answer is
    settled; normals is not written.

    Same checks and errors as that pair.  Why stopping early is exact: let
    P(s) = all(|truth - center| <= s * sigma), the float expression of
    build_band's half-width and of contains' test.  IEEE multiplication by
    a positive number is monotone, so P is monotone in s.  The band covers
    truth iff P(c_alpha), with c_alpha the k-th smallest of the n_sims
    sups, k = ceil((1 - alpha) * n_sims).  By monotonicity that holds iff
    at least n_sims - k + 1 sups satisfy P, and fails iff at least k sups
    do not.  _covered settles most sups by two scales at which P was
    evaluated, one failing just below max(deviation / sigma) and one
    holding just above it, and evaluates P on any other sup.  covers reads
    the rows in SIM_BLOCK tiles and stops at the first tile that reaches
    either count (a sequential Monte Carlo test, Besag & Clifford 1991).

    A simulation is one row, whose first r columns a D x r factor reads
    (r = D, or fewer on the QR path), as the band reads the rows of its
    stream, and _tile_sups gives a row the same sup wherever it is read
    (on the BLAS measured; see _tile_sups).  So the sups are the band's
    bit for bit, and since a count does not depend on the order of the
    rows, neither does the flag.

    A block's stack, a (B, D) curve with a (B, rows, D) estimate, gives B
    flags in one call (np.int8: 1 covered, 0 not, -1 where a variance is
    not strictly positive and no band exists), each that of its item
    alone: the B Gram matrices come from one stacked product, which runs
    item by item along the leading axis, and each item is factored on its
    own by _factor, as a single band is.  A single band is a stack of one.
    """
    normals = np.asarray(normals, dtype=float)
    n_sims = len(normals)
    _check_sims(alpha, n_sims)
    center = np.asarray(estimate.curve, dtype=float)
    single = center.ndim == 1
    if single:  # the band's own error, in the band's order
        _check_variance(cov.variance)
    d = cov.variance.shape[-1]
    if normals.shape != (n_sims, d):
        raise ValidationError(f"band normals have shape {normals.shape}, "
                              f"not ({n_sims}, {d})")
    deviation = np.abs(_truth_array(truth, center) - center).reshape(-1, d)
    k = _quantile_rank(alpha, n_sims)
    sigma = np.sqrt(cov.variance).reshape(-1, d)
    matrices = cov.matrix.reshape(-1, d, d)
    rows = cov.rows.reshape(-1, *cov.rows.shape[-2:])
    flags = np.full(len(sigma), -1, dtype=np.int8)
    for j in np.flatnonzero(np.all(sigma > 0.0, axis=-1)):  # a band exists
        flags[j] = _covered(_factor(matrices[j], rows[j]) / sigma[j][:, None],
                            deviation[j], sigma[j], normals, k)
    return bool(flags[0]) if single else flags
