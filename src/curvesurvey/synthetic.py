"""Synthetic populations under a linear working model.

Curves follow Y_k(t_i) = x_k' beta(t_i) + s_k eps_k(t_i), with eps_k a
centered Gaussian vector whose covariance is a kernel evaluated on the grid
and s_k a unit scale (1 unless scale_sd is given).  The kernel and the aux
distribution are our own choices; the working model only requires centered,
continuous residuals.

One generator, `generate_population`, draws every population: the config's
(`study_population`), the trend script's (`heteroscedastic_study_population`)
and the oracle's (`oracle.default_fixture`).  Its draws, from one generator
seeded with `seed`, come in this order: (1) the n_units covariates z_k, if
any; (2) the (n_units, D) residual normals, GEN_BLOCK rows at a time, each
block multiplied by the kernel factor on one BLAS thread; (3) with scale_sd
only, the n_units unit-scale normals.  Every population's bits rest on that
order: a change to it changes every population and every output built on one.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grids import FunctionalPopulation, TimeGrid
from .linalg import _one_blas_thread, normal_blocks

KERNEL_KINDS = ("white", "exponential", "periodic_exponential")


@dataclass(frozen=True)
class ResidualKernel:
    """Covariance kernel of the residual process on the grid.

    kinds:
      white:                 sigma2 * 1{t == r}
      exponential:           sigma2 * exp(-|t - r| / length_scale)
      periodic_exponential:  sigma2 * (exp(-|t-r|/length_scale)
                             + cos(2*pi*(t-r)/period)) / 2
    """

    kind: str = "exponential"
    sigma2: float = 1.0
    length_scale: float = 0.2
    period: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ConfigurationError(f"unknown kernel kind {self.kind!r}")
        if self.sigma2 < 0:
            raise ConfigurationError("sigma2 must be >= 0")
        if self.kind != "white" and self.length_scale <= 0:
            raise ConfigurationError("length_scale must be > 0")
        if self.kind == "periodic_exponential" and self.period <= 0:
            raise ConfigurationError("period must be > 0")

    def matrix(self, grid: TimeGrid) -> np.ndarray:
        """Kernel evaluated at all grid-point pairs, (D, D) symmetric."""
        t = grid.points
        lag = np.abs(t[:, None] - t[None, :])
        if self.kind == "white":
            return self.sigma2 * np.eye(grid.size)
        if self.kind == "exponential":
            return self.sigma2 * np.exp(-lag / self.length_scale)
        base = np.exp(-lag / self.length_scale)
        periodic = np.cos(2.0 * np.pi * lag / self.period)
        return self.sigma2 * 0.5 * (base + periodic)


def _residual_factor(kernel: ResidualKernel, grid: TimeGrid) -> np.ndarray:
    """Factor F with F F' = kernel matrix, by eigendecomposition: eigenvalues
    down to -1e-8 * scale are clipped to 0, and one below that is refused."""
    mat = kernel.matrix(grid)
    w, v = np.linalg.eigh(mat)
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -1e-8 * scale:
        raise ConfigurationError(
            f"residual kernel is not PSD on the grid (eigenvalue {w.min():g})"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


GEN_BLOCK = 1024  # rows drawn at a time: the population is the one N x D array


def generate_population(
    n_units: int,
    grid: TimeGrid,
    beta_curves,
    kernel: ResidualKernel,
    seed: int = 0,
    aux_mean: float | None = None,
    scale_sd: float | None = None,
) -> FunctionalPopulation:
    """Draw a finite population of n_units curves from the working model.

    x_k = (1,) when aux_mean is None, else (1, z_k) with z_k ~ N(aux_mean, 1);
    beta_curves is the (p, D) matrix of their coefficient curves.  With
    scale_sd, s_k is lognormal(0, scale_sd^2), normalized so the average
    squared scale is 1.  Deterministic given seed, in the draw order of the
    module docstring, on one BLAS thread whatever the caller's count.
    """
    beta = np.asarray(beta_curves, dtype=float)
    p = 1 if aux_mean is None else 2
    if beta.shape != (p, grid.size) or not np.all(np.isfinite(beta)):
        raise ConfigurationError(f"beta_curves must be a finite ({p}, "
                                 f"{grid.size}) matrix, got shape {beta.shape}")
    if n_units < 1:
        raise ConfigurationError("need at least one unit")
    if scale_sd is not None and scale_sd < 0:
        raise ConfigurationError("scale_sd must be >= 0")
    rng = np.random.default_rng(seed)
    aux = np.ones((n_units, p))
    if aux_mean is not None:
        aux[:, 1] = rng.normal(aux_mean, 1.0, n_units)
    values = np.empty((n_units, grid.size))
    with _one_blas_thread():
        factor = _residual_factor(kernel, grid)
        # z @ factor.T, z one (n_units, D) draw
        with closing(normal_blocks(rng, n_units, grid.size, GEN_BLOCK)) as blocks:
            for lo, z in blocks:
                np.matmul(z, factor.T, out=values[lo:lo + len(z)])
        if scale_sd is not None:
            scales = np.exp(scale_sd * rng.standard_normal(n_units))
            scales /= np.sqrt(np.mean(scales**2))
            values *= scales[:, None]
        for lo in range(0, n_units, GEN_BLOCK):
            values[lo:lo + GEN_BLOCK] += aux[lo:lo + GEN_BLOCK] @ beta
    return FunctionalPopulation(grid=grid, values=values, aux=aux)


def _study_trend(n_points: int, t_max: float) -> tuple[TimeGrid, np.ndarray]:
    """Grid and (2, D) intercept and nearly flat slope of the study populations."""
    grid = TimeGrid(np.linspace(0.0, t_max, n_points))
    u = grid.points / t_max
    return grid, np.vstack([2.0 + np.sin(2.0 * np.pi * u),
                            1.5 + 0.1 * np.cos(2.0 * np.pi * u)])


def study_population(
    n_units: int,
    n_points: int,
    corr: float = 0.95,
    t_max: float = 1.0,
    kernel_kind: str = "exponential",
    length_scale: float = 0.2,
    seed: int = 0,
) -> FunctionalPopulation:
    """Convenience population with a tunable aux-response correlation.

    The slope curve is nearly flat, so the pointwise correlation between the
    scalar covariate (sd 1) and Y(t) stays close to `corr` across the grid.
    """
    if not 0.0 < corr < 1.0:
        raise ConfigurationError("corr must be in (0, 1)")
    grid, beta = _study_trend(n_points, t_max)
    slope = float(beta[1].mean())
    # corr**2 underflows to 0 below about 1e-154
    sigma2 = slope**2 * (1.0 / corr**2 - 1.0) if corr**2 > 0.0 else np.inf
    if not np.isfinite(sigma2):
        raise ConfigurationError(
            f"corr = {corr:g} is too small: the residual variance is not finite"
        )
    kernel = ResidualKernel(kind=kernel_kind, sigma2=sigma2, length_scale=length_scale)
    return generate_population(n_units, grid, beta, kernel, seed=seed, aux_mean=5.0)


def heteroscedastic_study_population(
    n_units: int,
    n_points: int,
    scale_sd: float = 0.75,
    sigma2: float = 0.25,
    length_scale: float = 0.2,
    t_max: float = 1.0,
    seed: int = 0,
) -> FunctionalPopulation:
    """Study population with unit-level residual scale heterogeneity.

    Residuals are eps_k(t) = s_k * eta_k(t) with eta_k a stationary Gaussian
    process and s_k lognormal(0, scale_sd^2), normalized so the average squared
    scale is 1.  The heavy-tailed unit scales mimic consumption-style data
    where a few units dominate dispersion, which makes variance estimates
    fluctuate much more across samples than any residual bias in them.
    """
    grid, beta = _study_trend(n_points, t_max)
    kernel = ResidualKernel("exponential", sigma2, length_scale)
    return generate_population(n_units, grid, beta, kernel, seed=seed,
                               aux_mean=5.0, scale_sd=scale_sd)
