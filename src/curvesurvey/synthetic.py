"""Synthetic population generator under a linear working model.

Curves follow Y_k(t_i) = x_k' beta(t_i) + eps_k(t_i), with eps_k a centered
Gaussian vector whose covariance is a kernel evaluated on the grid.  The
kernel and the auxiliary-variable distribution are our own choices; the
working model only requires centered, continuous residuals.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .grids import FunctionalPopulation, TimeGrid
from .linalg import _one_blas_thread, normal_blocks

KERNEL_KINDS = ("white", "exponential", "periodic_exponential")
AUX_KINDS = ("intercept_only", "gaussian", "past_mean")


@dataclass(frozen=True)
class ResidualKernel:
    """Covariance kernel of the residual process on the grid.

    kinds:
      white:                 sigma2 * 1{t == r}
      exponential:           sigma2 * exp(-|t - r| / length_scale)
      periodic_exponential:  sigma2 * (exp(-|t-r|/length_scale)
                             + cos(2*pi*(t-r)/period)) / 2, clipped to PSD
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
        """Kernel evaluated at all grid-point pairs, (D, D) symmetric PSD."""
        t = grid.points
        lag = np.abs(t[:, None] - t[None, :])
        if self.kind == "white":
            return self.sigma2 * np.eye(grid.size)
        if self.kind == "exponential":
            return self.sigma2 * np.exp(-lag / self.length_scale)
        base = np.exp(-lag / self.length_scale)
        periodic = np.cos(2.0 * np.pi * lag / self.period)
        return self.sigma2 * 0.5 * (base + periodic)


@dataclass(frozen=True)
class AuxSpec:
    """How unit-level auxiliary vectors x_k are generated.

    intercept_only: x_k = (1,), p = 1.
    gaussian:       x_k = (1, z_k), z_k ~ N(mean, sd^2).
    past_mean:      x_k = (1, z_k), z_k = time-mean of a "previous period"
                    curve z0_k + eps (same residual kernel), mimicking a
                    highly correlated past-consumption covariate.
    """

    kind: str = "past_mean"
    mean: float = 5.0
    sd: float = 1.0

    def __post_init__(self):
        if self.kind not in AUX_KINDS:
            raise ConfigurationError(f"unknown aux kind {self.kind!r}")
        if self.sd < 0:
            raise ConfigurationError("sd must be >= 0")

    @property
    def p(self) -> int:
        return 1 if self.kind == "intercept_only" else 2


@dataclass(frozen=True, eq=False)
class SuperpopulationConfig:
    """Full description of the synthetic model: beta curves (p, D) on the
    grid, residual kernel, auxiliary distribution, RNG seed."""

    beta_curves: np.ndarray
    kernel: ResidualKernel
    aux: AuxSpec
    seed: int = 0

    def __post_init__(self):
        beta = np.asarray(self.beta_curves, dtype=float)
        if beta.ndim != 2:
            raise ConfigurationError("beta_curves must be a (p, D) matrix")
        if beta.shape[0] != self.aux.p:
            raise ConfigurationError(
                f"beta_curves has {beta.shape[0]} rows but the aux spec "
                f"produces {self.aux.p} covariates"
            )
        if not np.all(np.isfinite(beta)):
            raise ConfigurationError("beta_curves must be finite")
        object.__setattr__(self, "beta_curves", beta)


def _residual_factor(kernel: ResidualKernel, grid: TimeGrid) -> np.ndarray:
    """Factor F with F F' = kernel matrix, via eigendecomposition with
    negative eigenvalues clipped (robust to numerically semidefinite kernels)."""
    mat = kernel.matrix(grid)
    w, v = np.linalg.eigh(mat)
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -1e-8 * scale:
        raise ConfigurationError(
            f"residual kernel is not PSD on the grid (eigenvalue {w.min():g})"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


GEN_BLOCK = 1024  # rows drawn at a time: the population is the one N x D array


def _draw_aux(spec: AuxSpec, factor, count, rng) -> np.ndarray:
    ones = np.ones(count)
    if spec.kind == "intercept_only":
        return ones[:, None]
    base = rng.normal(spec.mean, spec.sd, count)
    if spec.kind == "gaussian":
        return np.column_stack([ones, base])
    # the time-means of the past curves base + z @ factor.T, z one
    # (count, D) draw, formed GEN_BLOCK rows at a time
    past = np.empty(count)
    curves = np.empty((min(GEN_BLOCK, count), len(factor)))
    with closing(normal_blocks(rng, count, len(factor), GEN_BLOCK)) as blocks:
        for lo, z in blocks:
            rows = np.matmul(z, factor.T, out=curves[: len(z)])
            rows += base[lo:lo + len(z), None]
            rows.mean(axis=1, out=past[lo:lo + len(z)])
    return np.column_stack([ones, past])


def generate_population(
    cfg: SuperpopulationConfig, n_units: int, grid: TimeGrid
) -> FunctionalPopulation:
    """Draw a finite population of n_units curves from the working model.

    Deterministic given cfg.seed, on one BLAS thread whatever the caller's
    count; aux and residuals are independent across units.
    """
    if n_units < 1:
        raise ConfigurationError("need at least one unit")
    if cfg.beta_curves.shape[1] != grid.size:
        raise ConfigurationError(
            f"beta_curves has {cfg.beta_curves.shape[1]} columns, grid has "
            f"{grid.size} points"
        )
    rng = np.random.default_rng(cfg.seed)
    values = np.empty((n_units, grid.size))
    with _one_blas_thread():
        factor = _residual_factor(cfg.kernel, grid)
        aux = _draw_aux(cfg.aux, factor, n_units, rng)
        # aux @ beta + z @ factor.T, z one (n_units, D) draw
        with closing(normal_blocks(rng, n_units, grid.size, GEN_BLOCK)) as blocks:
            for lo, z in blocks:
                rows = np.matmul(z, factor.T, out=values[lo:lo + len(z)])
                rows += aux[lo:lo + len(z)] @ cfg.beta_curves
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
    scalar covariate and Y(t) stays close to `corr` across the grid.
    """
    if not 0.0 < corr < 1.0:
        raise ConfigurationError("corr must be in (0, 1)")
    grid, beta = _study_trend(n_points, t_max)
    sd_z = 1.0
    slope = float(beta[1].mean()) * sd_z
    # corr**2 underflows to 0 below about 1e-154
    sigma2 = slope**2 * (1.0 / corr**2 - 1.0) if corr**2 > 0.0 else np.inf
    if not np.isfinite(sigma2):
        raise ConfigurationError(
            f"corr = {corr:g} is too small: the residual variance is not finite"
        )
    cfg = SuperpopulationConfig(
        beta_curves=beta,
        kernel=ResidualKernel(
            kind=kernel_kind, sigma2=sigma2, length_scale=length_scale
        ),
        aux=AuxSpec(kind="gaussian", mean=5.0, sd=sd_z),
        seed=seed,
    )
    return generate_population(cfg, n_units, grid)


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
    if scale_sd < 0:
        raise ConfigurationError("scale_sd must be >= 0")
    rng = np.random.default_rng(seed)
    grid, beta = _study_trend(n_points, t_max)
    aux = np.column_stack([np.ones(n_units), rng.normal(5.0, 1.0, n_units)])
    kernel = ResidualKernel("exponential", sigma2, length_scale)
    values = np.empty((n_units, grid.size))
    with _one_blas_thread():
        factor = _residual_factor(kernel, grid)
        with closing(normal_blocks(rng, n_units, grid.size, GEN_BLOCK)) as blocks:
            for lo, z in blocks:
                np.matmul(z, factor.T, out=values[lo:lo + len(z)])
        scales = np.exp(scale_sd * rng.standard_normal(n_units))
        scales /= np.sqrt(np.mean(scales**2))
        values *= scales[:, None]
        for lo in range(0, n_units, GEN_BLOCK):
            values[lo:lo + GEN_BLOCK] += aux[lo:lo + GEN_BLOCK] @ beta
    return FunctionalPopulation(grid=grid, values=values, aux=aux)
