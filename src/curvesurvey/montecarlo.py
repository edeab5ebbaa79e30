"""Replicated-sampling evaluation harness.

Draws many independent samples, re-estimates the mean curve and its
covariance on each, and summarizes variance-estimation accuracy (relative
error, RMSE split into squared relative bias plus a variance term) and,
optionally, simultaneous band coverage.
"""

from __future__ import annotations

import ctypes
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bands import build_band, contains
from .covariance import CAMPAIGN_ESTIMATORS, ESTIMATORS, CovarianceEstimate
from .designs import SamplingDesign, draw, replicate_rng
from .errors import CurveSurveyError, NumericalError, ValidationError
from .grids import FunctionalPopulation, population_mean


@dataclass(frozen=True, eq=False)
class MonteCarloReport:
    """Summary of one campaign at a fixed sample size."""

    n: int
    replicates: int
    gamma_emp: CovarianceEstimate
    rmse: float
    rb_squared: float
    vr: float
    er_quantiles: dict
    coverage: float | None
    n_errors: int
    seed: int
    mean_curve: np.ndarray  # average of replicate estimates
    mean_gamma_diag: np.ndarray


def empirical_covariance(estimates: np.ndarray) -> CovarianceEstimate:
    """Cross-product covariance of replicate mean curves, normalized by 1/I."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[0] < 2:
        raise ValidationError("need at least 2 replicate curves")
    centered = estimates - estimates.mean(axis=0)
    matrix = centered.T @ centered / estimates.shape[0]
    return CovarianceEstimate(matrix=0.5 * (matrix + matrix.T), kind="empirical")


def relative_error(
    estimated: CovarianceEstimate | np.ndarray,
    reference: CovarianceEstimate | np.ndarray,
) -> float:
    """Mean squared relative deviation of the variance (diagonal) curves."""
    est = np.diag(estimated.matrix) if isinstance(estimated, CovarianceEstimate) else np.asarray(estimated, dtype=float)
    ref = np.diag(reference.matrix) if isinstance(reference, CovarianceEstimate) else np.asarray(reference, dtype=float)
    if est.shape != ref.shape:
        raise ValidationError("variance curves must share the grid")
    if np.any(ref <= 0.0):
        raise ValidationError("reference variance must be strictly positive")
    return float(np.mean(((est - ref) / ref) ** 2))


def _run_replicate(args):
    (pop, design, estimator, a, master_seed, i, compute_coverage, alpha,
     band_sims, truth) = args
    rng = replicate_rng(master_seed, i, 0)
    sample = draw(design, rng)
    mean, covariance = ESTIMATORS[estimator]
    try:
        estimate = mean(pop, sample, a)
        gamma = covariance(pop, sample, a, estimate.curve)
    except CurveSurveyError as exc:
        return i, None, None, None, str(exc)
    covered = None
    if compute_coverage:
        try:
            band = build_band(
                estimate,
                gamma,
                n=design.n,
                alpha=alpha,
                n_sims=band_sims,
                seed=replicate_rng(master_seed, i, 1),
            )
            covered = contains(band, truth)
        except CurveSurveyError as exc:
            return i, estimate.curve, np.diag(gamma.matrix).copy(), None, str(exc)
    return i, estimate.curve, np.diag(gamma.matrix).copy(), covered, None


def _openblas_entry(name: str):
    """OpenBLAS function `name` (e.g. "set_num_threads") of the library
    loaded in this process, or None when no OpenBLAS is loaded.

    The library is found in the process's memory map; its symbols carry
    the "scipy_" prefix and "64_" suffix in numpy's wheels.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in fh)
                if len(fields) == 6 and "openblas" in fields[5].lower()
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"{prefix}openblas_{name}{suffix}"
                       for prefix in ("scipy_", "") for suffix in ("64_", "")):
            func = getattr(lib, symbol, None)
            if func is not None:
                return func
    return None


def _single_blas_thread() -> None:
    """Pool initializer: one BLAS thread per worker.

    Workers times the default BLAS threads oversubscribe the cores, and
    the band kernel's many small matrix products run slower, not faster,
    when they do.  Without an OpenBLAS the worker is left as it is.
    """
    set_threads = _openblas_entry("set_num_threads")
    if set_threads is not None:
        set_threads.argtypes = [ctypes.c_int]
        set_threads.restype = None
        set_threads(1)


def run_campaign(
    pop: FunctionalPopulation,
    design: SamplingDesign,
    replicates: int,
    estimator: str = "ma",
    a: float | None = 0.0,
    compute_coverage: bool = False,
    alpha: float = 0.05,
    band_sims: int = 5000,
    master_seed: int = 0,
    workers: int = 1,
) -> MonteCarloReport:
    """Full replication campaign; deterministic given master_seed, and
    independent of the worker count (streams are keyed per replicate)."""
    if estimator not in CAMPAIGN_ESTIMATORS:
        raise ValidationError(f"campaigns support estimators "
                              f"{', '.join(CAMPAIGN_ESTIMATORS)}, not {estimator!r}")
    if replicates < 2:
        raise ValidationError("need at least 2 replicates")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    truth = population_mean(pop)
    tasks = [
        (pop, design, estimator, a, master_seed, i, compute_coverage, alpha,
         band_sims, truth)
        for i in range(replicates)
    ]
    if workers == 1:
        results = [_run_replicate(t) for t in tasks]
    else:
        chunksize = max(1, replicates // (workers * 4))
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_single_blas_thread
        ) as pool:
            results = list(pool.map(_run_replicate, tasks, chunksize=chunksize))
    results.sort(key=lambda r: r[0])

    mus, gdiags, covers, failures = [], [], [], 0
    for _, mu, gdiag, covered, err in results:
        if mu is None or gdiag is None:
            failures += 1
            continue
        mus.append(mu)
        gdiags.append(gdiag)
        covers.append(covered)
        if err is not None:
            failures += 1  # estimate succeeded but the band step failed
    if len(mus) < 2:
        raise NumericalError(
            f"only {len(mus)} of {replicates} replicates produced estimates"
        )
    mus = np.asarray(mus)
    gdiags = np.asarray(gdiags)
    gamma_emp = empirical_covariance(mus)
    emp_diag = np.diag(gamma_emp.matrix)
    mean_gdiag = gdiags.mean(axis=0)

    quantile_keys = ("q5", "q25", "median", "q75", "q95")
    if np.any(emp_diag <= 0.0):
        # degenerate campaign (e.g. census design): no relative errors exist
        failures = replicates
        rmse = rb2 = vr = 0.0
        quantiles = dict.fromkeys(quantile_keys, 0.0)
        coverage = None
    else:
        ers = np.mean(((gdiags - emp_diag) / emp_diag) ** 2, axis=1)
        rmse = float(ers.mean())
        rb2 = float(np.mean(((mean_gdiag - emp_diag) / emp_diag) ** 2))
        vr = rmse - rb2
        qs = np.quantile(ers, [0.05, 0.25, 0.5, 0.75, 0.95])
        quantiles = dict(zip(quantile_keys, map(float, qs)))
        coverage = None
        if compute_coverage:
            flags = [c for c in covers if c is not None]
            coverage = float(np.mean(flags)) if flags else None
    return MonteCarloReport(
        n=design.n,
        replicates=replicates,
        gamma_emp=gamma_emp,
        rmse=rmse,
        rb_squared=rb2,
        vr=vr,
        er_quantiles=quantiles,
        coverage=coverage,
        n_errors=failures,
        seed=master_seed,
        mean_curve=mus.mean(axis=0),
        mean_gamma_diag=mean_gdiag,
    )


def integrated_mse(estimates: np.ndarray, truth: np.ndarray) -> float:
    """Replicate-and-grid averaged squared estimation error."""
    estimates = np.asarray(estimates, dtype=float)
    return float(np.mean((estimates - truth[None, :]) ** 2))


def replicate_estimates(
    pop: FunctionalPopulation,
    design: SamplingDesign,
    replicates: int,
    estimator: str = "ma",
    a: float | None = 0.0,
    master_seed: int = 0,
) -> np.ndarray:
    """Replicate mean-curve estimates only (no variance estimation), (I, D)."""
    if estimator not in ESTIMATORS:
        raise ValidationError(f"unknown estimator {estimator!r}")
    mean, _ = ESTIMATORS[estimator]
    out = np.empty((replicates, pop.grid.size))
    for i in range(replicates):
        rng = replicate_rng(master_seed, i, 0)
        sample = draw(design, rng)
        out[i] = mean(pop, sample, a).curve
    return out
