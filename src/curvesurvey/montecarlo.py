"""Replicated-sampling evaluation harness.

Draws many independent samples, re-estimates the mean curve and its
covariance on each, and summarizes variance-estimation accuracy (relative
error, RMSE split into squared relative bias plus a variance term) and,
optionally, simultaneous band coverage.

Replicates run in blocks of B = max(1, BLOCK_FLOATS // (n * D))
consecutive indices, so each stacked (B, n, D) array of a block holds at
most BLOCK_FLOATS floats.  Replicate i draws its sample from its own
stream replicate_rng(seed, i, 0); the block's B index rows form one
(B, n) Sample, validated once, and the estimator and the covariance run
once on the whole stack, through the same functions as a single sample.
The band is per replicate too, and one call for the block: covers takes
the block's (B, D) curve and (B, n, D) covariance rows, forms their B
Gram matrices in one product, factors each band on its own and gives B
flags, -1 for an item with no band (a variance not strictly positive).
A block in which any estimate raises is re-run one replicate at a time,
so errors are counted and reported per replicate.

Every band of a call reads one read-only (sims, D) matrix of standard
normals, drawn once from replicate_rng(seed, 1) and stored largest norm
first (_band_normals), so a flag is that of the band built on the matrix.
Each flag keeps its law; only the flags' joint law changes, as common
random numbers do (Glasserman, Monte Carlo Methods in Financial
Engineering, 2003).  The row order moves no flag (covers counts sups, and
a row's sup does not depend on where it is read), but large rows tend to
give large sups, which settle a covered band in fewer tiles.

run_campaign runs the campaigns of every sample size of a command in one
call: one task list of (size index, lo, hi) blocks spans all sizes, and
at most one pool runs it, its initializer receiving every size's campaign
once, and with them the band matrix, which they share.  The serial path
walks the same list.  The call seeds the streams once, for every size:
designs.ReplicateStreams computes the PCG64 seed words of every
replicate_rng(seed, i, 0) in one vectorized pass, 32 bytes a replicate.
A block then restates one Generator, the call's own or its pool worker's
copy, to each replicate's stream in turn; the streams, and so the
reports, are replicate_rng's bit for bit.  Each size's report is reduced
as soon as its last block's result arrives, in the order of the sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bands import _check_sims, _empty, covers
from .covariance import CovarianceEstimate, ht_covariance_estimate
from .designs import (ReplicateStreams, SamplingDesign, _integer, draw,
                      replicate_rng)
from .errors import CurveSurveyError, NumericalError, ValidationError
from .estimators import ESTIMATORS, _check_floor, _check_match
from .grids import FunctionalPopulation, population_mean
from .linalg import _one_blas_thread, _set_blas_threads


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
    coverage_bands: int  # bands the coverage rate averages; 0 without it
    n_errors: int
    mean_curve: np.ndarray  # average of replicate estimates
    mean_gamma_diag: np.ndarray


def empirical_covariance(estimates: np.ndarray) -> CovarianceEstimate:
    """Cross-product covariance of replicate mean curves, normalized by 1/I:
    the Gram matrix of the rows (estimate - mean) / sqrt(I)."""
    estimates = np.asarray(estimates, dtype=float)
    if estimates.ndim != 2 or estimates.shape[0] < 2:
        raise ValidationError("need at least 2 replicate curves")
    rows = (estimates - estimates.mean(axis=0)) / np.sqrt(estimates.shape[0])
    return CovarianceEstimate(rows)


# Floats in each stacked (B, n, D) array of a replicate block: a campaign
# runs B = max(1, BLOCK_FLOATS // (n * D)) replicates per block, so a
# block's temporaries stay near 1 MB; at the load-curve scale
# (n * D = 672 000) blocks hold one replicate.  Measured on a 2-core Xeon
# at one BLAS thread, CPU time of three 1000-replicate Hajek campaigns at
# N = 2000, D = 48, n = 50 / 100 / 300: blocks of one replicate 0.64 s,
# 2**14 floats 0.45-0.49 s, 2**15 (B = 13 / 6 / 2) 0.37-0.43 s and 2**16
# 0.33-0.38 s, for twice the memory.
BLOCK_FLOATS = 2**15


def block_size(n: int, d: int) -> int:
    """Replicates per block of a campaign drawing n units on D points."""
    return max(1, BLOCK_FLOATS // (n * d))


@dataclass(frozen=True, eq=False)
class _Campaign:
    """What every replicate of one campaign reads; sent to each pool worker
    once, through its initializer."""

    pop: FunctionalPopulation
    design: SamplingDesign
    estimator: str
    a: float | None
    streams: ReplicateStreams  # the call's own, shared by all its sizes
    alpha: float
    normals: np.ndarray | None  # the call's band normals; None: no coverage
    truth: np.ndarray


def _band_normals(master_seed: int, sims: int, d: int) -> np.ndarray:
    """The read-only (sims, D) standard normals of every band of a call:
    the rows of replicate_rng(master_seed, 1).standard_normal((sims, d)),
    in non-increasing order of their squared norms, rows of equal norm in
    the order drawn.

    numpy reads a spawn key as 32-bit words, so the key is one word, (1,):
    every replicate key (i, 0) is two, and the population's empty key none.
    (2**32,) would be the words (0, 1), the stream of the bands command's
    band.  The buffer is allocated before any draw, so a size beyond
    memory fails at once, as a MemoryError."""
    normals = _empty((sims, d), f"{sims} band simulations of {d} points")
    replicate_rng(master_seed, 1).standard_normal(out=normals)
    norms = np.einsum("ij,ij->i", normals, normals)
    normals = normals[np.argsort(-norms, kind="stable")]
    normals.setflags(write=False)
    return normals


def _block(c: _Campaign, lo: int, hi: int):
    """(curves, variances, flags, []) of replicates lo..hi-1, run as one
    stack; raises the CurveSurveyError of any replicate's estimate.  flags
    holds 1 where a replicate's band covers the truth, 0 where it misses
    and -1 where no band was built (coverage off, or the band failed)."""
    replicates = range(lo, hi)
    sample = draw(c.design, (c.streams.rng(i) for i in replicates))
    estimate = ESTIMATORS[c.estimator](c.pop, sample, c.a)
    gamma = ht_covariance_estimate(c.pop, sample, estimate=estimate)
    flags = np.full(len(replicates), -1, dtype=np.int8)
    if c.normals is not None:
        try:
            flags = covers(estimate, gamma, c.alpha, normals=c.normals,
                           truth=c.truth)
        except CurveSurveyError:
            pass  # no band built; flags stay -1, the estimates are kept
    return estimate.curve, gamma.variance, flags, []


def _concat(parts):
    """The results of consecutive replicate blocks as one result."""
    curves, variances, flags, errors = zip(*parts)
    return (np.concatenate(curves), np.concatenate(variances),
            np.concatenate(flags), sum(errors, []))


def _solo(c: _Campaign, i: int):
    """Replicate i as a block of one; when its estimate fails, no curve and
    the error message."""
    try:
        return _block(c, i, i + 1)
    except CurveSurveyError as exc:
        empty = np.empty((0, c.truth.size))
        return empty, empty, np.empty(0, dtype=np.int8), [str(exc)]


def _run_replicate(campaign: _Campaign, lo: int, hi: int):
    """(curves, variances, flags, errors) of replicates lo..hi-1: curves and
    variances (k, D) and flags (k,) of the k replicates whose estimate
    succeeded, in replicate order, and the messages of those that failed.

    The block runs as one stack; when any of its estimates raises
    CurveSurveyError it is re-run one replicate at a time, so every failure
    is counted and reported as that replicate's own, as for blocks of one.
    """
    if hi - lo > 1:
        try:
            return _block(campaign, lo, hi)
        except CurveSurveyError:
            pass
    return _concat([_solo(campaign, i) for i in range(lo, hi)])


_WORKER_CAMPAIGNS: tuple[_Campaign, ...] = ()


def _start_worker(campaigns: tuple[_Campaign, ...]) -> None:
    """Pool initializer: keep every size's campaign, its truth, seed words
    and band normals read-only (a spawned worker unpickles writable
    copies), and run BLAS on one thread for good."""
    global _WORKER_CAMPAIGNS
    for c in campaigns:
        for array in (c.truth, c.streams.words, c.normals):
            if array is not None:
                array.setflags(write=False)
    _WORKER_CAMPAIGNS = campaigns
    _set_blas_threads(1)


def _worker_replicate(task: tuple[int, int, int]):
    k, lo, hi = task
    return _run_replicate(_WORKER_CAMPAIGNS[k], lo, hi)


def run_campaign(
    pop: FunctionalPopulation,
    designs: list[SamplingDesign],
    replicates: int,
    estimator: str = "ma",
    a: float | None = 0.0,
    compute_coverage: bool = False,
    alpha: float = 0.05,
    band_sims: int = 5000,
    master_seed: int = 0,
    workers: int = 1,
) -> list[MonteCarloReport]:
    """One replication campaign per design (a sample size), all run through
    one task stream: one report per design, in order.  Deterministic given
    master_seed, and independent of the worker count (streams are keyed
    per replicate, and the band normals per call, so a size's report does
    not depend on the other sizes)."""
    if estimator not in ESTIMATORS:
        raise ValidationError(f"estimator must be one of "
                              f"{', '.join(ESTIMATORS)}, not {estimator!r}")
    if _integer(replicates, "replicates") < 2:
        raise ValidationError("need at least 2 replicates")
    if _integer(workers, "workers") < 1:
        raise ValidationError("workers must be >= 1")
    for design in designs:
        _check_match(pop, design)
    _check_floor(a)
    if compute_coverage:
        _check_sims(alpha, band_sims)
    streams = ReplicateStreams(master_seed, replicates)
    truth = population_mean(pop)
    truth.setflags(write=False)
    normals = (_band_normals(master_seed, band_sims, truth.size)
               if compute_coverage else None)
    campaigns = tuple(_Campaign(pop, design, estimator, a, streams, alpha,
                                normals, truth)
                      for design in designs)
    tasks = []  # (campaign index, lo, hi), one per block, in report order
    for k, c in enumerate(campaigns):
        size = block_size(c.design.n, pop.grid.size)
        tasks += [(k, lo, min(lo + size, replicates))
                  for lo in range(0, replicates, size)]
    workers = min(workers, len(tasks))  # a fork pool starts every worker at once
    if workers <= 1:
        with _one_blas_thread():
            return _reports(campaigns, tasks, replicates, (
                _run_replicate(campaigns[k], lo, hi) for k, lo, hi in tasks))
    # imported for a pool only: it loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # near one size's share, so few finished blocks wait to be reduced
    chunksize = max(1, len(tasks) // (workers * 4 * len(campaigns)))
    with ProcessPoolExecutor(max_workers=workers, initializer=_start_worker,
                             initargs=(campaigns,)) as pool:
        return _reports(campaigns, tasks, replicates,
                        pool.map(_worker_replicate, tasks, chunksize=chunksize))


def _reports(campaigns, tasks, replicates, results) -> list[MonteCarloReport]:
    """Each campaign's report, reduced as soon as its last block's result
    arrives; results come in task order."""
    reports, parts = [], []
    for (k, _, hi), result in zip(tasks, results):
        parts.append(result)
        if hi == replicates:
            # free the blocks before the report's temporaries exist, and
            # the stacked arrays before the next size's blocks arrive
            done, parts = _concat(parts), []
            reports.append(_report(campaigns[k], replicates, done))
            del done
    return reports


def _quantiles(values: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(values, q), numpy's 'linear' method step for step, without
    the numpy.ma import that a process's first np.quantile pays."""
    v = np.sort(values)
    index = (len(v) - 1) * q  # >= 0, so astype(int) is its floor
    k, t = index.astype(int), index - np.floor(index)
    lo, hi = v[k], v[np.minimum(k + 1, len(v) - 1)]
    return np.where(t < 0.5, lo + (hi - lo) * t, hi - (hi - lo) * (1 - t))


def _report(c: _Campaign, replicates: int, results) -> MonteCarloReport:
    """The summary of one campaign's replicate results, in replicate order."""
    mus, gdiags, flags, errors = results
    failures = len(errors)
    if c.normals is not None:
        failures += int(np.count_nonzero(flags < 0))  # estimate kept, band failed
    flags = flags[flags >= 0]  # one per band built
    if len(mus) < 2:
        raise NumericalError(
            f"only {len(mus)} of {replicates} replicates at n = {c.design.n} "
            f"produced estimates (first failure: {errors[0] if errors else None})"
        )
    gamma_emp = empirical_covariance(mus)
    emp_diag = gamma_emp.variance
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
        qs = _quantiles(ers, np.array([0.05, 0.25, 0.5, 0.75, 0.95]))
        quantiles = dict(zip(quantile_keys, map(float, qs)))
        coverage = float(np.mean(flags)) if flags.size else None
    return MonteCarloReport(
        n=c.design.n,
        replicates=replicates,
        gamma_emp=gamma_emp,
        rmse=rmse,
        rb_squared=rb2,
        vr=vr,
        er_quantiles=quantiles,
        coverage=coverage,
        coverage_bands=0 if coverage is None else len(flags),
        n_errors=failures,
        mean_curve=mus.mean(axis=0),
        mean_gamma_diag=mean_gdiag,
    )
