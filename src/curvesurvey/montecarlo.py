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
The band stays per replicate: covers reads replicate i's slice of the
block's curve and rows, with the stream replicate_rng(seed, i, 1).  A
block in which any estimate raises is re-run one replicate at a time, so
errors are counted and reported per replicate.

run_campaign runs the campaigns of every sample size of a command in one
call: one task list of (size index, lo, hi) blocks spans all sizes, and
at most one pool runs it, its initializer receiving every size's campaign
once.  The serial path walks the same list.  The call seeds the streams
once, for every size: designs.ReplicateStreams computes the PCG64 seed
words of every replicate_rng(seed, i, j) in one vectorized pass, 32 bytes
a stream, which the pool's initializer sends with the campaigns.  A block
then restates one Generator, the call's own or its pool worker's copy, to
each replicate's stream in turn; the streams, and so the reports, are
replicate_rng's bit for bit.  Each size's report is reduced as soon as its
last block's result arrives, in the order of the sizes.

A serial coverage campaign also draws ahead: one helper thread
(_band_heads, on linalg.prefetch) draws the head of each replicate's band
stream, the first min(HEAD_SIMS, sims) * D normals, up to HEADS_AHEAD
replicates ahead of the band under way, with Generators of its own.  covers
reads its first tiles from the head and draws the rest itself, so its sups
are those of the whole stream, and the helper is joined before
run_campaign returns or raises.  A pool runs no helper: every core already
runs a worker, and no thread may be alive when the pool forks.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .bands import HEAD_SIMS, _check_sims, covers
from .covariance import CovarianceEstimate, ht_covariance_estimate
from .designs import ReplicateStreams, SamplingDesign, draw
from .errors import CurveSurveyError, NumericalError, ValidationError
from .estimators import ESTIMATORS, MeanEstimate
from .grids import FunctionalPopulation, population_mean
from .linalg import _one_blas_thread, _set_blas_threads, prefetch


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
    coverage: bool
    alpha: float
    sims: int
    truth: np.ndarray


# Band-stream heads that a serial coverage campaign's helper thread may
# hold drawn ahead of the band under way (_band_heads).  In the measurement
# of bands.HEAD_SIMS, one head ahead took 0.397 s and three 0.362 s,
# against 0.337 s for two.
HEADS_AHEAD = 2


def _band_heads(c: _Campaign, tasks):
    """The heads of the band streams that a serial campaign's covers calls
    read, in task order: (i, head, rng) per replicate i, with head the first
    min(HEAD_SIMS, c.sims) * D normals of stream (i, 1), drawn as one flat
    draw on one helper thread (linalg.prefetch), and rng a Generator just
    after them.  The head and rng are valid until the next head is asked
    for.  Each of the HEADS_AHEAD + 1 buffers, allocated here, holds its
    own Generator, so the helper and the caller never share one.  Without
    coverage there is nothing to draw, and no helper ever starts."""
    replicates = ([i for _, lo, hi in tasks for i in range(lo, hi)]
                  if c.coverage else [])
    slots = [(np.empty(min(HEAD_SIMS, c.sims) * c.truth.size),
              np.random.Generator(np.random.PCG64(0)))
             for _ in range(HEADS_AHEAD + 1 if replicates else 0)]

    def fill(i, slot):
        head, rng = slot
        c.streams.rng(i, 1, rng).standard_normal(out=head)
        return i, head, rng

    return prefetch(fill, replicates, slots)


def _band_stream(c: _Campaign, i: int, heads):
    """(rng, head) for replicate i's covers: with heads (_band_heads), the
    next head of replicate i, passing over those of replicates whose
    estimate failed (a head depends on i alone, not on the size); else the
    whole stream (i, 1) and no head."""
    if heads is None:
        return c.streams.rng(i, 1), None
    return next((rng, head) for j, head, rng in heads if j == i)


def _block(c: _Campaign, lo: int, hi: int, heads=None):
    """(curves, variances, flags, []) of replicates lo..hi-1, run as one
    stack; raises the CurveSurveyError of any replicate's estimate.  flags
    holds 1 where a replicate's band covers the truth, 0 where it misses
    and -1 where no band was built (coverage off, or the band failed).
    heads, when given, are the prefetched band-stream heads
    (_band_heads)."""
    replicates = range(lo, hi)
    sample = draw(c.design, (c.streams.rng(i, 0) for i in replicates))
    estimate = ESTIMATORS[c.estimator](c.pop, sample, c.a)
    gamma = ht_covariance_estimate(c.pop, sample, estimate=estimate)
    flags = np.full(len(replicates), -1, dtype=np.int8)
    for j, i in enumerate(replicates if c.coverage else ()):
        rng, head = _band_stream(c, i, heads)
        try:
            flags[j] = covers(
                MeanEstimate(estimate.curve[j], estimate.estimator_kind),
                CovarianceEstimate(gamma.rows[j]), alpha=c.alpha,
                n_sims=c.sims, seed=rng, truth=c.truth, head=head)
        except CurveSurveyError:
            pass  # counted as an error, its estimate kept
    return estimate.curve, gamma.variance, flags, []


def _concat(parts):
    """The results of consecutive replicate blocks as one result."""
    curves, variances, flags, errors = zip(*parts)
    return (np.concatenate(curves), np.concatenate(variances),
            np.concatenate(flags), sum(errors, []))


def _solo(c: _Campaign, i: int, heads=None):
    """Replicate i as a block of one; when its estimate fails, no curve and
    the error message."""
    try:
        return _block(c, i, i + 1, heads)
    except CurveSurveyError as exc:
        empty = np.empty((0, c.truth.size))
        return empty, empty, np.empty(0, dtype=np.int8), [str(exc)]


def _run_replicate(campaign: _Campaign, lo: int, hi: int, heads=None):
    """(curves, variances, flags, errors) of replicates lo..hi-1: curves and
    variances (k, D) and flags (k,) of the k replicates whose estimate
    succeeded, in replicate order, and the messages of those that failed.

    The block runs as one stack; when any of its estimates raises
    CurveSurveyError it is re-run one replicate at a time, so every failure
    is counted and reported as that replicate's own, as for blocks of one.
    heads, when given, are the prefetched band-stream heads (_band_heads).
    """
    if hi - lo > 1:
        try:
            return _block(campaign, lo, hi, heads)
        except CurveSurveyError:
            pass
    return _concat([_solo(campaign, i, heads) for i in range(lo, hi)])


_WORKER_CAMPAIGNS: tuple[_Campaign, ...] = ()


def _start_worker(campaigns: tuple[_Campaign, ...]) -> None:
    """Pool initializer: keep every size's campaign, run BLAS on one thread
    for good."""
    global _WORKER_CAMPAIGNS
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
    per replicate, so a size's report does not depend on the other sizes)."""
    if estimator not in ESTIMATORS:
        raise ValidationError(f"estimator must be one of "
                              f"{', '.join(ESTIMATORS)}, not {estimator!r}")
    if replicates < 2:
        raise ValidationError("need at least 2 replicates")
    if workers < 1:
        raise ValidationError("workers must be >= 1")
    if compute_coverage:
        _check_sims(alpha, band_sims)
    streams = ReplicateStreams(master_seed, replicates,
                               2 if compute_coverage else 1)
    truth = population_mean(pop)
    campaigns = tuple(_Campaign(pop, design, estimator, a, streams,
                                compute_coverage, alpha, band_sims, truth)
                      for design in designs)
    tasks = []  # (campaign index, lo, hi), one per block, in report order
    for k, c in enumerate(campaigns):
        size = block_size(c.design.n, pop.grid.size)
        tasks += [(k, lo, min(lo + size, replicates))
                  for lo in range(0, replicates, size)]
    workers = min(workers, len(tasks))  # a fork pool starts every worker at once
    if workers <= 1:
        heads = _band_heads(campaigns[0], tasks)  # every size reads stream i
        with _one_blas_thread(), closing(heads):
            return _reports(campaigns, tasks, replicates, (
                _run_replicate(campaigns[k], lo, hi, heads)
                for k, lo, hi in tasks))
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
    if c.coverage:
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
