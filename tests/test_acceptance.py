"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s` or in the
captured-output section on failure) and asserts the stated tolerance.  The
statistical criteria use fixed seeds so the whole suite is deterministic.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
import pytest

from curvesurvey import (
    SamplingDesign,
    build_band,
    heteroscedastic_study_population,
    model_assisted_mean,
    run_campaign,
    study_population,
)
from curvesurvey.covariance import CovarianceEstimate
from curvesurvey.designs import draw
from curvesurvey.estimators import MeanEstimate, hajek_mean, ht_mean
from curvesurvey.grids import TimeGrid, population_mean
from curvesurvey.oracle import (
    calibrated_weights,
    difference_mean,
    enumerate_samples,
    ht_covariance_exact,
    ma_covariance_approx,
    regularized_inverse,
    spectral_norm_sym,
)
from curvesurvey.synthetic import ResidualKernel, generate_population


def _check(label: str, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}  {detail}".rstrip())
    assert ok, f"{label} failed ({detail})"


def _tiny_population(n_units: int, seed: int):
    """N <= 8 population with an intercept + one covariate, D = 4."""
    grid = TimeGrid(np.linspace(0.0, 1.0, 4))
    return generate_population(
        n_units, grid, np.vstack([1.0 + grid.points, 2.0 - 0.5 * grid.points]),
        ResidualKernel(kind="white", sigma2=0.5), seed=seed, aux_mean=5.0,
    )


SMALL_CONFIGS = [(4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (6, 4)]


@pytest.fixture(scope="module")
def small_fixtures():
    out = []
    for seed, (N, n) in enumerate(SMALL_CONFIGS):
        pop = _tiny_population(N, seed=seed + 1)
        design = SamplingDesign(N=N, n=n)
        out.append((pop, design, enumerate_samples(design)))
    return out


@pytest.fixture(scope="module")
def big_population():
    return study_population(2000, 48, corr=0.95, seed=100)


def test_criterion_01_exhaustive_unbiasedness(small_fixtures):
    start = time.perf_counter()
    worst = 0.0
    for pop, _, samples in small_fixtures:
        mu = population_mean(pop)
        for estimator in (ht_mean, difference_mean):
            expect = sum(p * estimator(pop, s).curve for s, p in samples)
            worst = max(worst, float(np.abs(expect - mu).max()))
    elapsed = time.perf_counter() - start
    _check(
        "C01 exhaustive-unbiasedness",
        worst <= 1e-12 and elapsed < 1.0,
        f"max dev {worst:.2e}, {elapsed:.2f}s over {len(small_fixtures)} designs",
    )


def test_criterion_02_covariance_formula_oracle(small_fixtures):
    worst = 0.0
    for pop, design, samples in small_fixtures:
        for formula, estimator in (
            (ht_covariance_exact, ht_mean),
            (ma_covariance_approx, difference_mean),
        ):
            curves = np.array([estimator(pop, s).curve for s, _ in samples])
            probs = np.array([p for _, p in samples])
            mean = probs @ curves
            centered = curves - mean
            enumerated = (centered * probs[:, None]).T @ centered
            worst = max(
                worst,
                float(np.abs(formula(pop, design).matrix - enumerated).max()),
            )
    _check("C02 covariance-formula-oracle", worst <= 1e-12, f"max dev {worst:.2e}")


def test_criterion_03_hajek_reduction():
    grid = TimeGrid(np.linspace(0.0, 1.0, 8))
    rng = np.random.default_rng(42)
    worst, total = 0.0, 0
    for seed in (1, 2, 3):
        # aux_mean None: the intercept-only model x_k = (1,)
        pop = generate_population(
            40, grid, (2.0 + np.sin(3.0 * grid.points))[None, :],
            ResidualKernel(kind="exponential", sigma2=1.0, length_scale=0.3),
            seed=seed,
        )
        design = SamplingDesign(N=40, n=10)
        for _ in range(34):
            sample = draw(design, rng)
            dev = np.abs(
                model_assisted_mean(pop, sample, a=0.0).curve
                - hajek_mean(pop, sample).curve
            ).max()
            worst = max(worst, float(dev))
            total += 1
    _check(
        "C03 hajek-reduction",
        worst <= 1e-10,
        f"max dev {worst:.2e} over {total} samples",
    )


def test_criterion_04_calibration_equivalence():
    rng = np.random.default_rng(7)
    worst_mean, worst_eq = 0.0, 0.0
    for pair in range(100):
        pop = study_population(50, 6, corr=0.9, seed=pair)
        design = SamplingDesign(N=50, n=12)
        sample = draw(design, rng)
        weights = calibrated_weights(pop, sample)
        cal = weights @ pop.values[sample.indices] / pop.N
        ma = model_assisted_mean(pop, sample, a=0.0).curve
        worst_mean = max(worst_mean, float(np.abs(cal - ma).max()))
        achieved = weights @ pop.aux[sample.indices]
        rel = np.abs(achieved - pop.aux_totals()) / np.abs(pop.aux_totals())
        worst_eq = max(worst_eq, float(rel.max()))
    _check(
        "C04 calibration-equivalence",
        worst_mean <= 1e-8 and worst_eq <= 1e-8,
        f"max mean dev {worst_mean:.2e}, max eq rel dev {worst_eq:.2e}",
    )


def test_criterion_05_regularization_bound():
    rng = np.random.default_rng(11)
    worst_excess = -np.inf
    worst_noop = 0.0
    noop_cases = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 7))
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigs = rng.uniform(0.0, 2.0, dim)
        m = (q * eigs) @ q.T
        m = 0.5 * (m + m.T)
        for a in (1e-3, 1e-1, 1.0):
            reg = regularized_inverse(m, a)
            worst_excess = max(
                worst_excess, spectral_norm_sym(reg.inverse) - 1.0 / a
            )
            if eigs.min() >= a:
                noop_cases += 1
                dev = np.abs(reg.inverse @ m - np.eye(dim)).max()
                worst_noop = max(worst_noop, float(dev))
    _check(
        "C05 regularization-bound",
        worst_excess <= 1e-10 and worst_noop <= 1e-9 and noop_cases > 100,
        f"norm excess {worst_excess:.2e}, identity dev {worst_noop:.2e} "
        f"on {noop_cases} unfloored cases",
    )


def test_criterion_06_variance_estimator_consistency(big_population):
    pop = big_population
    design = SamplingDesign(N=pop.N, n=400)
    start = time.perf_counter()
    [report] = run_campaign(pop, [design], replicates=1000, a=0.0,
                            master_seed=90)
    elapsed = time.perf_counter() - start
    target = np.diag(ma_covariance_approx(pop, design).matrix)
    rel = np.abs(report.mean_gamma_diag - target) / target
    _check(
        "C06 variance-estimator-consistency",
        float(rel.max()) <= 0.10 and elapsed < 120.0,
        f"max rel dev {rel.max():.4f}, {elapsed:.1f}s",
    )


def test_criterion_07_band_coverage(big_population):
    pop = big_population
    design = SamplingDesign(N=pop.N, n=200)
    start = time.perf_counter()
    [report] = run_campaign(
        pop,
        [design],
        replicates=2000,
        a=0.0,
        compute_coverage=True,
        alpha=0.05,
        band_sims=5000,
        master_seed=90,
        workers=4,
    )
    elapsed = time.perf_counter() - start
    ok = (
        report.coverage is not None
        and 0.93 <= report.coverage <= 0.97
        and report.n_errors == 0
        and elapsed < 300.0
    )
    _check(
        "C07 band-coverage",
        ok,
        f"coverage {report.coverage}, errors {report.n_errors}, {elapsed:.1f}s",
    )


def test_criterion_08_univariate_quantile():
    # the band at n = 1 of the estimate C'C = [[1]], from the row C = [[1]]
    estimate = MeanEstimate(curve=np.zeros(1), estimator_kind="ModelAssisted")
    c = build_band(estimate, CovarianceEstimate(np.array([[1.0]])), n=1,
                   alpha=0.05, n_sims=200_000, seed=3).c_alpha
    _check("C08 univariate-quantile", 1.945 <= c <= 1.975, f"c_alpha {c:.4f}")


def test_criterion_09_accuracy_trend():
    pop = heteroscedastic_study_population(2000, 48, seed=100)
    designs = [SamplingDesign(N=pop.N, n=n) for n in (50, 100, 300)]
    reports = run_campaign(pop, designs, replicates=1000, a=0.0,
                           master_seed=90)
    rmses = [r.rmse for r in reports]
    medians = [r.er_quantiles["median"] for r in reports]
    ratios = [r.rb_squared / r.rmse for r in reports]
    identity = max(abs(r.rmse - (r.rb_squared + r.vr)) for r in reports)
    ok = (
        all(a > b for a, b in zip(rmses, rmses[1:]))
        and all(a > b for a, b in zip(medians, medians[1:]))
        and all(ratio <= 0.10 for ratio in ratios)
        and identity <= 1e-10
    )
    _check(
        "C09 accuracy-trend",
        ok,
        "rmse " + "/".join(f"{v:.4f}" for v in rmses)
        + ", rb2/rmse " + "/".join(f"{v:.3f}" for v in ratios)
        + f", identity dev {identity:.1e}",
    )


def test_criterion_10_variance_reduction(big_population):
    pop = big_population
    design = SamplingDesign(N=pop.N, n=100)
    truth = population_mean(pop)
    mse = {}
    for kind in ("ma", "ht"):
        [report] = run_campaign(pop, [design], 2000, estimator=kind, a=0.0,
                                master_seed=21)
        # integrated MSE = squared bias + variance, averaged over the grid
        mse[kind] = float(np.mean((report.mean_curve - truth) ** 2
                                  + np.diag(report.gamma_emp.matrix)))
    ratio = mse["ma"] / mse["ht"]
    _check("C10 variance-reduction", ratio <= 0.5, f"MSE ratio {ratio:.4f}")


def test_criterion_11_worker_determinism(tmp_path):
    cfg = tmp_path / "campaign.ini"
    cfg.write_text(
        "[population]\nsynthetic = true\nn_units = 200\nn_points = 12\n"
        "corr = 0.9\n\n[design]\nkind = srswor\nn = 20\n\n"
        "[band]\nn_sims = 300\n\n"
        "[campaign]\nreplicates = 64\nn_list = 10,20\ncoverage = true\n",
        encoding="utf-8",
    )
    outputs = {}
    for workers in (1, 8):
        out = tmp_path / f"w{workers}"
        proc = subprocess.run(
            [sys.executable, "-m", "curvesurvey.cli", "montecarlo",
             "--config", str(cfg), "--seed", "5", "--workers", str(workers),
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[workers] = {
            name: (out / name).read_bytes()
            for name in ("report.txt", "report.csv", "gamma_emp_n10.csv",
                         "gamma_emp_n20.csv")
        }
    coverage = [row.split(",")[10] for row in
                outputs[1]["report.csv"].decode().splitlines()[1:]]
    ok = outputs[1] == outputs[8] and "" not in coverage
    _check("C11 worker-determinism", ok,
           f"reports byte-identical at 1 and 8 workers, coverage {coverage}")
