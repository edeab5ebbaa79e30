from fractions import Fraction

import numpy as np
import pytest

from curvesurvey import (
    NumericalError,
    SamplingDesign,
    ValidationError,
    draw,
    model_assisted_mean,
)
from curvesurvey import estimators
from curvesurvey.designs import Sample, first_order_probs, replicate_rng
from curvesurvey.estimators import hajek_mean, ht_mean
from curvesurvey.grids import FunctionalPopulation, TimeGrid, population_mean
from curvesurvey.oracle import (
    census_fit,
    calibrated_weights,
    default_fixture,
    difference_mean,
    enumerate_samples,
    exact_calibrated_weights,
    oracle_check,
    regularized_inverse,
    sym_eigen,
)


def census_sample(pop):
    design = SamplingDesign(N=pop.N, n=pop.N)
    return Sample(np.arange(pop.N), design)


def enumeration_expectation(pop, estimator, design):
    pairs = enumerate_samples(design)
    return sum(p * estimator(pop, s).curve for s, p in pairs)


class TestHtMean:
    def test_census_exact(self, small_pop):
        est = ht_mean(small_pop, census_sample(small_pop))
        assert np.allclose(est.curve, population_mean(small_pop), atol=1e-12)

    def test_design_unbiased_by_enumeration(self, tiny_fixture):
        pop, design = tiny_fixture
        expect = enumeration_expectation(pop, ht_mean, design)
        assert np.abs(expect - population_mean(pop)).max() < 1e-12

    def test_homogeneity(self, small_pop, small_design):
        sample = draw(small_design, replicate_rng(1, 0))
        doubled = FunctionalPopulation(
            small_pop.grid, 2.0 * small_pop.values, small_pop.aux
        )
        assert np.allclose(
            ht_mean(doubled, sample).curve, 2.0 * ht_mean(small_pop, sample).curve
        )

    def test_mismatched_population(self, small_pop):
        other = SamplingDesign(N=small_pop.N + 1, n=3)
        sample = draw(other, replicate_rng(0, 0))
        with pytest.raises(ValidationError):
            ht_mean(small_pop, sample)


class TestHajekMean:
    def test_census_exact(self, small_pop):
        est = hajek_mean(small_pop, census_sample(small_pop))
        assert np.allclose(est.curve, population_mean(small_pop), atol=1e-12)

    def test_constant_curves(self, small_design, small_pop):
        const = FunctionalPopulation(
            small_pop.grid,
            np.full((small_pop.N, small_pop.grid.size), 3.5),
            small_pop.aux,
        )
        sample = draw(small_design, replicate_rng(2, 0))
        assert np.allclose(hajek_mean(const, sample).curve, 3.5, atol=1e-12)

    def test_equals_intercept_only_model_assisted(self, small_pop, small_design):
        intercept = FunctionalPopulation(
            small_pop.grid, small_pop.values, np.ones((small_pop.N, 1))
        )
        for rep in range(20):
            sample = draw(small_design, replicate_rng(3, rep))
            assert np.abs(
                hajek_mean(small_pop, sample).curve
                - model_assisted_mean(intercept, sample, a=0.0).curve
            ).max() < 1e-10


class TestBetaPopulation:
    def test_noiseless_recovery(self):
        grid = TimeGrid(np.linspace(0, 1, 5))
        rng = np.random.default_rng(0)
        aux = np.column_stack([np.ones(30), rng.normal(2, 1, 30)])
        beta = np.vstack([grid.points, 1.0 - grid.points])
        pop = FunctionalPopulation(grid, aux @ beta, aux)
        assert np.abs(census_fit(pop)[0] - beta).max() < 1e-8

    def test_intercept_only_is_mean(self, small_pop):
        intercept = FunctionalPopulation(
            small_pop.grid, small_pop.values, np.ones((small_pop.N, 1))
        )
        est = census_fit(intercept)[0]
        assert np.allclose(est[0], population_mean(small_pop))

    def test_matches_normal_equations_oracle(self, rng):
        grid = TimeGrid(np.linspace(0, 1, 4))
        aux = rng.standard_normal((6, 2)) + [0.0, 3.0]
        values = rng.standard_normal((6, 4))
        pop = FunctionalPopulation(grid, values, aux)
        est = census_fit(pop)[0]
        # naive per-time-point 2x2 solve
        g = np.zeros((2, 2))
        for k in range(6):
            g += np.outer(aux[k], aux[k])
        g /= 6
        for i in range(4):
            rhs = sum(aux[k] * values[k, i] for k in range(6)) / 6
            naive = np.linalg.solve(g, rhs)
            assert np.abs(est[:, i] - naive).max() < 1e-10

    def test_singular_design_matrix(self):
        grid = TimeGrid([0.0, 1.0])
        aux = np.ones((4, 2))  # duplicated column
        pop = FunctionalPopulation(grid, np.zeros((4, 2)), aux)
        with pytest.raises(NumericalError):
            census_fit(pop)[0]


def fitted_beta(monkeypatch, pop, sample, a):
    """(MeanEstimate, beta) of model_assisted_mean, beta read off its fit."""
    fits, fit = [], estimators._fit

    def recorded(*args, **kwargs):
        fits.append(fit(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(estimators, "_fit", recorded)
    est = model_assisted_mean(pop, sample, a=a)
    assert len(fits) == 1
    return est, fits[0][0]


def moment_system(pop, sample):
    """(G, b): the sampled moment matrix sum x x' / (pi N) and sum x y / (pi N)."""
    pi = first_order_probs(sample.design)[sample.indices]
    xw = pop.aux[sample.indices] / pi[:, None]
    return (xw.T @ pop.aux[sample.indices] / pop.N,
            xw.T @ pop.values[sample.indices] / pop.N)


def relative_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestSampledFit:
    def test_census_matches_population(self, small_pop, monkeypatch):
        _, beta = fitted_beta(monkeypatch, small_pop, census_sample(small_pop),
                              a=1e-12)
        assert np.abs(beta - census_fit(small_pop)[0]).max() < 1e-10

    @pytest.mark.parametrize("floor, fires", [
        (0.0, False), (None, False), ("half-min", False), ("half-max", True),
        (1e6, True),
    ])
    def test_beta_matches_eigen_floor_twin(self, small_pop, small_design,
                                           monkeypatch, floor, fires):
        sample = draw(small_design, replicate_rng(4, 1))
        g, b = moment_system(small_pop, sample)
        w, _ = sym_eigen(g)
        a = {"half-min": w[-1] / 2, "half-max": w[0] / 2}.get(floor, floor)
        est, beta = fitted_beta(monkeypatch, small_pop, sample, a=a)
        if a is None:
            assert est.a_used == pytest.approx(1e-8 * np.trace(g) / 2, rel=1e-12)
        else:
            assert est.a_used == a
        twin = regularized_inverse(g, est.a_used or w[-1] / 2)
        assert twin.floor_applied == fires
        assert relative_gap(beta, twin.inverse @ b) < 1e-10

    def test_floor_bounds_beta(self, small_pop, small_design, monkeypatch):
        sample = draw(small_design, replicate_rng(4, 1))
        _, b = moment_system(small_pop, sample)
        big_a = 1e6  # force the floor everywhere: |beta| <= |b| / a
        _, beta = fitted_beta(monkeypatch, small_pop, sample, a=big_a)
        assert (np.linalg.norm(beta, axis=0)
                <= np.linalg.norm(b, axis=0) / big_a * (1 + 1e-12)).all()

    def test_stable_where_normal_equations_lose_digits(self, monkeypatch):
        # intercept plus a covariate of mean 1e3 and sd 1: cond(x) ~ 1e6;
        # the normal equations of x'x miss the lstsq beta by 3e-9 here
        rng = np.random.default_rng(3)
        n = 50
        grid = TimeGrid(np.linspace(0.0, 1.0, 3))
        aux = np.column_stack([np.ones(n), rng.normal(1e3, 1.0, n)])
        values = aux @ np.vstack([grid.points, 1.0 - grid.points])
        values += rng.standard_normal((n, grid.size))
        pop = FunctionalPopulation(grid, values, aux)
        sample = census_sample(pop)
        assert np.linalg.cond(aux) > 5e5
        _, beta = fitted_beta(monkeypatch, pop, sample, a=0.0)
        twin = np.linalg.lstsq(aux, values, rcond=None)[0]
        assert relative_gap(beta, twin) < 1e-11


class TestModelAssisted:
    def test_census_exact(self, small_pop):
        est = model_assisted_mean(small_pop, census_sample(small_pop), a=0.0)
        assert np.abs(est.curve - population_mean(small_pop)).max() < 1e-10

    def test_noiseless_population_exact_for_any_sample(self):
        grid = TimeGrid(np.linspace(0, 1, 5))
        rng = np.random.default_rng(5)
        aux = np.column_stack([np.ones(40), rng.normal(3, 1, 40)])
        beta = np.vstack([1 + grid.points, 2 - grid.points])
        pop = FunctionalPopulation(grid, aux @ beta, aux)
        design = SamplingDesign(N=40, n=8)
        for rep in range(10):
            sample = draw(design, replicate_rng(6, rep))
            est = model_assisted_mean(pop, sample, a=0.0)
            assert np.abs(est.curve - population_mean(pop)).max() < 1e-8

    def test_intercept_residual_cancellation(self, small_pop, small_design):
        pi = first_order_probs(small_design)
        for rep in range(10):
            sample = draw(small_design, replicate_rng(7, rep))
            resid = model_assisted_mean(small_pop, sample, a=0.0).linearized
            ht_resid = (resid / pi[sample.indices][:, None]).sum(0) / small_pop.N
            assert np.abs(ht_resid).max() < 1e-8

    def test_negative_floor_rejected(self, small_pop, small_design):
        sample = draw(small_design, replicate_rng(7, 0))
        with pytest.raises(ValidationError):
            model_assisted_mean(small_pop, sample, a=-1.0)

    @pytest.mark.parametrize("a", [np.nan, np.inf])
    def test_non_finite_floor_rejected(self, small_pop, small_design, a):
        # not an unfloored fit with the singularity test off (NaN), nor an
        # all-NaN curve (inf)
        sample = draw(small_design, replicate_rng(7, 0))
        with pytest.raises(ValidationError, match="must be finite and >= 0"):
            model_assisted_mean(small_pop, sample, a=a)

    def test_a_floor_whose_n_times_a_overflows_is_refused(self, small_pop,
                                                          small_design):
        sample = draw(small_design, replicate_rng(7, 0))
        x, y = small_pop.aux[sample.indices], small_pop.values[sample.indices]
        pi = first_order_probs(small_design)[sample.indices]
        top = np.finfo(float).max / small_pop.N
        with pytest.raises(ValidationError,
                           match=f"too large for N = {small_pop.N}"):
            estimators._fit(x, y, pi, small_pop.N, 2.0 * top)
        beta, resid, a_used, floored = estimators._fit(x, y, pi, small_pop.N,
                                                       0.5 * top)
        assert floored and np.isfinite(beta).all() and np.isfinite(resid).all()

    def test_singular_sample_design(self, small_pop):
        design = SamplingDesign(N=small_pop.N, n=1)
        sample = draw(design, replicate_rng(7, 0))  # n < p
        with pytest.raises(NumericalError, match="sampled moment matrix"):
            model_assisted_mean(small_pop, sample, a=0.0)
        assert model_assisted_mean(small_pop, sample, a=None).a_used > 0


class TestDifferenceMean:
    def test_design_unbiased_by_enumeration(self, tiny_fixture):
        pop, design = tiny_fixture
        expect = enumeration_expectation(pop, difference_mean, design)
        assert np.abs(expect - population_mean(pop)).max() < 1e-12

    def test_census_exact(self, small_pop):
        est = difference_mean(small_pop, census_sample(small_pop))
        assert np.allclose(est.curve, population_mean(small_pop), atol=1e-10)

    def test_perfect_fit_exact_everywhere(self):
        grid = TimeGrid(np.linspace(0, 1, 4))
        rng = np.random.default_rng(8)
        aux = np.column_stack([np.ones(12), rng.normal(1, 1, 12)])
        beta = np.vstack([np.ones(4), grid.points])
        pop = FunctionalPopulation(grid, aux @ beta, aux)
        design = SamplingDesign(N=12, n=3)
        for s, _ in enumerate_samples(design, cap=300):
            est = difference_mean(pop, s)
            assert np.abs(est.curve - population_mean(pop)).max() < 1e-10


class TestCalibration:
    """The exact calibration-weight twin in the oracle against the fit."""

    def test_exact_weights_reproduce_the_totals_exactly(self, small_pop,
                                                         small_design):
        totals = [Fraction(t) for t in small_pop.aux_totals().tolist()]
        for rep in range(5):
            sample = draw(small_design, replicate_rng(9, rep))
            w = exact_calibrated_weights(small_pop, sample)
            x_s = small_pop.aux[sample.indices].tolist()
            achieved = [sum(wk * Fraction(row[j]) for wk, row in zip(w, x_s))
                        for j in range(len(totals))]
            assert achieved == totals

    def test_a_singular_moment_matrix_is_refused_as_the_fit_refuses_it(self):
        # two sampled units with one auxiliary row: rank 1 < p = 2
        grid = TimeGrid([0.0, 1.0])
        aux = np.column_stack([np.ones(4), np.array([1.0, 1.0, 2.0, 3.0])])
        pop = FunctionalPopulation(grid, np.zeros((4, 2)), aux)
        sample = Sample(np.array([0, 1]), SamplingDesign(N=4, n=2))
        for fit in (calibrated_weights,
                    lambda pop, s: model_assisted_mean(pop, s, a=0.0)):
            with pytest.raises(NumericalError, match="singular"):
                fit(pop, sample)

    def test_equations_hold(self, small_pop, small_design):
        totals = small_pop.aux_totals()
        for rep in range(20):
            sample = draw(small_design, replicate_rng(9, rep))
            w = calibrated_weights(small_pop, sample)
            achieved = w @ small_pop.aux[sample.indices]
            assert np.abs(achieved - totals).max() < 1e-8 * np.abs(totals).max()

    def test_weighted_mean_equals_model_assisted(self, small_pop, small_design):
        for rep in range(20):
            sample = draw(small_design, replicate_rng(10, rep))
            w = calibrated_weights(small_pop, sample)
            cal = w @ small_pop.values[sample.indices] / small_pop.N
            ma = model_assisted_mean(small_pop, sample, a=0.0).curve
            assert np.abs(cal - ma).max() < 1e-8

    def test_weights_reduce_to_design_weights(self):
        # sample whose HT aux totals already equal the population totals
        grid = TimeGrid([0.0, 1.0])
        aux = np.column_stack([np.ones(4), np.array([1.0, 2.0, 1.0, 2.0])])
        pop = FunctionalPopulation(grid, np.zeros((4, 2)), aux)
        design = SamplingDesign(N=4, n=2)
        sample = Sample(np.array([0, 1]), design)  # HT totals = 2*(x0+x1) = totals
        assert np.allclose(calibrated_weights(pop, sample), 2.0, atol=1e-10)

    @pytest.mark.parametrize("seed", [140, 151, 319, 517, 601])
    def test_oracle_check_passes(self, seed):
        # these fixtures missed "calibration mean equals model-assisted" by
        # 4.7e-8 (140, 151) when both sides solved normal equations, and by
        # 1.2e-10, 1.2e-10 and 6.7e-10 (319, 517, 601) against the exact
        # weights while the SVD fit took no refinement step
        failed = [r for r in oracle_check(*default_fixture(seed=seed))
                  if not r.passed]
        assert not failed

    @pytest.mark.parametrize("seed", [104, 561])
    def test_oracle_check_passes_against_exact_weights(self, seed):
        # these fixtures missed it by 4.8e-10 and 1.0e-10 when the twin was
        # an lstsq solve, whose error is as large as the fit's at n = p = 2
        failed = [r.name for r in oracle_check(*default_fixture(seed=seed))
                  if not r.passed]
        assert not failed

    def test_oracle_check_passes_at_every_fixture_seed(self):
        failed = [(seed, r.name) for seed in [*range(200), 319, 517, 601]
                  for r in oracle_check(*default_fixture(seed=seed))
                  if not r.passed]
        assert not failed


class TestLinearity:
    def test_all_estimators_linear_in_curves(self, small_pop, small_design, rng):
        sample = draw(small_design, replicate_rng(11, 0))
        other = rng.standard_normal(small_pop.values.shape)
        alpha = 1.7
        combo = FunctionalPopulation(
            small_pop.grid, alpha * small_pop.values + other, small_pop.aux
        )
        other_pop = FunctionalPopulation(small_pop.grid, other, small_pop.aux)
        for est in (
            ht_mean,
            hajek_mean,
            difference_mean,
            lambda p, s: model_assisted_mean(p, s, a=0.0),
        ):
            lhs = est(combo, sample).curve
            rhs = alpha * est(small_pop, sample).curve + est(other_pop, sample).curve
            assert np.abs(lhs - rhs).max() < 1e-10
