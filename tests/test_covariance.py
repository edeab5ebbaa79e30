import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvesurvey import (
    SamplingDesign,
    draw,
    ma_covariance_estimate,
    model_assisted_mean,
)
from curvesurvey import estimators
from curvesurvey.covariance import ht_covariance_estimate
from curvesurvey.designs import (
    Sample,
    first_order_probs,
    joint_probs_submatrix,
    replicate_rng,
)
from curvesurvey.errors import ValidationError
from curvesurvey.estimators import (
    beta_population,
    difference_mean,
    hajek_mean,
    ht_mean,
)
from curvesurvey.grids import FunctionalPopulation, TimeGrid
from curvesurvey.oracle import (
    dense_ht_covariance,
    enumerate_samples,
    ht_covariance_exact,
    ma_covariance_approx,
    residual_ht_covariance_estimate,
    second_order_matrix,
)


def enumerated_covariance(pop, design, estimator):
    pairs = enumerate_samples(design)
    curves = np.array([estimator(pop, s).curve for s, _ in pairs])
    probs = np.array([p for _, p in pairs])
    centered = curves - probs @ curves
    return (centered * probs[:, None]).T @ centered


class TestHtCovarianceExact:
    def test_census_is_zero(self, small_pop):
        design = SamplingDesign(N=small_pop.N, n=small_pop.N)
        cov = ht_covariance_exact(small_pop, design)
        assert np.abs(cov.matrix).max() < 1e-12

    def test_matches_enumeration(self, tiny_fixture):
        pop, design = tiny_fixture
        formula = ht_covariance_exact(pop, design).matrix
        enumerated = enumerated_covariance(pop, design, ht_mean)
        assert np.abs(formula - enumerated).max() < 1e-12

    def test_constant_curves_zero(self):
        grid = TimeGrid(np.linspace(0, 1, 3))
        pop = FunctionalPopulation(
            grid, np.full((6, 3), 2.0), np.ones((6, 1))
        )
        design = SamplingDesign(N=6, n=2)
        cov = ht_covariance_exact(pop, design)
        assert np.abs(cov.matrix).max() < 1e-12

    def test_symmetric(self, small_pop, small_design):
        cov = ht_covariance_exact(small_pop, small_design).matrix
        assert np.array_equal(cov, cov.T)


class TestMaCovarianceApprox:
    def test_perfect_fit_zero(self):
        grid = TimeGrid(np.linspace(0, 1, 4))
        rng = np.random.default_rng(1)
        aux = np.column_stack([np.ones(10), rng.normal(0, 1, 10)])
        beta = np.vstack([np.ones(4), grid.points])
        pop = FunctionalPopulation(grid, aux @ beta, aux)
        design = SamplingDesign(N=10, n=3)
        assert np.abs(ma_covariance_approx(pop, design).matrix).max() < 1e-12

    def test_dual_path_residual_population(self, small_pop, small_design):
        residuals = small_pop.values - small_pop.aux @ beta_population(small_pop)
        resid_pop = FunctionalPopulation(
            small_pop.grid, residuals, small_pop.aux
        )
        direct = ma_covariance_approx(small_pop, small_design).matrix
        via_ht = ht_covariance_exact(resid_pop, small_design).matrix
        assert np.abs(direct - via_ht).max() < 1e-12

    def test_equals_difference_estimator_covariance(self, tiny_fixture):
        pop, design = tiny_fixture
        formula = ma_covariance_approx(pop, design).matrix
        enumerated = enumerated_covariance(pop, design, difference_mean)
        assert np.abs(formula - enumerated).max() < 1e-12


class TestMaCovarianceEstimate:
    def test_census_zero(self, small_pop):
        design = SamplingDesign(N=small_pop.N, n=small_pop.N)
        sample = Sample(np.arange(small_pop.N), design)
        cov = ma_covariance_estimate(small_pop, sample, a=0.0)
        assert np.abs(cov.matrix).max() < 1e-12

    def test_perfect_fit_zero(self):
        grid = TimeGrid(np.linspace(0, 1, 4))
        rng = np.random.default_rng(2)
        aux = np.column_stack([np.ones(15), rng.normal(0, 1, 15)])
        beta = np.vstack([np.ones(4), 1 - grid.points])
        pop = FunctionalPopulation(grid, aux @ beta, aux)
        design = SamplingDesign(N=15, n=5)
        sample = draw(design, replicate_rng(0, 0))
        cov = ma_covariance_estimate(pop, sample, a=0.0)
        assert np.abs(cov.matrix).max() < 1e-8

    def test_frozen_residual_unbiasedness(self):
        # with residuals fixed at census values the estimator's enumeration
        # expectation equals the residual covariance exactly
        grid = TimeGrid(np.linspace(0, 1, 3))
        rng = np.random.default_rng(3)
        aux = np.column_stack([np.ones(5), rng.normal(2, 1, 5)])
        values = aux @ np.vstack([np.ones(3), grid.points]) \
            + 0.5 * rng.standard_normal((5, 3))
        pop = FunctionalPopulation(grid, values, aux)
        design = SamplingDesign(N=5, n=3)
        residuals = pop.values - pop.aux @ beta_population(pop)
        resid_pop = FunctionalPopulation(grid, residuals, aux)
        expectation = np.zeros((3, 3))
        for s, p in enumerate_samples(design):
            expectation += p * ht_covariance_estimate(resid_pop, s).matrix
        target = ma_covariance_approx(pop, design).matrix
        assert np.abs(expectation - target).max() < 1e-12

    def test_rejects_zero_joint_probability(self):
        residuals = np.ones((2, 2))
        pi = np.array([0.5, 0.5])
        pi2 = np.array([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ValidationError):
            residual_ht_covariance_estimate(residuals, pi, pi2, 4)

    def test_symmetric_output(self, small_pop, small_design):
        sample = draw(small_design, replicate_rng(1, 1))
        cov = ma_covariance_estimate(small_pop, sample, a=0.0).matrix
        assert np.array_equal(cov, cov.T)

    @pytest.mark.parametrize("estimator", [ht_covariance_estimate,
                                           ma_covariance_estimate])
    def test_an_estimate_without_linearized_rows_is_refused(
            self, small_pop, small_design, estimator):
        # the census-fit difference estimate carries no linearized rows
        sample = draw(small_design, replicate_rng(1, 1))
        estimate = difference_mean(small_pop, sample)
        with pytest.raises(ValidationError, match="Difference estimate has "
                                                  "no linearized rows"):
            estimator(small_pop, sample, estimate=estimate)

    def test_the_rows_are_kept_after_the_matrix_is_read(self, small_pop,
                                                        small_design):
        sample = draw(small_design, replicate_rng(1, 1))
        cov = ma_covariance_estimate(small_pop, sample, a=0.0)
        rows = cov.rows
        assert np.array_equal(cov.matrix, rows.T @ rows)
        assert cov.rows is rows and rows.shape == (small_design.n, small_pop.grid.size)


class TestScaling:
    def test_n_scaled_variance_bounded_in_nested_sequence(self):
        # n * gamma diag stays bounded as (N, n) grow proportionally
        from curvesurvey import study_population

        tops = []
        for scale in (1, 2, 4):
            pop = study_population(250 * scale, 12, corr=0.9, seed=17)
            design = SamplingDesign(N=pop.N, n=25 * scale)
            diag = np.diag(ma_covariance_approx(pop, design).matrix)
            tops.append(design.n * diag.max())
        assert max(tops) < 4 * min(tops)


def make_design(sizes, n_h, seed, srswor=False):
    """Stratified SRSWOR over randomly permuted units (or plain SRSWOR)."""
    N = sum(sizes)
    if srswor:
        return SamplingDesign(N=N, n=n_h[0])
    perm = np.random.default_rng(seed).permutation(N)
    cuts = np.cumsum(sizes)[:-1]
    return SamplingDesign(
        N=N, n=sum(n_h),
        strata=tuple(np.split(perm, cuts)), n_h=tuple(n_h),
    )


def random_population(N, D, seed):
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.linspace(0.0, 1.0, D))
    aux = np.column_stack([np.ones(N), rng.normal(3.0, 1.0, N)])
    values = 2.0 + rng.standard_normal((N, D)) + aux[:, 1:] * grid.points
    return FunctionalPopulation(grid, values, aux)


def assert_rel_close(closed, dense, rel=1e-12):
    scale = np.abs(dense).max()
    assert np.abs(closed - dense).max() <= rel * scale


def assert_matches_dense(cov, dense):
    """The closed form's matrix and its O(n D) variance function equal the
    dense twin; the variance is also the matrix's own diagonal."""
    assert_rel_close(cov.matrix, dense)
    assert_rel_close(cov.variance, np.diag(dense))
    assert_rel_close(cov.variance, np.diag(cov.matrix))


def check_against_dense(design, seed, D=3):
    """Closed-form covariances equal their dense oracle.py twins."""
    pop = random_population(design.N, D, seed)
    pi = first_order_probs(design)
    pi2 = second_order_matrix(design)
    assert_matches_dense(
        ht_covariance_exact(pop, design),
        dense_ht_covariance(pop.values, pi, pi2, design.N),
    )
    residuals = pop.values - pop.aux @ beta_population(pop)
    assert_matches_dense(
        ma_covariance_approx(pop, design),
        dense_ht_covariance(residuals, pi, pi2, design.N),
    )
    sample = draw(design, replicate_rng(seed, 1))
    idx = sample.indices

    def dense(rows):
        pi2_s = joint_probs_submatrix(design, idx)
        return residual_ht_covariance_estimate(rows, pi[idx], pi2_s, design.N)

    assert_matches_dense(
        ht_covariance_estimate(pop, sample), dense(pop.values[idx])
    )
    hajek = hajek_mean(pop, sample)
    assert_matches_dense(
        ht_covariance_estimate(pop, sample, estimate=hajek),
        dense(pop.values[idx] - hajek.curve),
    )
    beta = estimators._fit(pop.aux[idx], pop.values[idx], pi[idx], design.N,
                           None)[0]
    ma = model_assisted_mean(pop, sample, a=None)
    for estimate in (None, ma):
        assert_matches_dense(
            ma_covariance_estimate(pop, sample, a=None, estimate=estimate),
            dense(pop.values[idx] - pop.aux[idx] @ beta),
        )


@st.composite
def design_specs(draw_):
    srswor = draw_(st.booleans())
    n_strata = 1 if srswor else draw_(st.integers(1, 4))
    sizes = [draw_(st.integers(1, 7)) for _ in range(n_strata)]
    assume(sum(sizes) >= 2)  # the census regression needs two units
    n_h = [draw_(st.integers(1, N_h)) for N_h in sizes]
    return sizes, n_h, srswor


class TestClosedFormMatchesDense:
    @pytest.mark.parametrize(
        "sizes, n_h, srswor",
        [
            ([5], [2], True),
            ([6], [6], True),  # census, n = N
            ([4, 3, 1], [1, 3, 1], False),  # n_h = 1 and f_h = 1 strata
            ([3, 4], [3, 4], False),  # stratified census
            ([5, 2, 6], [1, 1, 2], False),
            ([1, 1], [1, 1], False),
            ([3, 3, 3], [1, 1, 1], False),  # no sampled pair in any stratum
        ],
    )
    def test_designed_edge_cases(self, sizes, n_h, srswor):
        check_against_dense(make_design(sizes, n_h, 0, srswor), seed=1)

    @given(design_specs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_random_designs(self, spec, seed):
        sizes, n_h, srswor = spec
        check_against_dense(make_design(sizes, n_h, seed, srswor), seed)


class TestShiftInvariance:
    """A level added to every curve leaves every covariance unchanged: the
    rows are centred within their stratum before any product is formed."""

    @pytest.mark.parametrize("stratified", [False, True])
    def test_large_level_keeps_variance_and_cholesky(self, stratified):
        from curvesurvey import study_population

        pop = study_population(2000, 48, seed=5)
        design = make_design([700, 1300], [60, 140], seed=0, srswor=False) \
            if stratified else make_design([2000], [200], seed=0, srswor=True)
        sample = draw(design, replicate_rng(1, 0))

        def covariances(p):
            return [
                ht_covariance_estimate(p, sample),
                ht_covariance_estimate(p, sample, estimate=hajek_mean(p, sample)),
                ht_covariance_exact(p, design),
                ma_covariance_approx(p, design),
            ]

        base = covariances(pop)
        for level in (1e2, 1e4, 1e6, 1e8):
            shifted = covariances(
                FunctionalPopulation(pop.grid, pop.values + level, pop.aux))
            for cov, ref in zip(shifted, base):
                assert np.abs(cov.variance / ref.variance - 1.0).max() <= 1e-8
        for cov in shifted:  # PSD by construction, at level 1e8 too
            np.linalg.cholesky(design.n * cov.matrix)


class TestLazyMatrix:
    def test_matrix_is_formed_once_and_only_when_read(self, small_pop,
                                                      small_design,
                                                      covariance_work):
        cov = ma_covariance_estimate(small_pop, draw(small_design, replicate_rng(3, 0)))
        assert cov.variance is cov.variance and covariance_work == {"rows": 1, "grams": 0}
        assert cov.matrix is cov.matrix and covariance_work == {"rows": 1, "grams": 1}


class TestMemory:
    def test_approx_covariance_builds_no_population_square(self):
        # an N x N float matrix at N = 20000 would be 3.2 GB
        import tracemalloc

        from curvesurvey import study_population

        pop = study_population(20000, 48, corr=0.9, seed=5)
        design = SamplingDesign(N=pop.N, n=2000)
        tracemalloc.start()
        try:
            ma_covariance_approx(pop, design)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
