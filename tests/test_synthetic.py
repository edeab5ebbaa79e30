import threading
import tracemalloc

import numpy as np
import pytest

from curvesurvey import linalg, synthetic
from curvesurvey import (
    ConfigurationError,
    heteroscedastic_study_population,
    study_population,
)
from curvesurvey.grids import TimeGrid
from curvesurvey.synthetic import ResidualKernel, generate_population

GRID = TimeGrid(np.linspace(0.0, 1.0, 8))


def make_beta(aux_mean=5.0, grid=GRID):
    """(p, D) coefficient curves: p = 1 without a covariate, else 2."""
    beta = np.vstack([2.0 + grid.points, 1.5 * np.ones(grid.size)])
    return beta[:1] if aux_mean is None else beta


def make_pop(n_units, sigma2=1.0, kernel="white", aux_mean=5.0, seed=0):
    return generate_population(n_units, GRID, make_beta(aux_mean),
                               ResidualKernel(kind=kernel, sigma2=sigma2),
                               seed=seed, aux_mean=aux_mean)


def test_noiseless_model_is_exact():
    pop = make_pop(50, sigma2=0.0)
    assert np.allclose(pop.values, pop.aux @ make_beta(), atol=1e-12)


def test_fixed_seed_reproducible():
    a = make_pop(30, seed=42)
    b = make_pop(30, seed=42)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.aux, b.aux)


def test_white_noise_variance_concentrates():
    pop = make_pop(10_000, sigma2=1.0, kernel="white", seed=3)
    eps = pop.values - pop.aux @ make_beta()
    per_point_var = eps.var(axis=0)
    assert np.all(per_point_var > 0.94) and np.all(per_point_var < 1.06)


def test_gaussian_aux_has_intercept_and_unit_sd():
    pop = make_pop(10_000, aux_mean=3.0, seed=1)
    assert np.all(pop.aux[:, 0] == 1.0)
    assert abs(pop.aux[:, 1].mean() - 3.0) < 0.05
    assert abs(pop.aux[:, 1].std() - 1.0) < 0.05


def test_intercept_only_noiseless_rows_constant():
    pop = make_pop(10, sigma2=0.0, aux_mean=None)
    assert pop.aux.shape == (10, 1) and np.all(pop.aux == 1.0)
    assert np.allclose(pop.values, make_beta(None)[0], atol=1e-12)


def test_exponential_kernel_psd_and_correlated():
    kern = ResidualKernel(kind="exponential", sigma2=2.0, length_scale=0.3)
    mat = kern.matrix(GRID)
    w = np.linalg.eigvalsh(mat)
    assert w.min() > -1e-10
    assert np.allclose(np.diag(mat), 2.0)
    assert mat[0, 1] > 0.5  # neighbors strongly correlated


def test_periodic_kernel_matrix_symmetric():
    kern = ResidualKernel(kind="periodic_exponential", sigma2=1.0, period=0.5)
    mat = kern.matrix(GRID)
    assert np.allclose(mat, mat.T)


def test_bad_config_rejected():
    with pytest.raises(ConfigurationError):
        ResidualKernel(kind="nope")
    with pytest.raises(ConfigurationError):
        ResidualKernel(sigma2=-1.0)
    with pytest.raises(ConfigurationError, match="need at least one unit"):
        make_pop(0)


@pytest.mark.parametrize("aux_mean, beta", [
    (None, make_beta(5.0)),  # two rows, one covariate
    (5.0, make_beta(None)),  # one row, two covariates
    (5.0, make_beta(5.0)[:, :-1]),  # one column short of the grid
    (5.0, make_beta(5.0)[0]),  # not a matrix
    (5.0, np.where(GRID.points > 0.5, np.nan, make_beta(5.0))),
])
def test_beta_curves_must_be_finite_p_by_d(aux_mean, beta):
    with pytest.raises(ConfigurationError, match="beta_curves must be a finite"):
        generate_population(10, GRID, beta, ResidualKernel(), aux_mean=aux_mean)


def test_study_population_correlation_near_target():
    pop = study_population(5000, 24, corr=0.95, seed=11)
    z = pop.aux[:, 1]
    corrs = [
        np.corrcoef(z, pop.values[:, i])[0, 1] for i in range(pop.grid.size)
    ]
    assert min(corrs) > 0.9 and max(corrs) < 0.99
    assert abs(np.mean(corrs) - 0.95) < 0.02


def test_heteroscedastic_population_shapes_and_scale():
    pop = heteroscedastic_study_population(3000, 12, seed=4)
    assert pop.values.shape == (3000, 12)
    assert pop.aux.shape == (3000, 2)
    assert np.all(pop.aux[:, 0] == 1.0)
    resid = pop.values - pop.aux @ np.linalg.lstsq(
        pop.aux, pop.values, rcond=None
    )[0]
    # unit scales are normalized, so the average residual variance matches
    # the base kernel variance (sigma2 = 0.25) up to sampling noise
    assert abs(resid.var() - 0.25) < 0.05
    # residual dispersion varies strongly across units (heavy-tailed scales)
    unit_var = resid.var(axis=1)
    assert np.quantile(unit_var, 0.95) / np.quantile(unit_var, 0.05) > 5.0


def test_heteroscedastic_population_rejects_negative_scale_sd():
    with pytest.raises(ConfigurationError):
        heteroscedastic_study_population(10, 4, scale_sd=-1.0)


def one_shot_population(n_units, grid, beta, kernel, seed, aux_mean, scale_sd):
    """(aux, values) from the unblocked formula: each (N, D) draw and
    product formed at once.  The test twin of the blocked generator."""
    rng = np.random.default_rng(seed)
    aux = np.ones((n_units, 1))
    if aux_mean is not None:
        aux = np.column_stack([aux, rng.normal(aux_mean, 1.0, n_units)])
    z = rng.standard_normal((n_units, grid.size))
    eps = z @ synthetic._residual_factor(kernel, grid).T
    if scale_sd is not None:
        scales = np.exp(scale_sd * rng.standard_normal(n_units))
        eps *= (scales / np.sqrt(np.mean(scales**2)))[:, None]
    return aux, aux @ beta + eps


def assert_close(actual, expected):
    """Equal to 1e-12 relative to the largest entry."""
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()


BLOCK_SIZES = [1, synthetic.GEN_BLOCK - 1, synthetic.GEN_BLOCK,
               synthetic.GEN_BLOCK + 1, 2 * synthetic.GEN_BLOCK + 300]


@pytest.mark.parametrize("n_units", BLOCK_SIZES)
@pytest.mark.parametrize("scale_sd", [None, 0.75])
@pytest.mark.parametrize("aux_mean", [None, 5.0])
def test_blocked_population_matches_one_shot_formula(n_units, scale_sd, aux_mean):
    beta = make_beta(aux_mean)
    kernel = ResidualKernel(kind="exponential", sigma2=0.7)
    pop = generate_population(n_units, GRID, beta, kernel, seed=n_units,
                              aux_mean=aux_mean, scale_sd=scale_sd)
    aux, values = one_shot_population(n_units, GRID, beta, kernel, n_units,
                                      aux_mean, scale_sd)
    assert_close(pop.aux, aux)
    assert_close(pop.values, values)


@pytest.mark.parametrize("make", [
    lambda grid: generate_population(
        20000, grid, make_beta(5.0, grid),
        ResidualKernel(kind="exponential", sigma2=0.5), seed=5, aux_mean=5.0),
    lambda grid: heteroscedastic_study_population(20000, grid.size, seed=5),
], ids=["generate_population", "heteroscedastic_study_population"])
def test_load_curve_population_holds_one_n_by_d_array(make):
    # the one-shot formula peaks near three N x D arrays (161 MB here)
    grid = TimeGrid(np.linspace(0.0, 1.0, 336))
    tracemalloc.start()
    try:
        pop = make(grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pop.values.nbytes == 20000 * grid.size * 8
    assert peak < pop.values.nbytes + 16 * 2**20


def blocked_population(n_units, grid, beta, kernel, seed, aux_mean, scale_sd):
    """(aux, values) of generate_population from a sequential loop on one
    BLAS thread: GEN_BLOCK rows of the (N, D) draw at a time, drawn and
    then multiplied on the calling thread."""
    block = synthetic.GEN_BLOCK
    with linalg._one_blas_thread():
        rng = np.random.default_rng(seed)
        aux = np.ones((n_units, 1))
        if aux_mean is not None:
            aux = np.column_stack([aux, rng.normal(aux_mean, 1.0, n_units)])
        factor = synthetic._residual_factor(kernel, grid)
        values = np.empty((n_units, grid.size))
        for lo in range(0, n_units, block):
            z = rng.standard_normal((min(block, n_units - lo), grid.size))
            values[lo:lo + len(z)] = z @ factor.T
        if scale_sd is not None:
            scales = np.exp(scale_sd * rng.standard_normal(n_units))
            scales /= np.sqrt(np.mean(scales**2))
            values *= scales[:, None]
        for lo in range(0, n_units, block):
            values[lo:lo + block] += aux[lo:lo + block] @ beta
    return aux, values


LOAD_CURVE_POINTS = 336  # where a product's bits change with the thread count


@pytest.mark.parametrize("threads", [1, 2])
class TestBitsDoNotDependOnTheCallersBlasThreads:
    """Every population equals the sequential one-thread loop bit for bit,
    at one and at two caller BLAS threads, and leaves no thread behind."""

    @pytest.fixture(autouse=True)
    def at_count(self, threads, caller_at_two_blas_threads):
        linalg._set_blas_threads(threads)

    def test_study_population(self):
        before = threading.active_count()
        pop = study_population(2000, LOAD_CURVE_POINTS, seed=1204)
        assert threading.active_count() == before
        grid, beta = synthetic._study_trend(LOAD_CURVE_POINTS, 1.0)
        sigma2 = float(beta[1].mean()) ** 2 * (1.0 / 0.95**2 - 1.0)
        kernel = ResidualKernel(kind="exponential", sigma2=sigma2, length_scale=0.2)
        aux, values = blocked_population(2000, grid, beta, kernel, 1204, 5.0, None)
        assert np.array_equal(pop.aux, aux)
        assert np.array_equal(pop.values, values)

    def test_heteroscedastic_study_population(self):
        before = threading.active_count()
        pop = heteroscedastic_study_population(2000, LOAD_CURVE_POINTS, seed=3)
        assert threading.active_count() == before
        grid, beta = synthetic._study_trend(LOAD_CURVE_POINTS, 1.0)
        kernel = ResidualKernel(kind="exponential", sigma2=0.25, length_scale=0.2)
        aux, values = blocked_population(2000, grid, beta, kernel, 3, 5.0, 0.75)
        assert np.array_equal(pop.aux, aux)
        assert np.array_equal(pop.values, values)

    def test_intercept_only(self):
        grid = TimeGrid(np.linspace(0.0, 1.0, LOAD_CURVE_POINTS))
        args = (2 * synthetic.GEN_BLOCK + 300, grid, make_beta(None, grid),
                ResidualKernel(kind="exponential", sigma2=0.5))
        pop = generate_population(*args, seed=9)
        aux, values = blocked_population(*args, 9, None, None)
        assert np.array_equal(pop.aux, aux)
        assert np.array_equal(pop.values, values)
