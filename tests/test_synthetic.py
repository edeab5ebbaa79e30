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
from curvesurvey.synthetic import (
    AuxSpec,
    ResidualKernel,
    SuperpopulationConfig,
    generate_population,
)

GRID = TimeGrid(np.linspace(0.0, 1.0, 8))


def make_cfg(sigma2=1.0, kernel="white", aux_kind="gaussian", seed=0):
    p = 1 if aux_kind == "intercept_only" else 2
    beta = np.vstack([2.0 + GRID.points, 1.5 * np.ones(8)])[:p]
    return SuperpopulationConfig(
        beta_curves=beta,
        kernel=ResidualKernel(kind=kernel, sigma2=sigma2),
        aux=AuxSpec(kind=aux_kind),
        seed=seed,
    )


def test_noiseless_model_is_exact():
    cfg = make_cfg(sigma2=0.0)
    pop = generate_population(cfg, 50, GRID)
    assert np.allclose(pop.values, pop.aux @ cfg.beta_curves, atol=1e-12)


def test_fixed_seed_reproducible():
    a = generate_population(make_cfg(seed=42), 30, GRID)
    b = generate_population(make_cfg(seed=42), 30, GRID)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.aux, b.aux)


def test_white_noise_variance_concentrates():
    cfg = make_cfg(sigma2=1.0, kernel="white", seed=3)
    pop = generate_population(cfg, 10_000, GRID)
    eps = pop.values - pop.aux @ cfg.beta_curves
    per_point_var = eps.var(axis=0)
    assert np.all(per_point_var > 0.94) and np.all(per_point_var < 1.06)


def test_intercept_only_noiseless_rows_constant():
    cfg = make_cfg(sigma2=0.0, aux_kind="intercept_only")
    pop = generate_population(cfg, 10, GRID)
    assert np.allclose(pop.values, cfg.beta_curves[0], atol=1e-12)


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
    with pytest.raises(ConfigurationError):
        generate_population(make_cfg(), 0, GRID)
    with pytest.raises(ConfigurationError):
        AuxSpec(kind="weird")


def test_past_mean_aux_has_intercept():
    cfg = SuperpopulationConfig(
        beta_curves=np.vstack([np.ones(8), np.ones(8)]),
        kernel=ResidualKernel(kind="exponential", sigma2=0.5),
        aux=AuxSpec(kind="past_mean", mean=5.0, sd=1.0),
        seed=1,
    )
    pop = generate_population(cfg, 200, GRID)
    assert np.all(pop.aux[:, 0] == 1.0)
    assert abs(pop.aux[:, 1].mean() - 5.0) < 0.5


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


def one_shot_population(cfg, n_units, grid):
    """(aux, values) from the unblocked formula: each (N, D) draw and
    product formed at once.  The test twin of the blocked generator."""
    rng = np.random.default_rng(cfg.seed)
    factor = synthetic._residual_factor(cfg.kernel, grid)
    ones = np.ones(n_units)
    if cfg.aux.kind == "intercept_only":
        aux = ones[:, None]
    else:
        base = rng.normal(cfg.aux.mean, cfg.aux.sd, n_units)
        if cfg.aux.kind == "past_mean":
            z = rng.standard_normal((n_units, grid.size))
            base = (base[:, None] + z @ factor.T).mean(axis=1)
        aux = np.column_stack([ones, base])
    eps = rng.standard_normal((n_units, grid.size)) @ factor.T
    return aux, aux @ cfg.beta_curves + eps


def one_shot_heteroscedastic(n_units, n_points, seed):
    """The unblocked formula of heteroscedastic_study_population's defaults."""
    rng = np.random.default_rng(seed)
    grid = TimeGrid(np.linspace(0.0, 1.0, n_points))
    beta = np.vstack([2.0 + np.sin(2.0 * np.pi * grid.points),
                      1.5 + 0.1 * np.cos(2.0 * np.pi * grid.points)])
    aux = np.column_stack([np.ones(n_units), rng.normal(5.0, 1.0, n_units)])
    kernel = ResidualKernel(kind="exponential", sigma2=0.25, length_scale=0.2)
    z = rng.standard_normal((n_units, n_points))
    eta = z @ synthetic._residual_factor(kernel, grid).T
    scales = np.exp(0.75 * rng.standard_normal(n_units))
    scales /= np.sqrt(np.mean(scales**2))
    return aux, aux @ beta + scales[:, None] * eta


def assert_close(actual, expected):
    """Equal to 1e-12 relative to the largest entry."""
    assert actual.shape == expected.shape
    assert np.abs(actual - expected).max() <= 1e-12 * np.abs(expected).max()


BLOCK_SIZES = [1, synthetic.GEN_BLOCK - 1, synthetic.GEN_BLOCK,
               synthetic.GEN_BLOCK + 1, 2 * synthetic.GEN_BLOCK + 300]


@pytest.mark.parametrize("n_units", BLOCK_SIZES)
@pytest.mark.parametrize("aux_kind", ["intercept_only", "gaussian", "past_mean"])
def test_blocked_population_matches_one_shot_formula(n_units, aux_kind):
    cfg = make_cfg(sigma2=0.7, kernel="exponential", aux_kind=aux_kind,
                   seed=n_units)
    pop = generate_population(cfg, n_units, GRID)
    aux, values = one_shot_population(cfg, n_units, GRID)
    assert_close(pop.aux, aux)
    assert_close(pop.values, values)


@pytest.mark.parametrize("n_units", BLOCK_SIZES)
def test_blocked_heteroscedastic_population_matches_one_shot_formula(n_units):
    pop = heteroscedastic_study_population(n_units, 8, seed=n_units)
    aux, values = one_shot_heteroscedastic(n_units, 8, seed=n_units)
    assert_close(pop.aux, aux)
    assert_close(pop.values, values)


@pytest.mark.parametrize("aux_kind", ["gaussian", "past_mean"])
def test_load_curve_population_holds_one_n_by_d_array(aux_kind):
    # the one-shot formula peaks near three N x D arrays (161 MB here)
    n_units, grid = 20000, TimeGrid(np.linspace(0.0, 1.0, 336))
    cfg = SuperpopulationConfig(
        beta_curves=np.vstack([2.0 + grid.points, 1.5 * np.ones(grid.size)]),
        kernel=ResidualKernel(kind="exponential", sigma2=0.5),
        aux=AuxSpec(kind=aux_kind),
        seed=5,
    )
    tracemalloc.start()
    try:
        pop = generate_population(cfg, n_units, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pop.values.nbytes == n_units * grid.size * 8
    assert peak < pop.values.nbytes + 16 * 2**20


def blocked_population(cfg, n_units, grid):
    """(aux, values) of generate_population from a sequential loop on one
    BLAS thread: GEN_BLOCK rows of each (N, D) draw at a time, drawn and
    then multiplied on the calling thread."""
    block = synthetic.GEN_BLOCK

    def residuals(rng, factor):
        out = np.empty((n_units, grid.size))
        for lo in range(0, n_units, block):
            z = rng.standard_normal((min(block, n_units - lo), grid.size))
            out[lo:lo + len(z)] = z @ factor.T
        return out

    with linalg._one_blas_thread():
        rng = np.random.default_rng(cfg.seed)
        factor = synthetic._residual_factor(cfg.kernel, grid)
        ones = np.ones(n_units)
        if cfg.aux.kind == "intercept_only":
            aux = ones[:, None]
        else:
            base = rng.normal(cfg.aux.mean, cfg.aux.sd, n_units)
            if cfg.aux.kind == "past_mean":
                base = (base[:, None] + residuals(rng, factor)).mean(axis=1)
            aux = np.column_stack([ones, base])
        values = residuals(rng, factor)
        for lo in range(0, n_units, block):
            values[lo:lo + block] += aux[lo:lo + block] @ cfg.beta_curves
    return aux, values


def blocked_heteroscedastic(n_units, n_points, seed):
    """heteroscedastic_study_population's defaults as the same loop."""
    block = synthetic.GEN_BLOCK
    with linalg._one_blas_thread():
        rng = np.random.default_rng(seed)
        grid, beta = synthetic._study_trend(n_points, 1.0)
        aux = np.column_stack([np.ones(n_units), rng.normal(5.0, 1.0, n_units)])
        kernel = ResidualKernel(kind="exponential", sigma2=0.25, length_scale=0.2)
        factor = synthetic._residual_factor(kernel, grid)
        values = np.empty((n_units, n_points))
        for lo in range(0, n_units, block):
            z = rng.standard_normal((min(block, n_units - lo), n_points))
            values[lo:lo + len(z)] = z @ factor.T
        scales = np.exp(0.75 * rng.standard_normal(n_units))
        scales /= np.sqrt(np.mean(scales**2))
        values *= scales[:, None]
        for lo in range(0, n_units, block):
            values[lo:lo + block] += aux[lo:lo + block] @ beta
    return aux, values


def study_cfg(n_points, seed, corr=0.95):
    """The SuperpopulationConfig study_population builds."""
    grid, beta = synthetic._study_trend(n_points, 1.0)
    sigma2 = float(beta[1].mean()) ** 2 * (1.0 / corr**2 - 1.0)
    return grid, SuperpopulationConfig(
        beta_curves=beta,
        kernel=ResidualKernel(kind="exponential", sigma2=sigma2, length_scale=0.2),
        aux=AuxSpec(kind="gaussian", mean=5.0, sd=1.0),
        seed=seed,
    )


LOAD_CURVE_POINTS = 336  # where a product's bits change with the thread count


@pytest.mark.parametrize("threads", [1, 2])
class TestBitsDoNotDependOnTheCallersBlasThreads:
    """Every generator equals the sequential one-thread loop bit for bit,
    at one and at two caller BLAS threads, and leaves no thread behind."""

    @pytest.fixture(autouse=True)
    def at_count(self, threads, caller_at_two_blas_threads):
        linalg._set_blas_threads(threads)

    def test_study_population(self):
        before = threading.active_count()
        pop = study_population(2000, LOAD_CURVE_POINTS, seed=1204)
        assert threading.active_count() == before
        grid, cfg = study_cfg(LOAD_CURVE_POINTS, seed=1204)
        aux, values = blocked_population(cfg, 2000, grid)
        assert np.array_equal(pop.aux, aux)
        assert np.array_equal(pop.values, values)

    def test_heteroscedastic_study_population(self):
        before = threading.active_count()
        pop = heteroscedastic_study_population(2000, LOAD_CURVE_POINTS, seed=3)
        assert threading.active_count() == before
        aux, values = blocked_heteroscedastic(2000, LOAD_CURVE_POINTS, seed=3)
        assert np.array_equal(pop.aux, aux)
        assert np.array_equal(pop.values, values)

    @pytest.mark.parametrize("aux_kind", ["intercept_only", "past_mean"])
    def test_generate_population(self, aux_kind):
        grid = TimeGrid(np.linspace(0.0, 1.0, LOAD_CURVE_POINTS))
        p = 1 if aux_kind == "intercept_only" else 2
        cfg = SuperpopulationConfig(
            beta_curves=np.vstack([2.0 + grid.points, 1.5 * np.ones(grid.size)])[:p],
            kernel=ResidualKernel(kind="exponential", sigma2=0.5),
            aux=AuxSpec(kind=aux_kind),
            seed=9,
        )
        n_units = 2 * synthetic.GEN_BLOCK + 300
        pop = generate_population(cfg, n_units, grid)
        aux, values = blocked_population(cfg, n_units, grid)
        assert np.array_equal(pop.aux, aux)
        assert np.array_equal(pop.values, values)
