from functools import cached_property

import numpy as np
import pytest

from curvesurvey import SamplingDesign, covariance, linalg
from curvesurvey.covariance import CovarianceEstimate
from curvesurvey.grids import FunctionalPopulation, TimeGrid
from curvesurvey.oracle import default_fixture


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def caller_at_two_blas_threads():
    """Run the test with the calling process at 2 BLAS threads, then put
    its count back."""
    before = linalg._set_blas_threads(2)
    if before is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    yield
    linalg._set_blas_threads(before)


@pytest.fixture
def tiny_fixture():
    """N=5, n=2, p=2, D=4 population + SRSWOR design for enumeration checks."""
    return default_fixture()


@pytest.fixture
def small_pop(rng):
    """Hand-sized random population: N=20, D=6, p=2 with intercept."""
    grid = TimeGrid(np.linspace(0.0, 1.0, 6))
    z = rng.normal(4.0, 1.0, 20)
    aux = np.column_stack([np.ones(20), z])
    beta = np.vstack([1.0 + grid.points, 0.8 * np.ones(6)])
    values = aux @ beta + 0.3 * rng.standard_normal((20, 6))
    return FunctionalPopulation(grid=grid, values=values, aux=aux)


@pytest.fixture
def small_design(small_pop):
    return SamplingDesign(N=small_pop.N, n=6)


@pytest.fixture
def covariance_work(monkeypatch):
    """Counts, while the test runs, of the covariance row builds (each also
    computes its variance function) and of the D x D Gram matrices formed
    from them: a dict with keys "rows" and "grams"."""
    counts = {"rows": 0, "grams": 0}
    build = covariance._centred_covariance
    gram = CovarianceEstimate.__dict__["matrix"].func

    def counted_build(*args, **kwargs):
        counts["rows"] += 1
        return build(*args, **kwargs)

    def counted_gram(self):
        counts["grams"] += 1
        return gram(self)

    matrix = cached_property(counted_gram)
    matrix.__set_name__(CovarianceEstimate, "matrix")
    monkeypatch.setattr(covariance, "_centred_covariance", counted_build)
    monkeypatch.setattr(CovarianceEstimate, "matrix", matrix)
    return counts
