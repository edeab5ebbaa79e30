import ctypes
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from curvesurvey import montecarlo
from curvesurvey import (
    SamplingDesign,
    ValidationError,
    empirical_covariance,
    integrated_mse,
    relative_error,
    replicate_estimates,
    run_campaign,
    study_population,
)
from curvesurvey.covariance import CovarianceEstimate


def cov_from_diag(diag):
    return CovarianceEstimate(matrix=np.diag(np.asarray(diag, float)), kind="x")


class TestEmpiricalCovariance:
    def test_identical_replicates_zero(self):
        est = empirical_covariance(np.ones((5, 3)))
        assert np.abs(est.matrix).max() == 0.0

    def test_two_replicates_hand_case(self):
        # deviations are -1 and +1 at both points; 1/I normalization
        est = empirical_covariance(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(est.matrix, 1.0)

    def test_standard_normal_rows(self):
        rng = np.random.default_rng(0)
        est = empirical_covariance(rng.standard_normal((1000, 3)))
        diag = np.diag(est.matrix)
        assert np.all(diag > 0.9) and np.all(diag < 1.1)
        off = est.matrix - np.diag(diag)
        assert np.abs(off).max() < 0.1

    def test_needs_two_replicates(self):
        with pytest.raises(ValidationError):
            empirical_covariance(np.ones((1, 3)))


class TestRelativeError:
    def test_zero_when_equal(self):
        ref = cov_from_diag([1.0, 2.0, 3.0])
        assert relative_error(ref, ref) == 0.0

    def test_doubled_diagonal(self):
        ref = cov_from_diag([1.0, 2.0])
        est = cov_from_diag([2.0, 4.0])
        assert relative_error(est, ref) == pytest.approx(1.0)

    def test_zero_estimate(self):
        ref = cov_from_diag([1.0, 2.0])
        est = cov_from_diag([0.0, 0.0])
        assert relative_error(est, ref) == pytest.approx(1.0)

    def test_rejects_zero_reference(self):
        with pytest.raises(ValidationError):
            relative_error(cov_from_diag([1.0]), cov_from_diag([0.0]))


@pytest.fixture(scope="module")
def mc_pop():
    return study_population(400, 12, corr=0.93, seed=21)


class TestRunCampaign:
    def test_rmse_decomposition_identity(self, mc_pop):
        design = SamplingDesign(kind="srswor", N=mc_pop.N, n=40)
        report = run_campaign(mc_pop, design, replicates=100, master_seed=5)
        assert report.rmse == pytest.approx(
            report.rb_squared + report.vr, abs=1e-10
        )
        qs = [report.er_quantiles[k] for k in ("q5", "q25", "median", "q75", "q95")]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert all(q >= 0 for q in qs)

    def test_reproducible_and_worker_independent(self, mc_pop):
        design = SamplingDesign(kind="srswor", N=mc_pop.N, n=40)
        r1 = run_campaign(mc_pop, design, replicates=40, master_seed=9, workers=1)
        r2 = run_campaign(mc_pop, design, replicates=40, master_seed=9, workers=2)
        assert r1.rmse == r2.rmse
        assert np.array_equal(r1.gamma_emp.matrix, r2.gamma_emp.matrix)
        assert np.array_equal(r1.mean_gamma_diag, r2.mean_gamma_diag)

    def test_census_campaign_degenerate(self, mc_pop):
        design = SamplingDesign(kind="srswor", N=mc_pop.N, n=mc_pop.N)
        report = run_campaign(mc_pop, design, replicates=10, master_seed=1)
        assert report.rmse == 0.0
        assert report.coverage is None
        assert report.n_errors == 10

    def test_coverage_flag_produces_rate(self, mc_pop):
        design = SamplingDesign(kind="srswor", N=mc_pop.N, n=60)
        report = run_campaign(
            mc_pop, design, replicates=60, compute_coverage=True,
            alpha=0.05, band_sims=500, master_seed=2,
        )
        assert report.coverage is not None
        assert 0.7 <= report.coverage <= 1.0

    def test_ht_estimator_campaign(self, mc_pop):
        design = SamplingDesign(kind="srswor", N=mc_pop.N, n=40)
        report = run_campaign(
            mc_pop, design, replicates=60, estimator="ht", master_seed=3
        )
        assert report.rmse > 0

    def test_unknown_estimator(self, mc_pop):
        design = SamplingDesign(kind="srswor", N=mc_pop.N, n=40)
        with pytest.raises(ValidationError):
            run_campaign(mc_pop, design, replicates=10, estimator="magic")


def _blas_threads():
    get_threads = montecarlo._openblas_entry("get_num_threads")
    get_threads.restype = ctypes.c_int
    return get_threads()


class TestPoolBlasThreads:
    @pytest.fixture(autouse=True)
    def needs_openblas(self):
        if montecarlo._openblas_entry("get_num_threads") is None:
            pytest.skip("numpy is not linked against OpenBLAS")

    def test_worker_runs_one_blas_thread(self):
        with ProcessPoolExecutor(
            max_workers=1, initializer=montecarlo._single_blas_thread
        ) as pool:
            assert pool.submit(_blas_threads).result(timeout=60) == 1

    def test_parent_keeps_its_blas_threads(self, mc_pop):
        before = _blas_threads()
        design = SamplingDesign(kind="srswor", N=mc_pop.N, n=40)
        run_campaign(mc_pop, design, replicates=8, master_seed=1, workers=2)
        assert _blas_threads() == before


class TestReplicateEstimates:
    def test_shapes_and_determinism(self, mc_pop):
        design = SamplingDesign(kind="srswor", N=mc_pop.N, n=30)
        a = replicate_estimates(mc_pop, design, 15, estimator="ht", master_seed=4)
        b = replicate_estimates(mc_pop, design, 15, estimator="ht", master_seed=4)
        assert a.shape == (15, mc_pop.grid.size)
        assert np.array_equal(a, b)

    def test_integrated_mse_zero_for_truth(self, mc_pop):
        from curvesurvey import population_mean

        truth = population_mean(mc_pop)
        assert integrated_mse(np.tile(truth, (3, 1)), truth) == 0.0
