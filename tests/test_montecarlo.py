import concurrent.futures
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from curvesurvey import estimators, linalg, montecarlo
from curvesurvey import (
    NumericalError,
    SamplingDesign,
    ValidationError,
    run_campaign,
    study_population,
)
from curvesurvey.grids import FunctionalPopulation
from curvesurvey.montecarlo import empirical_covariance


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


@pytest.fixture(scope="module")
def mc_pop():
    return study_population(400, 12, corr=0.93, seed=21)


class TestRunCampaign:
    def test_rmse_decomposition_identity(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=40)
        report = run_campaign(mc_pop, design, replicates=100, master_seed=5)
        assert report.rmse == pytest.approx(
            report.rb_squared + report.vr, abs=1e-10
        )
        qs = [report.er_quantiles[k] for k in ("q5", "q25", "median", "q75", "q95")]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert all(q >= 0 for q in qs)

    def test_reproducible_and_worker_independent(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=40)
        r1 = run_campaign(mc_pop, design, replicates=40, master_seed=9, workers=1)
        r2 = run_campaign(mc_pop, design, replicates=40, master_seed=9, workers=2)
        assert r1.rmse == r2.rmse
        assert np.array_equal(r1.gamma_emp.matrix, r2.gamma_emp.matrix)
        assert np.array_equal(r1.mean_gamma_diag, r2.mean_gamma_diag)

    def test_census_campaign_degenerate(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=mc_pop.N)
        report = run_campaign(mc_pop, design, replicates=10, master_seed=1)
        assert report.rmse == 0.0
        assert report.coverage is None
        assert report.n_errors == 10

    def test_coverage_flag_produces_rate(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=60)
        report = run_campaign(
            mc_pop, design, replicates=60, compute_coverage=True,
            alpha=0.05, band_sims=500, master_seed=2,
        )
        assert report.coverage is not None
        assert 0.7 <= report.coverage <= 1.0

    def test_ht_estimator_campaign(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=40)
        report = run_campaign(
            mc_pop, design, replicates=60, estimator="ht", master_seed=3
        )
        assert report.rmse > 0

    def test_failed_band_counts_as_error_and_keeps_estimate(self, mc_pop, monkeypatch):
        def no_band(*args, **kwargs):
            raise NumericalError("no band")

        monkeypatch.setattr(montecarlo, "covers", no_band)
        design = SamplingDesign(N=mc_pop.N, n=40)
        failed = run_campaign(mc_pop, design, replicates=20, compute_coverage=True,
                              master_seed=4)
        plain = run_campaign(mc_pop, design, replicates=20, master_seed=4)
        assert failed.n_errors == 20 and failed.coverage is None
        assert plain.n_errors == 0
        assert np.array_equal(failed.mean_curve, plain.mean_curve)

    def test_unknown_estimator(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=40)
        with pytest.raises(ValidationError):
            run_campaign(mc_pop, design, replicates=10, estimator="magic")


def _count_calls(monkeypatch, module, name):
    """Wrap module.name in every curvesurvey module that refers to it;
    returns the list of each call's keyword arguments."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    for key, loaded in list(sys.modules.items()):
        if key.startswith("curvesurvey") and getattr(loaded, name, None) is original:
            monkeypatch.setattr(loaded, name, counted)
    return calls


def _stratified(pop):
    half = pop.N // 2
    return SamplingDesign(N=pop.N, n=40,
                          strata=(np.arange(half), np.arange(half, pop.N)),
                          n_h=(25, 15))


class TestReplicateWork:
    """A replicate computes what the report reads: the variance curve, from
    one gather and one fit; the D x D matrix only for a coverage band."""

    @pytest.fixture(params=["srswor", "stratified"])
    def design(self, request, mc_pop):
        if request.param == "srswor":
            return SamplingDesign(N=mc_pop.N, n=40)
        return _stratified(mc_pop)

    @pytest.mark.parametrize("estimator", ["ma", "ht", "hajek"])
    def test_no_matrix_without_coverage(self, mc_pop, design, covariance_work,
                                        estimator):
        run_campaign(mc_pop, design, replicates=6, estimator=estimator)
        assert covariance_work["grams"] == 0
        assert covariance_work["rows"] == 6

    @pytest.mark.parametrize("coverage", [False, True])
    def test_ma_gathers_and_fits_once(self, mc_pop, design, monkeypatch,
                                      coverage):
        gathers = _count_calls(monkeypatch, estimators, "_sample_arrays")
        fits = _count_calls(monkeypatch, estimators, "_fit")
        run_campaign(mc_pop, design, replicates=5, compute_coverage=coverage,
                     band_sims=200)
        assert (len(gathers), len(fits)) == (5, 5)

    def test_coverage_forms_the_matrix_once(self, mc_pop, design,
                                            covariance_work):
        report = run_campaign(mc_pop, design, replicates=5,
                              compute_coverage=True, band_sims=200)
        assert report.coverage_bands == 5
        assert covariance_work["grams"] == 5
        assert covariance_work["rows"] == 5


class TestCoverageBands:
    def test_one_failed_band_is_left_out_of_the_rate(self, mc_pop, monkeypatch):
        flags, real = [], montecarlo.covers

        def third_band_fails(*args, **kwargs):
            if len(flags) == 2:
                flags.append(None)
                raise NumericalError("no band")
            flags.append(real(*args, **kwargs))
            return flags[-1]

        monkeypatch.setattr(montecarlo, "covers", third_band_fails)
        design = SamplingDesign(N=mc_pop.N, n=40)
        report = run_campaign(mc_pop, design, replicates=12,
                              compute_coverage=True, band_sims=400,
                              master_seed=4)
        built = [f for f in flags if f is not None]
        assert len(flags) == 12 and len(built) == 11
        assert report.coverage_bands == 11
        assert report.n_errors == 1
        assert report.coverage == np.mean(built)

    def test_zero_without_coverage(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=40)
        report = run_campaign(mc_pop, design, replicates=4)
        assert report.coverage is None and report.coverage_bands == 0


def _blas_threads():
    return linalg._openblas_entry("get_num_threads")()


class TestPoolBlasThreads:
    @pytest.fixture(autouse=True)
    def needs_openblas(self):
        if linalg._openblas_entry("get_num_threads") is None:
            pytest.skip("numpy is not linked against OpenBLAS")

    def test_worker_runs_one_blas_thread(self):
        with ProcessPoolExecutor(
            max_workers=1, initializer=montecarlo._start_worker, initargs=(None,)
        ) as pool:
            assert pool.submit(_blas_threads).result(timeout=60) == 1

    def test_parent_keeps_its_blas_threads(self, mc_pop):
        before = _blas_threads()
        design = SamplingDesign(N=mc_pop.N, n=40)
        run_campaign(mc_pop, design, replicates=8, master_seed=1, workers=2)
        assert _blas_threads() == before


class TestCallerBlasThreads:
    """A workers=1 campaign runs its replicates on one BLAS thread in the
    calling process, and gives the caller its own count back."""

    def test_replicate_reads_one_thread(self, mc_pop, monkeypatch,
                                        caller_at_two_blas_threads):
        seen = []
        replicate = montecarlo._run_replicate

        def recording(campaign, i):
            seen.append(_blas_threads())
            return replicate(campaign, i)

        monkeypatch.setattr(montecarlo, "_run_replicate", recording)
        design = SamplingDesign(N=mc_pop.N, n=40)
        run_campaign(mc_pop, design, replicates=6, master_seed=1)
        assert seen == [1] * 6
        assert _blas_threads() == 2

    def test_count_restored_when_a_replicate_raises(
            self, mc_pop, monkeypatch, caller_at_two_blas_threads):
        def broken(campaign, i):
            raise RuntimeError("not a CurveSurveyError")

        monkeypatch.setattr(montecarlo, "_run_replicate", broken)
        design = SamplingDesign(N=mc_pop.N, n=40)
        with pytest.raises(RuntimeError):
            run_campaign(mc_pop, design, replicates=6, master_seed=1)
        assert _blas_threads() == 2

    def test_results_do_not_depend_on_the_callers_count(
            self, mc_pop, caller_at_two_blas_threads):
        design = SamplingDesign(N=mc_pop.N, n=40)
        reports = []
        for threads in (1, 2):
            linalg._set_blas_threads(threads)
            reports.append(run_campaign(
                mc_pop, design, replicates=12, compute_coverage=True,
                band_sims=300, master_seed=6))
        one, two = reports
        assert one.coverage is not None and one.coverage == two.coverage
        assert one.n_errors == two.n_errors
        for name in ("mean_curve", "mean_gamma_diag"):
            assert np.array_equal(getattr(one, name), getattr(two, name))
        assert np.array_equal(one.gamma_emp.matrix, two.gamma_emp.matrix)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for and the threads alive when it would fork, and runs the replicates
    in this process, starting none."""

    sizes: list = []
    threads: list = []

    def __init__(self, max_workers, initializer, initargs):
        type(self).sizes.append(max_workers)
        type(self).threads.append(threading.active_count())
        self.campaign = initargs[0]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [montecarlo._run_replicate(self.campaign, i) for i in items]


def test_pool_is_no_larger_than_the_campaign(mc_pop, monkeypatch):
    # run_campaign imports the pool class when it needs a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    design = SamplingDesign(N=mc_pop.N, n=40)
    capped = run_campaign(mc_pop, design, replicates=10, master_seed=3,
                          workers=500)
    run_campaign(mc_pop, design, replicates=10, master_seed=3, workers=3)
    assert _RecordingPool.sizes == [10, 3]
    serial = run_campaign(mc_pop, design, replicates=10, master_seed=3)
    assert _RecordingPool.sizes == [10, 3]
    assert np.array_equal(capped.gamma_emp.matrix, serial.gamma_emp.matrix)


def test_no_helper_thread_is_alive_when_the_pool_forks(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "threads", [])
    before = threading.active_count()
    # three GEN_BLOCKs: the normals are drawn on a helper thread
    pop = study_population(3000, 8, seed=2)
    design = SamplingDesign(N=pop.N, n=40)
    run_campaign(pop, design, replicates=4, master_seed=1, workers=2)
    assert _RecordingPool.threads == [before]


class _CountedPopulation(FunctionalPopulation):
    """A population that counts how often it is pickled."""

    pickles = 0

    def __reduce_ex__(self, protocol):
        type(self).pickles += 1
        return super().__reduce_ex__(protocol)


def test_pool_receives_the_population_once_per_worker(mc_pop):
    pop = _CountedPopulation(grid=mc_pop.grid, values=mc_pop.values, aux=mc_pop.aux)
    design = SamplingDesign(N=pop.N, n=40)
    _CountedPopulation.pickles = 0
    pooled = run_campaign(pop, design, replicates=40, master_seed=9, workers=2)
    assert _CountedPopulation.pickles <= 2
    serial = run_campaign(mc_pop, design, replicates=40, master_seed=9)
    assert np.array_equal(pooled.gamma_emp.matrix, serial.gamma_emp.matrix)
