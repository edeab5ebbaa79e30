import numpy as np
import pytest

from curvesurvey import (
    ConfidenceBand,
    DegenerateVarianceError,
    MeanEstimate,
    ValidationError,
    build_band,
    contains,
    simulate_sup_quantile,
)
from curvesurvey import bands
from curvesurvey.covariance import CovarianceEstimate
from curvesurvey.linalg import cholesky_psd, psd_project, psd_repair
from curvesurvey.oracle import one_shot_sup_sample

Z_975 = 1.959963984540054  # standard normal 97.5% quantile
Z_75 = 0.6744897501960817


def cov_est(matrix):
    return CovarianceEstimate(matrix=np.asarray(matrix, dtype=float), kind="MA_estimated")


class TestSupQuantile:
    def test_univariate_gaussian_quantile(self):
        c = simulate_sup_quantile(np.array([[1.0]]), 0.05, 50_000, seed=0)
        assert abs(c - Z_975) < 0.03

    def test_rank_one_collapses_to_univariate(self):
        # perfectly correlated components: sup of identical copies
        perfect = np.ones((6, 6))
        c_multi = simulate_sup_quantile(perfect, 0.05, 50_000, seed=1)
        c_uni = simulate_sup_quantile(np.array([[1.0]]), 0.05, 50_000, seed=2)
        assert abs(c_multi - c_uni) < 0.04

    def test_median_alpha(self):
        c = simulate_sup_quantile(np.array([[1.0]]), 0.5, 100_000, seed=3)
        assert abs(c - Z_75) < 0.01

    def test_monotone_in_alpha_with_shared_draws(self):
        cov = np.eye(4) + 0.5 * (np.ones((4, 4)) - np.eye(4))
        cs = [
            simulate_sup_quantile(cov, alpha, 5000, seed=4)
            for alpha in (0.01, 0.05, 0.2, 0.5)
        ]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_dominates_univariate_quantile(self):
        cov = np.diag([1.0, 2.0, 0.5, 1.5])
        c = simulate_sup_quantile(cov, 0.05, 50_000, seed=5)
        assert c >= Z_975 - 0.03

    def test_deterministic_given_seed(self):
        cov = np.eye(3)
        a = simulate_sup_quantile(cov, 0.1, 2000, seed=42)
        b = simulate_sup_quantile(cov, 0.1, 2000, seed=42)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValidationError):
            simulate_sup_quantile(np.eye(2), 1.5, 1000, seed=0)
        with pytest.raises(ValidationError):
            simulate_sup_quantile(np.eye(2), 0.05, 50, seed=0)

    def test_degenerate_variance_refused(self):
        with pytest.raises(DegenerateVarianceError):
            simulate_sup_quantile(np.diag([1.0, 0.0]), 0.05, 1000, seed=0)


class TestBuildBand:
    def make_band(self, cov_matrix, seed=7, n=100):
        est = MeanEstimate(
            curve=np.zeros(cov_matrix.shape[0]), estimator_kind="ModelAssisted"
        )
        return build_band(est, cov_est(cov_matrix), n=n, alpha=0.05,
                          n_sims=2000, seed=seed)

    def test_zero_covariance_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            self.make_band(np.zeros((3, 3)))

    def test_doubling_cov_scales_half_width(self):
        cov = np.eye(3) * 0.02 + 0.01
        band1 = self.make_band(cov, seed=8)
        band2 = self.make_band(2 * cov, seed=8)
        assert np.allclose(band2.half_width, np.sqrt(2.0) * band1.half_width,
                           rtol=1e-10)
        assert band2.c_alpha == pytest.approx(band1.c_alpha, rel=1e-12)

    def test_half_width_formula(self):
        cov = np.diag([0.04, 0.09])
        band = self.make_band(cov, n=400)
        # half width = c_alpha * sqrt(gamma(t,t)) regardless of n
        assert np.allclose(band.half_width, band.c_alpha * np.array([0.2, 0.3]))


class TestContains:
    def band(self):
        return ConfidenceBand(
            center=np.array([0.0, 1.0]),
            half_width=np.array([0.5, 0.5]),
            c_alpha=2.0,
            alpha=0.05,
            n_sims=1000,
        )

    def test_truth_at_center(self):
        assert contains(self.band(), np.array([0.0, 1.0]))

    def test_excursion_at_one_point(self):
        assert not contains(self.band(), np.array([0.0, 1.6]))

    def test_boundary_is_inside(self):
        assert contains(self.band(), np.array([0.5, 1.5]))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            contains(self.band(), np.array([0.0, 1.0, 2.0]))


def _pd_cov(d=12, seed=0):
    a = np.random.default_rng(seed).standard_normal((d, d))
    return a @ a.T / d + 0.1 * np.eye(d)


def _indefinite_cov(d=12, seed=5):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    w = np.linspace(2.0, 0.1, d)
    w[-1] = -0.05
    return (q * w) @ q.T


def _semidefinite_cov():
    # rank 2 of 3: the first two grid points move together
    return np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])


COVS = {
    "definite": _pd_cov(),
    "indefinite": _indefinite_cov(),
    "semidefinite": _semidefinite_cov(),
}


class TestSupKernel:
    """The blocked sup kernel against its one-shot oracle twin."""

    @pytest.mark.parametrize(
        "n_sims",
        [100, bands.SIM_BLOCK - 1, bands.SIM_BLOCK, bands.SIM_BLOCK + 1, 5000],
    )
    def test_matches_one_shot_sampler(self, n_sims):
        # the whole one-shot pipeline: repair, Cholesky, one draw, full sort
        cov = COVS["definite"]
        projected = psd_project(cov)
        sigma = np.sqrt(np.diag(projected))
        expected = one_shot_sup_sample(
            cholesky_psd(projected), sigma, n_sims, np.random.default_rng(11)
        )
        scaled, _ = bands._scaled_factor(cov)
        sups = bands._sup_sample(scaled, n_sims, np.random.default_rng(11))
        assert np.abs(sups - expected).max() <= 1e-12 * expected.max()
        k = int(np.ceil(0.95 * n_sims))
        c_alpha = simulate_sup_quantile(cov, 0.05, n_sims, seed=11)
        assert c_alpha == pytest.approx(np.sort(expected)[k - 1], rel=1e-12)

    @pytest.mark.parametrize("name", ["indefinite", "semidefinite"])
    def test_matches_one_shot_sampler_on_eigen_factor(self, name):
        projected, factor = psd_repair(COVS[name])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(projected)
        sigma = np.sqrt(np.diag(projected))
        scaled, band_sigma = bands._scaled_factor(COVS[name])
        assert np.array_equal(band_sigma, sigma)
        assert np.array_equal(scaled, factor / sigma[:, None])
        expected = one_shot_sup_sample(
            factor, sigma, 3000, np.random.default_rng(4)
        )
        sups = bands._sup_sample(scaled, 3000, np.random.default_rng(4))
        assert np.abs(sups - expected).max() <= 1e-12 * expected.max()

    @pytest.mark.parametrize("name", sorted(COVS))
    def test_one_eigh_per_band(self, monkeypatch, name):
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        cov = COVS[name]
        est = MeanEstimate(curve=np.zeros(cov.shape[0]), estimator_kind="ModelAssisted")
        build_band(est, cov_est(cov), n=50, alpha=0.05, n_sims=500, seed=1)
        assert len(calls) == 1
