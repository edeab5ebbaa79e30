import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesurvey import DegenerateVarianceError, ValidationError, build_band
from curvesurvey import bands, linalg
from curvesurvey.bands import (
    ConfidenceBand,
    contains,
    covers,
    simulate_sup_quantile,
)
from curvesurvey.covariance import CovarianceEstimate
from curvesurvey.estimators import MeanEstimate
from curvesurvey.linalg import cholesky_psd, psd_project, psd_repair
from curvesurvey.oracle import one_shot_sup_sample

Z_975 = 1.959963984540054  # standard normal 97.5% quantile
Z_75 = 0.6744897501960817


def cov_est(matrix):
    """A covariance estimate holding the given, possibly indefinite, matrix:
    the bands read only its `matrix`."""
    cov = CovarianceEstimate.__new__(CovarianceEstimate)
    cov.matrix = np.asarray(matrix, dtype=float)
    return cov


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
        sups = bands._band_sups(scaled, n_sims, np.random.default_rng(11))
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
        sups = bands._band_sups(scaled, 3000, np.random.default_rng(4))
        assert np.abs(sups - expected).max() <= 1e-12 * expected.max()

    @pytest.mark.parametrize("name", sorted(COVS))
    def test_one_eigh_per_band(self, monkeypatch, name):
        # Cholesky of n * cov runs first; only a matrix it refuses gets the
        # eigen repair, once, whether the band is built or only tested
        eighs = 0 if name == "definite" else 1
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        cov = COVS[name]
        est = MeanEstimate(curve=np.zeros(cov.shape[0]), estimator_kind="ModelAssisted")
        build_band(est, cov_est(cov), n=50, alpha=0.05, n_sims=500, seed=1)
        assert len(calls) == eighs
        covers(est, cov_est(cov), 50, 0.05, 500, 1, np.zeros(cov.shape[0]))
        assert len(calls) == 2 * eighs


def _filled_sups(scaled, n_sims, rng):
    """A band's sups from covers' loop: SIM_BLOCK tiles drawn and
    multiplied on the calling thread."""
    sups, product = np.empty(n_sims), np.empty(bands.SIM_BLOCK * scaled.shape[0])
    for lo in range(0, n_sims, bands.SIM_BLOCK):
        z = rng.standard_normal((min(bands.SIM_BLOCK, n_sims - lo), scaled.shape[0]))
        bands._tile_sups(scaled, z, sups[lo:lo + len(z)], product)
    return sups


class TestTileSups:
    """The one sup product that the band and covers share."""

    @pytest.mark.parametrize("m", [1, 7, bands.SIM_BLOCK])
    @pytest.mark.parametrize("name", sorted(COVS))
    def test_a_reused_buffer_gives_a_fresh_buffers_sups(self, name, m):
        # covers and the band reuse one product buffer of a whole tile,
        # also for a short last tile: what it held before must not leak
        scaled, _ = bands._scaled_factor(COVS[name])
        d = scaled.shape[0]
        rng = np.random.default_rng(m)
        product = np.full(bands.SIM_BLOCK * d, np.nan)
        bands._tile_sups(scaled, rng.standard_normal((bands.SIM_BLOCK, d)),
                         np.empty(bands.SIM_BLOCK), product)
        z = rng.standard_normal((m, d))
        out = np.full(m + 2, -1.0)
        tile = bands._tile_sups(scaled, z, out[1:-1], product)
        assert np.shares_memory(tile, out) and out[0] == out[-1] == -1.0
        fresh = bands._tile_sups(scaled, z, np.empty(m), np.empty(m * d))
        assert np.array_equal(tile, fresh)
        direct = np.abs(scaled @ z.T).max(axis=0)
        assert np.abs(tile - direct).max() <= 1e-12 * direct.max()


class TestBandSups:
    """The band's tiles, drawn on a helper thread, against the sequential
    loop; and c_alpha at the load-curve D against the caller's BLAS count."""

    @pytest.mark.parametrize(
        "n_sims", [100, bands.SIM_BLOCK, bands.SIM_BLOCK + 1, 3 * bands.SIM_BLOCK - 5])
    @pytest.mark.parametrize("name", sorted(COVS))
    def test_equal_to_the_sequential_loop(self, n_sims, name):
        scaled, _ = bands._scaled_factor(COVS[name])
        rng = np.random.default_rng(21)
        before = threading.active_count()
        sups = bands._band_sups(scaled, n_sims, rng)
        assert threading.active_count() == before
        assert np.array_equal(sups, _filled_sups(scaled, n_sims,
                                                 np.random.default_rng(21)))
        reference = np.random.default_rng(21)
        reference.standard_normal((n_sims, scaled.shape[0]))
        assert rng.bit_generator.state == reference.bit_generator.state

    def test_c_alpha_at_336_points_does_not_depend_on_the_callers_count(
            self, caller_at_two_blas_threads):
        # a Gram matrix of rank 200 < D, as from a sample of n = 200: its
        # Cholesky fails, so the band's factor comes from eigh
        rows = np.random.default_rng(3).standard_normal((200, 336))
        est, cov = _zero_estimate(336), cov_est(rows.T @ rows / 200)
        built = []
        for threads in (1, 2):
            linalg._set_blas_threads(threads)
            before = threading.active_count()
            built.append(build_band(est, cov, n=200, alpha=0.05, n_sims=3000,
                                    seed=17))
            assert threading.active_count() == before
        one, two = built
        assert one.c_alpha == two.c_alpha
        assert np.array_equal(one.half_width, two.half_width)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_covers_decides_the_band_edge_at_336_points(
            self, seed, caller_at_two_blas_threads):
        # covers factors and multiplies on one thread as the band does, so
        # truth on the band's edge, or one float beyond it, gets its flag
        rows = np.random.default_rng(seed).standard_normal((200, 336)) / 200
        est, cov = _zero_estimate(336), CovarianceEstimate(rows)
        band = build_band(est, cov, n=200, alpha=0.05, n_sims=1000, seed=seed)
        edge = band.center + band.half_width
        for truth, inside in ((edge, True), (np.nextafter(edge, np.inf), False)):
            assert contains(band, truth) is inside
            assert covers(est, cov, 200, 0.05, 1000, seed, truth) is inside


def _zero_estimate(d):
    return MeanEstimate(curve=np.zeros(d), estimator_kind="ModelAssisted")


def _oracle_covers(estimate, cov, n, alpha, n_sims, seed, truth):
    band = build_band(estimate, cov, n=n, alpha=alpha, n_sims=n_sims, seed=seed)
    return contains(band, truth)


def _assert_covers_matches_oracle(estimate, cov, n, alpha, n_sims, seed, truth):
    expected = _oracle_covers(estimate, cov, n, alpha, n_sims, seed, truth)
    assert covers(estimate, cov, n, alpha, n_sims, seed, truth) is expected
    return expected


class TestCovers:
    """The early-stopping coverage flag against its twin
    contains(build_band(...), truth)."""

    @given(
        d=st.integers(1, 8),
        cov_seed=st.integers(0, 2**32 - 1),
        ridge=st.sampled_from([-0.2, 0.0, 0.05, 1.0]),
        n=st.integers(1, 500),
        alpha=st.floats(0.001, 0.6),
        n_sims=st.integers(100, 2500),
        spread=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
        special=st.sampled_from(
            [None, "center", "inf", "-inf", "nan", "overflow", "huge"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle(self, d, cov_seed, ridge, n, alpha, n_sims,
                            spread, seed, special):
        # a negative ridge makes some covariances indefinite
        rng = np.random.default_rng(cov_seed)
        a = rng.standard_normal((d, d))
        matrix = a @ a.T / d + ridge * np.eye(d)
        center = rng.standard_normal(d)
        # the band's half-width is c_alpha * sqrt(diag), whatever n is
        truth = center + spread * np.sqrt(np.abs(np.diag(matrix))) * \
            rng.uniform(-1.0, 1.0, d)
        j = int(rng.integers(d))
        if special == "center":  # a zero deviation everywhere
            truth = center.copy()
        elif special in ("inf", "-inf", "nan"):
            truth[j] = float(special)
        elif special == "overflow":  # deviation / sigma_hat overflows
            matrix *= 1e-300
            truth[j] = center[j] + 1e300
        elif special == "huge":  # deviation * sqrt(n) overflows
            truth[j] = center[j] - 1.5e308
        estimate = MeanEstimate(curve=center, estimator_kind="ModelAssisted")
        args = (estimate, cov_est(matrix), n, alpha, n_sims, seed, truth)
        try:
            expected = _oracle_covers(*args)
        except DegenerateVarianceError:
            with pytest.raises(DegenerateVarianceError):
                covers(*args)
            return
        assert covers(*args) is expected
        if special is not None:
            assert expected is (special == "center")

    @pytest.mark.parametrize(
        "n_sims, alpha",
        [(100, 0.05), (bands.SIM_BLOCK - 1, 0.05), (bands.SIM_BLOCK, 0.05),
         (bands.SIM_BLOCK + 1, 0.05), (5000, 0.05), (bands.SIM_BLOCK + 1, 1e-4)],
    )
    @pytest.mark.parametrize("name", sorted(COVS))
    def test_truth_on_and_around_the_band_edge(self, name, n_sims, alpha):
        cov = cov_est(COVS[name])
        d = cov.matrix.shape[0]
        estimate = _zero_estimate(d)
        band = build_band(estimate, cov, n=50, alpha=alpha, n_sims=n_sims, seed=9)
        edge = band.half_width[d - 1]
        outcomes = []
        # with a zero center, truth = half_width is exactly on the edge (a
        # tie, which the closed interval covers); one ulp further is outside
        for value in (0.0, 0.9 * edge, edge, np.nextafter(edge, np.inf),
                      1.1 * edge):
            truth = np.zeros(d)
            truth[d - 1] = value
            outcomes.append(_assert_covers_matches_oracle(
                estimate, cov, 50, alpha, n_sims, 9, truth))
        assert outcomes == [True, True, True, False, False]

    def test_alpha_with_k_equal_to_n_sims(self):
        n_sims, alpha = bands.SIM_BLOCK + 1, 1e-4
        assert bands._quantile_rank(alpha, n_sims) == n_sims

    @pytest.mark.parametrize("name", ["indefinite", "semidefinite"])
    def test_eigen_factor_path(self, name):
        # n = 1, so n * cov is the matrix whose repair Cholesky refuses
        cov = cov_est(COVS[name])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(psd_repair(cov.matrix)[0])
        d = cov.matrix.shape[0]
        rng = np.random.default_rng(2)
        sigma = np.sqrt(np.abs(np.diag(cov.matrix)))
        outcomes = {
            _assert_covers_matches_oracle(
                _zero_estimate(d), cov, 1, 0.05, 3000, 5,
                3.0 * sigma * rng.uniform(-1.0, 1.0, d))
            for _ in range(20)
        }
        assert outcomes == {True, False}

    def test_zero_variance_raises_in_both(self):
        cov = cov_est(np.diag([1.0, 0.0]))
        args = (_zero_estimate(2), cov, 10, 0.05, 1000, 0, np.zeros(2))
        with pytest.raises(DegenerateVarianceError):
            _oracle_covers(*args)
        with pytest.raises(DegenerateVarianceError):
            covers(*args)

    @pytest.mark.parametrize(
        "n, alpha, n_sims, truth_size",
        [(0, 0.05, 1000, 3), (10, 0.0, 1000, 3), (10, 1.5, 1000, 3),
         (10, 0.05, 99, 3), (10, 0.05, 1000, 4)],
    )
    def test_same_validation_errors(self, n, alpha, n_sims, truth_size):
        args = (_zero_estimate(3), cov_est(np.eye(3)), n, alpha, n_sims, 0,
                np.zeros(truth_size))
        with pytest.raises(ValidationError) as oracle_error:
            _oracle_covers(*args)
        with pytest.raises(ValidationError) as error:
            covers(*args)
        assert str(error.value) == str(oracle_error.value)

    def test_stops_after_one_block_when_truth_is_the_center(self):
        # every sup covers, so the first tile of 256 holds the
        # n_sims - k + 1 = 251 sups a "covered" needs (k = 4750)
        cov = cov_est(COVS["definite"])
        d = cov.matrix.shape[0]
        rng = np.random.default_rng(21)
        assert covers(_zero_estimate(d), cov, 50, 0.05, 5000, rng, np.zeros(d))
        reference = np.random.default_rng(21)
        reference.standard_normal((bands.SIM_BLOCK, d))
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize("n_sims, alpha, drawn", [
        (2 * bands.SIM_BLOCK + 1, 0.01, 256),  # 6 needed: one tile
        (4096, 0.6, 2560),  # 2458 needed: ten tiles
        (4096, 0.5, 2304),  # 2049 needed: nine tiles
        (2 * bands.SIM_BLOCK + 1, 0.999, 513),  # all: two tiles and one sim
    ])
    def test_truth_at_the_center_draws_n_sims_minus_k_plus_1(self, n_sims,
                                                             alpha, drawn):
        # every sup covers, so covers draws the n_sims - k + 1 sups that
        # "covered" needs, rounded up to whole tiles
        need = n_sims - bands._quantile_rank(alpha, n_sims) + 1
        assert drawn == min(n_sims, -(-need // bands.SIM_BLOCK) * bands.SIM_BLOCK)
        cov = cov_est(COVS["definite"])
        d = cov.matrix.shape[0]
        rng = np.random.default_rng(22)
        assert covers(_zero_estimate(d), cov, 50, alpha, n_sims, rng, np.zeros(d))
        reference = np.random.default_rng(22)
        reference.standard_normal((drawn, d))
        assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "alpha, edge_of, drawn, covered",
        [
            # k = 1793 of 2048: "covered" needs 256 sups, one whole tile;
            # truth on the band of the first tile's smallest covers with all
            (0.1246, "smallest", 256, True),
            # on its second smallest, 255 cover: the second tile settles it
            (0.1246, "second smallest", 512, True),
            # k = 256: "not covered" needs 256; beyond the first tile's
            # largest, all 256 fall short
            (0.8752, "beyond the largest", 256, False),
            # on the largest, 255 fall short: the second tile settles it
            (0.8752, "largest", 512, False),
        ],
    )
    def test_decided_at_a_block_boundary(self, alpha, edge_of, drawn, covered):
        # truth sits on the edge of the band built on a chosen sup of the
        # first tile, so that tile's count is known; covers draws whole tiles
        n_sims, n, seed = 2048, 50, 13
        cov = cov_est(COVS["definite"])
        d = cov.matrix.shape[0]
        scaled, sigma = bands._scaled_factor(n * cov.matrix)
        sups = bands._band_sups(scaled, n_sims, np.random.default_rng(seed))
        k = bands._quantile_rank(alpha, n_sims)
        assert bands.SIM_BLOCK in (n_sims - k + 1, k)
        first = np.sort(sups[: bands.SIM_BLOCK])
        edge = {
            "smallest": first[0],
            "second smallest": first[1],
            "beyond the largest": first[-1] * (1.0 + 1e-9),
            "largest": first[-1],
        }[edge_of]
        # no other sup lies within rounding of the edge, and the drawn
        # tiles settle the flag as the comments above say
        assert np.abs(sups / edge - 1.0)[sups != edge].min() > 1e-12
        inside = np.count_nonzero(sups[:drawn] >= edge)
        assert (inside >= n_sims - k + 1 if covered else drawn - inside >= k)
        truth = np.zeros(d)
        truth[0] = edge * sigma[0] / np.sqrt(n)
        assert _assert_covers_matches_oracle(
            _zero_estimate(d), cov, n, alpha, n_sims, seed, truth) is covered
        rng = np.random.default_rng(seed)
        covers(_zero_estimate(d), cov, n, alpha, n_sims, rng, truth)
        reference = np.random.default_rng(seed)
        reference.standard_normal((drawn, d))
        assert rng.bit_generator.state == reference.bit_generator.state


def _float_after(s, direction):
    return float(np.nextafter(s, direction))


class TestCoverageThreshold:
    """_coverage_threshold is the smallest float whose band covers."""

    @staticmethod
    def _holds(s, deviation, sigma, root_n):
        with np.errstate(over="ignore"):
            return bool(np.all(deviation <= s * sigma / root_n))

    def _assert_smallest(self, deviation, sigma, n):
        root_n = np.sqrt(n)
        s = bands._coverage_threshold(deviation, sigma, root_n)
        if s == np.inf:
            assert not self._holds(np.finfo(float).max, deviation, sigma, root_n)
            return
        assert s >= 0.0 and self._holds(s, deviation, sigma, root_n)
        if s > 0.0:
            assert not self._holds(_float_after(s, 0.0), deviation, sigma, root_n)

    @given(
        d=st.integers(1, 6),
        exponent=st.integers(-320, 308),
        sigma_exponent=st.integers(-160, 150),
        n=st.integers(1, 10**6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_is_the_smallest_float_that_covers(self, d, exponent,
                                               sigma_exponent, n, seed):
        # deviations from subnormal to near overflow, so that the start
        # deviation * sqrt(n) / sigma can underflow or overflow
        rng = np.random.default_rng(seed)
        deviation = rng.uniform(0.0, 1.7, d) * 10.0 ** exponent
        deviation[rng.uniform(size=d) < 0.2] = 0.0
        sigma = rng.uniform(0.1, 3.0, d) * 10.0 ** sigma_exponent
        self._assert_smallest(deviation, sigma, n)

    @pytest.mark.parametrize("deviation, expected", [
        ([0.0, 0.0], 0.0),
        ([0.0, np.nan], np.inf),
        ([1.0, np.inf], None),  # finite only where s * sigma overflows
        ([1e300, 0.0], None),
    ])
    @pytest.mark.parametrize("sigma", [[1.0, 1.0], [1e-150, 1e150]])
    def test_edge_deviations(self, deviation, expected, sigma):
        deviation, sigma = np.array(deviation), np.array(sigma)
        self._assert_smallest(deviation, sigma, 50)
        if expected is not None:
            assert bands._coverage_threshold(deviation, sigma, np.sqrt(50)) == expected
