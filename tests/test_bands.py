import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvesurvey import (
    DegenerateVarianceError,
    ValidationError,
    build_band,
)
from curvesurvey import bands, linalg
from curvesurvey.bands import ConfidenceBand, contains, covers
from curvesurvey.covariance import CovarianceEstimate
from curvesurvey.estimators import MeanEstimate
from curvesurvey.oracle import eigh_first_psd_repair, one_shot_sup_sample

Z_975 = 1.959963984540054  # standard normal 97.5% quantile
Z_75 = 0.6744897501960817


def factored(matrix):
    """The covariance estimate whose rows C are the transposed lower
    Cholesky factor of the definite `matrix`, so that C'C = matrix up to
    rounding."""
    return CovarianceEstimate(np.linalg.cholesky(np.asarray(matrix, dtype=float)).T)


def _zero_estimate(d):
    return MeanEstimate(curve=np.zeros(d), estimator_kind="ModelAssisted")


def _normals(n_sims, d, seed):
    """The matrix of normals whose covers flag is that of the band built
    with `seed`."""
    return np.random.default_rng(seed).standard_normal((n_sims, d))


def _c_alpha(cov, alpha, n_sims, seed):
    """c_alpha of the band on cov."""
    band = build_band(_zero_estimate(cov.variance.size), cov, alpha=alpha,
                      n_sims=n_sims, seed=seed)
    return band.c_alpha


class TestSupQuantile:
    def test_univariate_gaussian_quantile(self):
        c = _c_alpha(factored([[1.0]]), 0.05, 50_000, seed=0)
        assert abs(c - Z_975) < 0.03

    def test_rank_one_collapses_to_univariate(self):
        # perfectly correlated components: sup of identical copies
        perfect = CovarianceEstimate(np.ones((1, 6)))
        c_multi = _c_alpha(perfect, 0.05, 50_000, seed=1)
        c_uni = _c_alpha(factored([[1.0]]), 0.05, 50_000, seed=2)
        assert abs(c_multi - c_uni) < 0.04

    def test_median_alpha(self):
        c = _c_alpha(factored([[1.0]]), 0.5, 100_000, seed=3)
        assert abs(c - Z_75) < 0.01

    def test_monotone_in_alpha_with_shared_draws(self):
        cov = factored(np.eye(4) + 0.5 * (np.ones((4, 4)) - np.eye(4)))
        cs = [
            _c_alpha(cov, alpha, 5000, seed=4)
            for alpha in (0.01, 0.05, 0.2, 0.5)
        ]
        assert all(a > b for a, b in zip(cs, cs[1:]))

    def test_dominates_univariate_quantile(self):
        cov = factored(np.diag([1.0, 2.0, 0.5, 1.5]))
        c = _c_alpha(cov, 0.05, 50_000, seed=5)
        assert c >= Z_975 - 0.03

    def test_deterministic_given_seed(self):
        cov = factored(np.eye(3))
        a = _c_alpha(cov, 0.1, 2000, seed=42)
        b = _c_alpha(cov, 0.1, 2000, seed=42)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValidationError):
            _c_alpha(factored(np.eye(2)), 1.5, 1000, seed=0)
        with pytest.raises(ValidationError):
            _c_alpha(factored(np.eye(2)), 0.05, 50, seed=0)
        with pytest.raises(ValidationError,
                           match="n_sims must be an integer, got 100.5"):
            _c_alpha(factored(np.eye(2)), 0.05, 100.5, seed=0)

    def test_a_numpy_integer_count_is_a_python_int_alike(self):
        cov = factored(np.eye(3))
        assert (_c_alpha(cov, 0.1, np.int64(300), seed=6)
                == _c_alpha(cov, 0.1, 300, seed=6))

    def test_degenerate_variance_refused(self):
        with pytest.raises(DegenerateVarianceError):
            _c_alpha(CovarianceEstimate(np.diag([1.0, 0.0])), 0.05, 1000, seed=0)


class TestBuildBand:
    def make_band(self, cov, seed=7):
        return build_band(_zero_estimate(cov.variance.size), cov, alpha=0.05,
                          n_sims=2000, seed=seed)

    def test_zero_covariance_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            self.make_band(CovarianceEstimate(np.zeros((3, 3))))

    def test_doubling_cov_scales_half_width(self):
        rows = factored(np.eye(3) * 0.02 + 0.01).rows
        band1 = self.make_band(CovarianceEstimate(rows), seed=8)
        band2 = self.make_band(CovarianceEstimate(np.sqrt(2.0) * rows), seed=8)
        assert np.allclose(band2.half_width, np.sqrt(2.0) * band1.half_width,
                           rtol=1e-10)
        assert band2.c_alpha == pytest.approx(band1.c_alpha, rel=1e-12)

    def test_half_width_formula(self):
        band = self.make_band(factored(np.diag([0.04, 0.09])))
        # half width = c_alpha * sqrt(gamma(t,t))
        assert np.allclose(band.half_width, band.c_alpha * np.array([0.2, 0.3]))

    @pytest.mark.parametrize("seed", [1.5, np.nan, "7", -1],
                             ids=["float", "nan", "string", "negative"])
    def test_a_seed_that_is_not_an_integer_is_refused(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            self.make_band(factored(np.eye(2)), seed=seed)

    def test_every_kind_of_seed_is_accepted(self):
        band = self.make_band(factored(np.eye(2)), seed=3)
        for seed in (np.int64(3), np.random.SeedSequence(3),
                     np.random.default_rng(3)):
            assert self.make_band(factored(np.eye(2)), seed=seed).c_alpha \
                == band.c_alpha
        assert self.make_band(factored(np.eye(2)), seed=None).c_alpha > 0.0


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


def _rank_deficient_rows(rows=20, rank=5, d=12, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, d)) / d


# The rows C of three covariance estimates C'C on D = 12 points: one whose
# C'C has a Cholesky factor, and two whose C'C is singular, so the band
# factors C by a thin QR
ROWS = {
    "definite": factored(_pd_cov()).rows,
    "fewer rows than points": _rank_deficient_rows(rows=5, rank=5),
    "rank-deficient": _rank_deficient_rows(),
}
SINGULAR = ["fewer rows than points", "rank-deficient"]


def _cov(name):
    return CovarianceEstimate(ROWS[name])


def _cholesky_fails(matrix):
    try:
        np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError:
        return True
    return False


class TestScaledFactor:
    """The band's factor F, F F' = C'C: Cholesky of C'C, else R' from the
    thin QR of C; sigma = sqrt(cov.variance)."""

    @pytest.mark.parametrize("scale", [1, 50])
    def test_the_cholesky_factor_of_a_definite_estimate(self, scale):
        cov = CovarianceEstimate(np.sqrt(scale) * ROWS["definite"])
        scaled, sigma = bands._scaled_factor(cov)
        # bit for bit the eigh-first twin's, which leaves C'C unclipped
        repaired, factor = eigh_first_psd_repair(cov.matrix)
        assert np.array_equal(repaired, cov.matrix)
        assert np.array_equal(sigma, np.sqrt(cov.variance))
        assert np.array_equal(scaled, factor / sigma[:, None])

    @pytest.mark.parametrize("scale", [1, 200])
    @pytest.mark.parametrize("name", SINGULAR)
    def test_the_qr_factor_of_a_singular_estimate(self, name, scale):
        cov = CovarianceEstimate(np.sqrt(scale) * ROWS[name])
        target = cov.matrix
        assert _cholesky_fails(target)
        scaled, sigma = bands._scaled_factor(cov)
        factor = scaled * sigma[:, None]
        d, rows = cov.variance.size, ROWS[name].shape[0]
        assert factor.shape == (d, min(rows, d))
        scale = np.abs(target).max()
        assert np.abs(factor @ factor.T - target).max() <= 1e-13 * scale
        repaired, _ = eigh_first_psd_repair(target)
        assert np.abs(factor @ factor.T - repaired).max() <= 1e-13 * scale
        assert np.array_equal(sigma, np.sqrt(cov.variance))
        assert np.all(sigma[cov.variance > 0.0] > 0.0)
        # the band's tiles of D-wide rows against one one-shot draw
        expected = one_shot_sup_sample(factor, sigma, 3000,
                                       np.random.default_rng(4))
        sups = bands._band_sups(scaled, 3000, np.random.default_rng(4))
        assert np.abs(sups - expected).max() <= 1e-12 * expected.max()

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_eigh_first_twin_on_definite_input(self, seed):
        rng = np.random.default_rng(seed)
        cov = CovarianceEstimate(rng.standard_normal((30, 8))
                                 + 0.5 * rng.standard_normal(8))
        scaled, sigma = bands._scaled_factor(cov)
        repaired, factor = eigh_first_psd_repair(cov.matrix)
        assert np.array_equal(repaired, cov.matrix)
        assert np.array_equal(scaled, factor / sigma[:, None])

    @pytest.mark.parametrize("rows", [
        np.array([[1.0, -0.5, 2.0]]),
        np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
        np.array([[3.0, 0.0, 1.0, -1.0], [0.0, 2.0, 1.0, 1.0]]),
        *(np.random.default_rng(seed).standard_normal((3, 6))
          for seed in range(5)),
    ])
    def test_equals_the_eigh_first_twin_on_the_qr_path(self, rows):
        # where Cholesky refuses C'C, the twin clips an eigendecomposition
        # and the band factors C: both reproduce C'C to rounding
        cov = CovarianceEstimate(rows)
        target = cov.matrix
        assert _cholesky_fails(target)
        scaled, sigma = bands._scaled_factor(cov)
        factor = scaled * sigma[:, None]
        assert factor.shape == (rows.shape[1], min(rows.shape))
        repaired, twin = eigh_first_psd_repair(target)
        scale = np.abs(target).max()
        for want in (target, repaired, twin @ twin.T):
            assert np.abs(factor @ factor.T - want).max() <= 1e-13 * scale
        assert np.array_equal(sigma, np.sqrt(cov.variance))

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_no_eigh_and_qr_only_when_cholesky_fails(self, monkeypatch, name):
        # the band and covers factor C'C or C as they are: an eigh would be
        # a repair, and the thin QR runs only where Cholesky refuses C'C
        def refused_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called")

        qrs = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            qrs.append(1)
            return qr(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", refused_eigh)
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        cov = _cov(name)
        d = cov.variance.size
        build_band(_zero_estimate(d), cov, alpha=0.05, n_sims=500, seed=1)
        covers(_zero_estimate(d), cov, 0.05, normals=_normals(500, d, 1),
               truth=np.zeros(d))
        assert len(qrs) == (2 if name in SINGULAR else 0)

    def test_zero_variance_raises(self):
        rows = np.random.default_rng(1).standard_normal((30, 4))
        rows[:, 2] = 0.0
        cov = CovarianceEstimate(rows)
        with pytest.raises(DegenerateVarianceError, match="grid index 2"):
            bands._scaled_factor(cov)

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_a_variance_near_overflow_builds_a_finite_band(self, name):
        # each variance is finite, near 1e307, but 200 times it is not:
        # the band reads C'C as it is, so on both factor paths it is finite
        unit = _cov(name)
        cov = CovarianceEstimate(ROWS[name] * np.sqrt(1e307 / unit.variance.max()))
        assert np.isfinite(cov.variance).all()
        assert cov.variance.max() > np.finfo(float).max / 200
        band = build_band(_zero_estimate(12), cov, 0.05, 500, 0)
        assert np.isfinite(band.c_alpha) and np.isfinite(band.half_width).all()
        # the band's sup is unchanged by the scale of C, up to rounding
        unit_band = build_band(_zero_estimate(12), unit, 0.05, 500, 0)
        assert band.c_alpha == pytest.approx(unit_band.c_alpha, rel=1e-12)
        edge, normals = band.half_width, _normals(500, 12, 0)
        assert covers(_zero_estimate(12), cov, 0.05, normals=normals,
                      truth=edge)
        assert not covers(_zero_estimate(12), cov, 0.05, normals=normals,
                          truth=np.nextafter(edge, np.inf))


class TestSupKernel:
    """The blocked sup kernel against its one-shot oracle twin."""

    @pytest.mark.parametrize(
        "n_sims",
        [100, bands.SIM_BLOCK - 1, bands.SIM_BLOCK, bands.SIM_BLOCK + 1, 5000],
    )
    def test_matches_one_shot_sampler(self, n_sims):
        # the whole one-shot pipeline: Cholesky, one draw, full sort
        cov = _cov("definite")
        sigma = np.sqrt(np.diag(cov.matrix))
        expected = one_shot_sup_sample(
            np.linalg.cholesky(cov.matrix), sigma, n_sims,
            np.random.default_rng(11)
        )
        scaled, _ = bands._scaled_factor(cov)
        sups = bands._band_sups(scaled, n_sims, np.random.default_rng(11))
        assert np.abs(sups - expected).max() <= 1e-12 * expected.max()
        k = int(np.ceil(0.95 * n_sims))
        c_alpha = _c_alpha(cov, 0.05, n_sims, seed=11)
        assert c_alpha == pytest.approx(np.sort(expected)[k - 1], rel=1e-12)


def _filled_sups(scaled, n_sims, rng):
    """A band's sups from covers' loop: SIM_BLOCK tiles of D-wide rows
    drawn and multiplied on the calling thread."""
    d = scaled.shape[0]
    sups, product = np.empty(n_sims), np.empty(bands.SIM_BLOCK * d)
    for lo in range(0, n_sims, bands.SIM_BLOCK):
        z = rng.standard_normal((min(bands.SIM_BLOCK, n_sims - lo), d))
        bands._tile_sups(scaled, z, sups[lo:lo + len(z)], product)
    return sups


class TestTileSups:
    """The one sup product that the band and covers share."""

    @pytest.mark.parametrize("m", [1, 7, bands.SIM_BLOCK])
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_a_reused_buffer_gives_a_fresh_buffers_sups(self, name, m):
        # covers and the band reuse one D x SIM_BLOCK product buffer, also
        # for a short last tile and for a factor narrower than D: what it
        # held before must not leak
        scaled, _ = bands._scaled_factor(_cov(name))
        d, r = scaled.shape
        rng = np.random.default_rng(m)
        product = np.full(bands.SIM_BLOCK * d, np.nan)
        bands._tile_sups(scaled, rng.standard_normal((bands.SIM_BLOCK, r)),
                         np.empty(bands.SIM_BLOCK), product)
        z = rng.standard_normal((m, r))
        out = np.full(m + 2, -1.0)
        tile = bands._tile_sups(scaled, z, out[1:-1], product)
        assert np.shares_memory(tile, out) and out[0] == out[-1] == -1.0
        fresh = bands._tile_sups(scaled, z, np.empty(m),
                                 np.empty(bands.SIM_BLOCK * d))
        assert np.array_equal(tile, fresh)
        direct = np.abs(scaled @ z.T).max(axis=0)
        assert np.abs(tile - direct).max() <= 1e-12 * direct.max()


class TestBandSups:
    """The band's tiles, drawn on a helper thread, against the sequential
    loop; and c_alpha at the load-curve D against the caller's BLAS count."""

    @pytest.mark.parametrize(
        "n_sims", [100, bands.SIM_BLOCK, bands.SIM_BLOCK + 1, 3 * bands.SIM_BLOCK - 5])
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_equal_to_the_sequential_loop(self, n_sims, name):
        scaled, _ = bands._scaled_factor(_cov(name))
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
        # 200 rows, as from a sample of n = 200: the Gram matrix has rank
        # 200 < D, its Cholesky fails, and the band's factor comes from QR
        rows = np.random.default_rng(3).standard_normal((200, 336))
        est, cov = _zero_estimate(336), CovarianceEstimate(rows / np.sqrt(200))
        built = []
        for threads in (1, 2):
            linalg._set_blas_threads(threads)
            before = threading.active_count()
            built.append(build_band(est, cov, alpha=0.05, n_sims=3000,
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
        band = build_band(est, cov, alpha=0.05, n_sims=1000, seed=seed)
        edge = band.center + band.half_width
        normals = _normals(1000, 336, seed)
        for truth, inside in ((edge, True), (np.nextafter(edge, np.inf), False)):
            assert contains(band, truth) is inside
            assert covers(est, cov, 0.05, normals=normals,
                          truth=truth) is inside


def _oracle_covers(estimate, cov, alpha, n_sims, seed, truth):
    band = build_band(estimate, cov, alpha=alpha, n_sims=n_sims, seed=seed)
    return contains(band, truth)


def _covers(estimate, cov, alpha, n_sims, seed, truth):
    """covers on the normals of the band that _oracle_covers builds."""
    normals = _normals(n_sims, cov.variance.size, seed)
    return covers(estimate, cov, alpha, normals=normals, truth=truth)


def _assert_covers_matches_oracle(estimate, cov, alpha, n_sims, seed, truth):
    expected = _oracle_covers(estimate, cov, alpha, n_sims, seed, truth)
    assert _covers(estimate, cov, alpha, n_sims, seed, truth) is expected
    return expected


def _record_tiles(monkeypatch):
    """Record a copy of each tile of normals sent through the sup product;
    returns the list of tiles."""
    tiles, tile_sups = [], bands._tile_sups

    def recording(scaled_factor, z, out, product):
        tiles.append(z.copy())
        return tile_sups(scaled_factor, z, out, product)

    monkeypatch.setattr(bands, "_tile_sups", recording)
    return tiles


class TestCovers:
    """The early-stopping coverage flag against its twin
    contains(build_band(...), truth)."""

    @given(
        d=st.integers(1, 8),
        cov_seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 12),
        alpha=st.floats(0.001, 0.6),
        n_sims=st.integers(100, 2500),
        spread=st.floats(0.0, 6.0),
        seed=st.integers(0, 2**32 - 1),
        special=st.sampled_from(
            [None, "center", "inf", "-inf", "nan", "overflow", "huge"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_oracle(self, d, cov_seed, rows, alpha, n_sims, spread,
                            seed, special):
        # fewer rows than points make some covariances singular
        rng = np.random.default_rng(cov_seed)
        c = rng.standard_normal((rows, d)) / np.sqrt(d)
        center = rng.standard_normal(d)
        # the band's half-width is c_alpha * sqrt(variance)
        truth = center + spread * np.sqrt((c * c).sum(axis=0)) * \
            rng.uniform(-1.0, 1.0, d)
        j = int(rng.integers(d))
        if special == "center":  # a zero deviation everywhere
            truth = center.copy()
        elif special in ("inf", "-inf", "nan"):
            truth[j] = float(special)
        elif special == "overflow":  # deviation / sigma_hat overflows
            c *= 1e-150
            truth[j] = center[j] + 1e300
        elif special == "huge":  # deviation / sigma_hat overflows
            c *= 1e-3
            truth[j] = center[j] - 1.5e308
        estimate = MeanEstimate(curve=center, estimator_kind="ModelAssisted")
        args = (estimate, CovarianceEstimate(c), alpha, n_sims, seed, truth)
        try:
            expected = _oracle_covers(*args)
        except DegenerateVarianceError:
            with pytest.raises(DegenerateVarianceError):
                _covers(*args)
            return
        assert _covers(*args) is expected
        if special is not None:
            assert expected is (special == "center")

    @pytest.mark.parametrize(
        "n_sims, alpha",
        [(100, 0.05), (bands.SIM_BLOCK - 1, 0.05), (bands.SIM_BLOCK, 0.05),
         (bands.SIM_BLOCK + 1, 0.05), (5000, 0.05), (bands.SIM_BLOCK + 1, 1e-4)],
    )
    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_truth_on_and_around_the_band_edge(self, name, n_sims, alpha):
        cov = _cov(name)
        d = cov.variance.size
        estimate = _zero_estimate(d)
        band = build_band(estimate, cov, alpha=alpha, n_sims=n_sims, seed=9)
        edge = band.half_width[d - 1]
        outcomes = []
        # with a zero center, truth = half_width is exactly on the edge (a
        # tie, which the closed interval covers); one ulp further is outside
        for value in (0.0, 0.9 * edge, edge, np.nextafter(edge, np.inf),
                      1.1 * edge):
            truth = np.zeros(d)
            truth[d - 1] = value
            outcomes.append(_assert_covers_matches_oracle(
                estimate, cov, alpha, n_sims, 9, truth))
        assert outcomes == [True, True, True, False, False]

    def test_alpha_with_k_equal_to_n_sims(self):
        n_sims, alpha = bands.SIM_BLOCK + 1, 1e-4
        assert bands._quantile_rank(alpha, n_sims) == n_sims

    @pytest.mark.parametrize("name", SINGULAR)
    def test_qr_factor_path(self, name):
        # C'C is the matrix whose Cholesky fails
        cov = _cov(name)
        assert _cholesky_fails(cov.matrix)
        d = cov.variance.size
        rng = np.random.default_rng(2)
        sigma = np.sqrt(cov.variance)
        outcomes = {
            _assert_covers_matches_oracle(
                _zero_estimate(d), cov, 0.05, 3000, 5,
                3.0 * sigma * rng.uniform(-1.0, 1.0, d))
            for _ in range(20)
        }
        assert outcomes == {True, False}

    def test_zero_variance_raises_in_both(self):
        cov = CovarianceEstimate(np.diag([1.0, 0.0]))
        args = (_zero_estimate(2), cov, 0.05, 1000, 0, np.zeros(2))
        with pytest.raises(DegenerateVarianceError):
            _oracle_covers(*args)
        with pytest.raises(DegenerateVarianceError):
            _covers(*args)

    @pytest.mark.parametrize(
        "alpha, n_sims, truth_size",
        [(0.0, 1000, 3), (1.5, 1000, 3), (0.05, 99, 3), (0.05, 1000, 4)],
    )
    def test_same_validation_errors(self, alpha, n_sims, truth_size):
        args = (_zero_estimate(3), factored(np.eye(3)), alpha, n_sims, 0,
                np.zeros(truth_size))
        with pytest.raises(ValidationError) as oracle_error:
            _oracle_covers(*args)
        with pytest.raises(ValidationError) as error:
            _covers(*args)
        assert str(error.value) == str(oracle_error.value)

    @pytest.mark.parametrize("shape", [(1000, 4), (1000, 2), (1000,)])
    def test_normals_of_another_shape_are_refused(self, shape):
        with pytest.raises(ValidationError, match="band normals have shape"):
            covers(_zero_estimate(3), factored(np.eye(3)), 0.05,
                   normals=np.zeros(shape), truth=np.zeros(3))

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_leaves_the_normals_bit_identical(self, name):
        # a campaign's matrix is read-only, and covers reads views of it
        cov = _cov(name)
        d = cov.variance.size
        normals = _normals(2000, d, 4)
        before = normals.tobytes()
        normals.setflags(write=False)
        truth = 0.5 * build_band(_zero_estimate(d), cov, 0.05, 2000,
                                 4).half_width
        assert covers(_zero_estimate(d), cov, 0.05, normals=normals,
                      truth=truth)
        assert normals.tobytes() == before and not normals.flags.writeable

    def test_stops_after_one_block_when_truth_is_the_center(
            self, monkeypatch):
        # every sup covers, so the first tile of 256 holds the
        # n_sims - k + 1 = 251 sups a "covered" needs (k = 4750)
        cov = _cov("definite")
        d = cov.variance.size
        normals = _normals(5000, d, 21)
        tiles = _record_tiles(monkeypatch)
        assert covers(_zero_estimate(d), cov, 0.05, normals=normals,
                      truth=np.zeros(d))
        assert len(tiles) == 1
        assert np.array_equal(tiles[0], normals[: bands.SIM_BLOCK])

    @pytest.mark.parametrize("n_sims, alpha, drawn", [
        (2 * bands.SIM_BLOCK + 1, 0.01, 256),  # 6 needed: one tile
        (4096, 0.6, 2560),  # 2458 needed: ten tiles
        (4096, 0.5, 2304),  # 2049 needed: nine tiles
        (2 * bands.SIM_BLOCK + 1, 0.999, 513),  # all: two tiles and one sim
    ])
    def test_truth_at_the_center_draws_n_sims_minus_k_plus_1(
            self, monkeypatch, n_sims, alpha, drawn):
        # every sup covers, so covers reads the n_sims - k + 1 sups that
        # "covered" needs, rounded up to whole tiles, from the matrix's top
        need = n_sims - bands._quantile_rank(alpha, n_sims) + 1
        assert drawn == min(n_sims, -(-need // bands.SIM_BLOCK) * bands.SIM_BLOCK)
        cov = _cov("definite")
        d = cov.variance.size
        normals = _normals(n_sims, d, 22)
        tiles = _record_tiles(monkeypatch)
        assert covers(_zero_estimate(d), cov, alpha, normals=normals,
                      truth=np.zeros(d))
        assert np.array_equal(np.vstack(tiles), normals[:drawn])

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
    def test_decided_at_a_block_boundary(self, monkeypatch, alpha, edge_of,
                                         drawn, covered):
        # truth sits on the edge of the band built on a chosen sup of the
        # first tile, so that tile's count is known; covers draws whole tiles
        n_sims, seed = 2048, 13
        cov = _cov("definite")
        d = cov.variance.size
        scaled, sigma = bands._scaled_factor(cov)
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
        truth[0] = edge * sigma[0]
        assert _assert_covers_matches_oracle(
            _zero_estimate(d), cov, alpha, n_sims, seed, truth) is covered
        normals = _normals(n_sims, d, seed)
        tiles = _record_tiles(monkeypatch)
        covers(_zero_estimate(d), cov, alpha, normals=normals, truth=truth)
        assert np.array_equal(np.vstack(tiles), normals[:drawn])


class TestRowOrder:
    """covers counts sups, and _tile_sups gives a row the same sup wherever
    it is read, so no row order moves a flag; a campaign reads its matrix
    largest norm first.

    A row's sup within one padded SIM_BLOCK-wide product not depending on
    the row's place in it is a property of the BLAS in use, which BLAS
    does not promise; these tests check it for the BLAS they run on."""

    @given(
        d=st.integers(2, 24),
        path=st.sampled_from(["cholesky", "qr"]),
        # tails of every width, and one-row tails (a GEMV when unpadded)
        n_sims=st.one_of(st.integers(100, 3 * bands.SIM_BLOCK + 10),
                         st.sampled_from([bands.SIM_BLOCK + 1,
                                          2 * bands.SIM_BLOCK + 1])),
        alpha=st.floats(0.01, 0.6),
        seed=st.integers(0, 2**32 - 1),
        order=st.sampled_from(["edge row last", "permutation",
                               "largest norm first"]),
    )
    @settings(max_examples=100, deadline=None)
    def test_a_row_permutation_moves_no_flag(self, d, path, n_sims, alpha,
                                             seed, order):
        rng = np.random.default_rng(seed)
        # fewer rows than points make C'C singular, so the band factors C
        rows = int(rng.integers(1, d)) if path == "qr" else 2 * d
        cov = CovarianceEstimate(rng.standard_normal((rows, d)))
        assume(_cholesky_fails(cov.matrix) == (path == "qr"))
        estimate = _zero_estimate(d)
        normals = _normals(n_sims, d, seed)
        # the row whose sup is c_alpha, moved to the short last tile
        sups = bands._band_sups(bands._scaled_factor(cov)[0], n_sims,
                                np.random.default_rng(seed))
        edge_row = np.argsort(sups, kind="stable")[
            bands._quantile_rank(alpha, n_sims) - 1]
        last = np.arange(n_sims)
        last[[edge_row, -1]] = last[[-1, edge_row]]
        permuted = normals[{
            "edge row last": last,
            "permutation": rng.permutation(n_sims),
            "largest norm first": np.argsort(-(normals**2).sum(axis=1),
                                             kind="stable"),
        }[order]]
        band = build_band(estimate, cov, alpha=alpha, n_sims=n_sims,
                          seed=seed)
        # with a zero center, truth on the edge is a tie, which the closed
        # interval covers; one ulp beyond it at one point is outside
        edge = band.half_width
        beyond = edge.copy()
        beyond[-1] = np.nextafter(edge[-1], np.inf)
        for truth, inside in ((edge, True), (beyond, False)):
            assert contains(band, truth) is inside
            for matrix in (normals, permuted):
                assert covers(estimate, cov, alpha, normals=matrix,
                              truth=truth) is inside

    @pytest.mark.parametrize("name", sorted(ROWS))
    @pytest.mark.parametrize("m", [1, 7, 136])
    def test_a_rows_sup_does_not_depend_on_its_tile(self, name, m):
        # a short tile is padded, so its rows get the sups they have in a
        # full tile, at any place in it
        scaled, _ = bands._scaled_factor(_cov(name))
        d = scaled.shape[0]
        z = np.random.default_rng(m).standard_normal((bands.SIM_BLOCK, d))
        product = np.empty(bands.SIM_BLOCK * d)
        full = bands._tile_sups(scaled, z, np.empty(bands.SIM_BLOCK),
                                product).copy()
        for lo in (0, bands.SIM_BLOCK - m):
            short = bands._tile_sups(scaled, z[lo:lo + m], np.empty(m),
                                     product)
            assert np.array_equal(short, full[lo:lo + m])


def _stack(rows):
    """One CovarianceEstimate of the (B, n, D) stack of the rows of B
    estimates."""
    return CovarianceEstimate(np.stack(rows))


# The rows of five estimates on D = 6 points, 10 rows each: definite, and
# the QR-path and zero-variance items a stack may hold
def _stack_rows(seed, kind=None):
    rng = np.random.default_rng(seed)
    rows = [rng.standard_normal((10, 6)) / 10 for _ in range(5)]
    if kind == "qr":  # rank 3 < D, so Cholesky refuses its C'C
        rows[2] = rng.standard_normal((10, 3)) @ rng.standard_normal((3, 6)) / 10
    elif kind == "zero variance":
        rows[2][:, 4] = 0.0
    return rows


def _counted(monkeypatch, name):
    """The shapes of the first argument of every later np.linalg.<name>
    call."""
    shapes, original = [], getattr(np.linalg, name)

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return shapes


class TestStackedCovers:
    """covers on a block's stack equals covers on each of its items, and
    factors each item on its own, from the stacked Gram matrices, bit for
    bit as the single ones."""

    @pytest.mark.parametrize("kind", [None, "qr", "zero variance"])
    @pytest.mark.parametrize("items", ["stack", "block of one", "single"])
    def test_one_cholesky_per_band(self, monkeypatch, kind, items):
        # each band's own Cholesky, none where no band exists and no
        # stacked call to be refused first; a thin QR only where the
        # item's Cholesky refuses
        rows = _stack_rows(3, kind)
        if items != "stack":
            rows = rows[2:3]
        cov = CovarianceEstimate(rows[0]) if items == "single" else _stack(rows)
        choleskys = _counted(monkeypatch, "cholesky")
        qrs = _counted(monkeypatch, "qr")
        args = (MeanEstimate(np.zeros(cov.variance.shape), "ModelAssisted"),
                cov, 0.05)
        kwargs = {"normals": _normals(500, 6, 3), "truth": np.zeros(6)}
        if items == "single" and kind == "zero variance":
            with pytest.raises(DegenerateVarianceError):
                covers(*args, **kwargs)
        else:
            covers(*args, **kwargs)
        built = len(rows) - (kind == "zero variance")
        assert choleskys == [(6, 6)] * built
        assert qrs == ([(10, 6)] if kind == "qr" else [])

    @pytest.mark.parametrize("kind", [None, "qr", "zero variance"])
    def test_the_stacked_grams_and_factors_are_the_single_ones(
            self, monkeypatch, kind):
        rows = _stack_rows(3, kind)
        stack = _stack(rows)
        factors, factor = [], bands._factor

        def recorded(matrix, c):
            factors.append((matrix, c, factor(matrix, c)))
            return factors[-1][2]

        monkeypatch.setattr(bands, "_factor", recorded)
        covers(MeanEstimate(np.zeros((5, 6)), "ModelAssisted"), stack, 0.05,
               normals=_normals(500, 6, 3), truth=np.zeros(6))
        built = [j for j in range(5) if kind != "zero variance" or j != 2]
        assert len(factors) == len(built)
        for j, (matrix, c, f) in zip(built, factors):
            single = CovarianceEstimate(rows[j])
            assert np.array_equal(matrix, single.matrix)  # stack.matrix[j]
            assert np.array_equal(stack.variance[j], single.variance)
            assert np.array_equal(c, rows[j])
            if kind == "qr" and j == 2:
                assert _cholesky_fails(single.matrix)
                assert f.shape == (6, 6)
            scaled, sigma = bands._scaled_factor(single)
            assert np.array_equal(f / sigma[:, None], scaled)

    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from([None, "qr", "zero variance"]),
           alpha=st.floats(0.01, 0.6),
           n_sims=st.integers(100, 3 * bands.SIM_BLOCK + 10),
           spread=st.floats(0.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_equals_covers_item_by_item(self, seed, kind, alpha, n_sims,
                                        spread):
        rows = _stack_rows(seed, kind)
        rng = np.random.default_rng(seed)
        truth = rng.standard_normal(6)
        # each center within a few sigma of the truth, so flags vary
        sigma = np.sqrt(_stack(rows).variance)
        curves = truth + spread * sigma * rng.uniform(-1.0, 1.0, sigma.shape)
        normals = _normals(n_sims, 6, seed)
        flags = covers(MeanEstimate(curves, "ModelAssisted"), _stack(rows),
                       alpha, normals=normals, truth=truth)
        assert flags.dtype == np.int8 and flags.shape == (5,)
        for j, (curve, c) in enumerate(zip(curves, rows)):
            args = (MeanEstimate(curve, "ModelAssisted"),
                    CovarianceEstimate(c), alpha)
            if kind == "zero variance" and j == 2:
                with pytest.raises(DegenerateVarianceError):
                    covers(*args, normals=normals, truth=truth)
                assert flags[j] == -1
            else:
                assert flags[j] == int(covers(*args, normals=normals,
                                              truth=truth))

    def test_the_same_validation_errors(self):
        stack, curves = _stack(_stack_rows(0)), np.zeros((5, 6))
        estimate = MeanEstimate(curves, "ModelAssisted")
        with pytest.raises(ValidationError, match="band normals have shape"):
            covers(estimate, stack, 0.05, normals=np.zeros((500, 5)),
                   truth=np.zeros(6))
        with pytest.raises(ValidationError, match="truth has length 5, band has 6"):
            covers(estimate, stack, 0.05, normals=np.zeros((500, 6)),
                   truth=np.zeros(5))
        with pytest.raises(ValidationError, match="at least 100"):
            covers(estimate, stack, 0.05, normals=np.zeros((99, 6)),
                   truth=np.zeros(6))


class TestCoversAtEveryScale:
    """covers equals contains(build_band(...)) for deviations from
    subnormal to near overflow, zero, NaN and infinite, and sigma_hat from
    1e-160 to 1e150, so that deviation / sigma_hat can underflow or
    overflow and covers settles its sups by P's checked bracket or by P
    itself."""

    @staticmethod
    def _assert_matches_oracle(deviation, c, alpha, n_sims, seed):
        estimate = _zero_estimate(deviation.size)  # truth - 0 is exact
        cov = CovarianceEstimate(c)
        args = (estimate, cov, alpha, n_sims, seed, deviation)
        try:
            expected = _oracle_covers(*args)
        except DegenerateVarianceError:  # sigma_hat^2 underflowed to 0
            with pytest.raises(DegenerateVarianceError):
                _covers(*args)
            return
        assert _covers(*args) is expected

    @given(
        d=st.integers(1, 6),
        rows=st.integers(1, 8),
        exponent=st.integers(-320, 308),
        sigma_exponent=st.integers(-160, 150),
        near=st.booleans(),
        special=st.sampled_from([None, "nan", "inf", "-inf"]),
        alpha=st.floats(0.01, 0.5),
        n_sims=st.integers(100, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, d, rows, exponent, sigma_exponent, near,
                            special, alpha, n_sims, seed):
        rng = np.random.default_rng(seed)
        c = rng.standard_normal((rows, d)) * 10.0 ** sigma_exponent
        if near:  # deviation / sigma_hat among the sups: the band's edge
            deviation = rng.uniform(0.0, 4.0, d) * np.sqrt((c * c).sum(axis=0))
        else:
            deviation = rng.uniform(0.0, 1.7, d) * 10.0 ** exponent
        deviation[rng.uniform(size=d) < 0.2] = 0.0
        if special is not None:
            deviation[rng.integers(d)] = float(special)
        self._assert_matches_oracle(deviation, c, alpha, n_sims, seed)

    @pytest.mark.parametrize("deviation", [
        [0.0, 0.0], [0.0, np.nan], [1.0, np.inf], [1e300, 0.0],
        [1e-320, 0.0], [5e-324, 1e-310],
    ])
    @pytest.mark.parametrize("sigma", [[1.0, 1.0], [1e-150, 1e150]])
    def test_edge_deviations(self, deviation, sigma):
        c = np.diag(sigma)  # sigma_hat = sigma exactly
        self._assert_matches_oracle(np.array(deviation), c, 0.05, 300, 3)
