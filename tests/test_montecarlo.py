import concurrent.futures
import dataclasses
import pickle
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesurvey import designs, estimators, linalg, montecarlo
from curvesurvey import (
    CurveSurveyError,
    NumericalError,
    SamplingDesign,
    ValidationError,
    draw,
    run_campaign,
    study_population,
)
from curvesurvey.bands import SIM_BLOCK, covers
from curvesurvey.covariance import CovarianceEstimate, ht_covariance_estimate
from curvesurvey.designs import replicate_rng
from curvesurvey.estimators import ESTIMATORS
from curvesurvey.grids import FunctionalPopulation, TimeGrid, population_mean
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
        [report] = run_campaign(mc_pop, [design], replicates=100,
                                master_seed=5)
        assert report.rmse == pytest.approx(
            report.rb_squared + report.vr, abs=1e-10
        )
        qs = [report.er_quantiles[k] for k in ("q5", "q25", "median", "q75", "q95")]
        assert all(a <= b for a, b in zip(qs, qs[1:]))
        assert all(q >= 0 for q in qs)

    def test_reproducible_and_worker_independent(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=40)
        [r1] = run_campaign(mc_pop, [design], replicates=40, master_seed=9,
                            workers=1)
        [r2] = run_campaign(mc_pop, [design], replicates=40, master_seed=9,
                            workers=2)
        assert r1.rmse == r2.rmse
        assert np.array_equal(r1.gamma_emp.matrix, r2.gamma_emp.matrix)
        assert np.array_equal(r1.mean_gamma_diag, r2.mean_gamma_diag)

    def test_census_campaign_degenerate(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=mc_pop.N)
        [report] = run_campaign(mc_pop, [design], replicates=10, master_seed=1)
        assert report.rmse == 0.0
        assert report.coverage is None
        assert report.n_errors == 10

    def test_coverage_flag_produces_rate(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=60)
        [report] = run_campaign(
            mc_pop, [design], replicates=60, compute_coverage=True,
            alpha=0.05, band_sims=500, master_seed=2,
        )
        assert report.coverage is not None
        assert 0.7 <= report.coverage <= 1.0

    def test_ht_estimator_campaign(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=40)
        [report] = run_campaign(
            mc_pop, [design], replicates=60, estimator="ht", master_seed=3
        )
        assert report.rmse > 0

    def test_failed_band_counts_as_error_and_keeps_estimate(self, mc_pop, monkeypatch):
        def no_band(*args, **kwargs):
            raise NumericalError("no band")

        monkeypatch.setattr(montecarlo, "covers", no_band)
        design = SamplingDesign(N=mc_pop.N, n=40)
        [failed] = run_campaign(mc_pop, [design], replicates=20,
                                compute_coverage=True, master_seed=4)
        [plain] = run_campaign(mc_pop, [design], replicates=20, master_seed=4)
        assert failed.n_errors == 20 and failed.coverage is None
        assert plain.n_errors == 0
        assert np.array_equal(failed.mean_curve, plain.mean_curve)

    def test_unknown_estimator(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=40)
        with pytest.raises(ValidationError):
            run_campaign(mc_pop, [design], replicates=10, estimator="magic")


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


def _blocks(replicates, design, pop):
    """The number of replicate blocks a campaign runs, ceil(R / B)."""
    return -(-replicates // montecarlo.block_size(design.n, pop.grid.size))


class TestReplicateWork:
    """A replicate block computes what the report reads: the variance
    curves, from one gather and one fit per block; the D x D matrices only
    for coverage bands, one stacked Gram per block."""

    @pytest.fixture(params=["srswor", "stratified"])
    def design(self, request, mc_pop):
        if request.param == "srswor":
            return SamplingDesign(N=mc_pop.N, n=40)
        return _stratified(mc_pop)

    @pytest.mark.parametrize("estimator", ["ma", "ht", "hajek"])
    def test_no_matrix_without_coverage(self, mc_pop, design, covariance_work,
                                        estimator):
        run_campaign(mc_pop, [design], replicates=6, estimator=estimator)
        assert covariance_work["grams"] == 0
        assert covariance_work["rows"] == _blocks(6, design, mc_pop) == 1

    @pytest.mark.parametrize("coverage", [False, True])
    def test_ma_gathers_and_fits_once(self, mc_pop, design, monkeypatch,
                                      coverage):
        gathers = _count_calls(monkeypatch, estimators, "_sample_arrays")
        fits = _count_calls(monkeypatch, estimators, "_fit")
        run_campaign(mc_pop, [design], replicates=5, compute_coverage=coverage,
                     band_sims=200)
        blocks = _blocks(5, design, mc_pop)
        assert (len(gathers), len(fits)) == (blocks, blocks) == (1, 1)

    def test_coverage_forms_the_matrix_once(self, mc_pop, design,
                                            covariance_work):
        # one stacked Gram per block, for the block's five bands
        [report] = run_campaign(mc_pop, [design], replicates=5,
                                compute_coverage=True, band_sims=200)
        assert report.coverage_bands == 5
        assert covariance_work["grams"] == _blocks(5, design, mc_pop) == 1
        assert covariance_work["rows"] == _blocks(5, design, mc_pop) == 1


def _label_strata(pop):
    """Three interleaved strata, unit k in stratum k % 3, so a sorted sample
    is not in stratum order."""
    return SamplingDesign(N=pop.N, n=30,
                          strata=tuple(np.arange(h, pop.N, 3) for h in range(3)),
                          n_h=(8, 10, 12))


def _band_normals(seed, sims, d):
    """A coverage campaign's band normals, drawn as the docs say, in the
    order drawn."""
    return replicate_rng(seed, 1).standard_normal((sims, d))


def _sorted_band_normals(seed, sims, d):
    """_band_normals as a campaign stores them: largest squared norm first,
    rows of equal norm in the order drawn."""
    normals = _band_normals(seed, sims, d)
    norms = np.einsum("ij,ij->i", normals, normals)
    return normals[np.argsort(-norms, kind="stable")]


def _replicate_twin(pop, design, replicates, kind, a, coverage, seed,
                    alpha=0.1, sims=200):
    """Per replicate, on single samples: (mean curve, variance curve, covers
    flag or None, error message or None)."""
    normals, out = _band_normals(seed, sims, pop.grid.size), []
    for i in range(replicates):
        sample = draw(design, replicate_rng(seed, i, 0))
        try:
            estimate = ESTIMATORS[kind](pop, sample, a)
            gamma = ht_covariance_estimate(pop, sample, estimate=estimate)
        except CurveSurveyError as exc:
            out.append((None, None, None, str(exc)))
            continue
        flag = None
        if coverage:
            flag = covers(estimate, gamma, alpha=alpha, normals=normals,
                          truth=population_mean(pop))
        out.append((estimate.curve, gamma.variance, flag, None))
    return out


def _record_campaign(monkeypatch):
    """Record the per-replicate results run_campaign aggregates: the last
    value montecarlo._concat returns in this process."""
    seen, concat = [], montecarlo._concat

    def recording(parts):
        seen.append(concat(parts))
        return seen[-1]

    monkeypatch.setattr(montecarlo, "_concat", recording)
    return seen


class TestBlocks:
    """Replicates run in stacked blocks, and each equals the single-sample
    draw, estimate and covariance of its own stream, and the band on the
    campaign's normals, bit for bit."""

    DESIGNS = {
        "srswor": lambda pop: SamplingDesign(N=pop.N, n=30),
        "ranges": _stratified,
        "labels": _label_strata,
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("coverage", [False, True])
    @pytest.mark.parametrize("layout", ["srswor", "ranges", "labels"])
    @pytest.mark.parametrize("kind, a", [("ht", 0.0), ("hajek", 0.0),
                                         ("ma", 0.0), ("ma", None)])
    def test_equals_the_single_sample_loop(self, mc_pop, monkeypatch, kind,
                                           a, layout, coverage, workers):
        design = self.DESIGNS[layout](mc_pop)
        # blocks of 3, so 7 replicates run as 3 + 3 + 1
        monkeypatch.setattr(montecarlo, "BLOCK_FLOATS",
                            3 * design.n * mc_pop.grid.size)
        assert montecarlo.block_size(design.n, mc_pop.grid.size) == 3
        seen = _record_campaign(monkeypatch)
        [report] = run_campaign(mc_pop, [design], replicates=7, estimator=kind,
                                a=a, compute_coverage=coverage, alpha=0.1,
                                band_sims=200, master_seed=8, workers=workers)
        twin = _replicate_twin(mc_pop, design, 7, kind, a, coverage, seed=8)
        curves, variances, flags, errors = seen[-1]
        assert errors == [] and report.n_errors == 0
        assert np.array_equal(curves, [t[0] for t in twin])
        assert np.array_equal(variances, [t[1] for t in twin])
        assert np.array_equal(report.mean_curve, curves.mean(axis=0))
        assert np.array_equal(report.mean_gamma_diag, variances.mean(axis=0))
        if coverage:
            assert flags.tolist() == [int(t[2]) for t in twin]
            assert report.coverage == np.mean([t[2] for t in twin])
            assert report.coverage_bands == 7
        else:
            assert flags.tolist() == [-1] * 7
            assert report.coverage is None and report.coverage_bands == 0

    @staticmethod
    def dummy_population(dummies):
        """aux = (1, z, 1 on the first `dummies` units): a sample missing
        every dummy unit has a singular design at a = 0."""
        rng = np.random.default_rng(5)
        n_units = 60
        aux = np.column_stack([np.ones(n_units), rng.normal(3, 1, n_units),
                               (np.arange(n_units) < dummies).astype(float)])
        values = (aux[:, :2] @ rng.standard_normal((2, 4))
                  + rng.standard_normal((n_units, 4)))
        return FunctionalPopulation(grid=TimeGrid(np.linspace(0, 1, 4)),
                                    values=values, aux=aux)

    def test_one_singular_replicate_in_a_block(self, monkeypatch):
        pop = self.dummy_population(15)
        design = SamplingDesign(N=pop.N, n=10)
        assert montecarlo.block_size(10, 4) >= 12  # one block of 12
        twin = _replicate_twin(pop, design, 12, "ma", 0.0, False, seed=2)
        failed = [t[3] for t in twin if t[3] is not None]
        assert len(failed) == 1 and "singular" in failed[0]
        seen = _record_campaign(monkeypatch)
        [report] = run_campaign(pop, [design], replicates=12, estimator="ma",
                                a=0.0, master_seed=2)
        curves, variances, _, errors = seen[-1]
        assert report.n_errors == 1 and errors == failed
        assert np.array_equal(curves, [t[0] for t in twin if t[3] is None])
        assert np.array_equal(variances, [t[1] for t in twin if t[3] is None])

    def test_a_failed_campaign_names_the_first_failed_replicate(self):
        pop = self.dummy_population(1)
        design = SamplingDesign(N=pop.N, n=10)
        twin = _replicate_twin(pop, design, 6, "ma", 0.0, False, seed=1)
        failed = [t[3] for t in twin if t[3] is not None]
        assert len(failed) == 5
        message = (f"only 1 of 6 replicates at n = 10 produced estimates "
                   f"(first failure: {failed[0]})")
        with pytest.raises(NumericalError) as info:
            run_campaign(pop, [design], replicates=6, estimator="ma", a=0.0,
                         master_seed=1)
        assert str(info.value) == message

    def test_block_size_comes_from_the_float_budget(self, mc_pop, monkeypatch):
        assert montecarlo.BLOCK_FLOATS == 2**15
        # readme-trend's sizes at D = 48, and loadcurve's blocks of one
        assert [montecarlo.block_size(n, 48) for n in (50, 100, 300)] == [13, 6, 2]
        assert montecarlo.block_size(2000, 336) == 1
        assert montecarlo.block_size(2**15, 2) == 1
        drawn = _record_draw_states(monkeypatch)
        design = SamplingDesign(N=mc_pop.N, n=200)
        assert montecarlo.block_size(200, 12) == 13
        run_campaign(mc_pop, [design], replicates=30, master_seed=3)
        assert [len(block) for block in drawn] == [13, 13, 4]
        assert sum(drawn, []) == _states(3, range(30), 0)  # one per replicate

    def test_each_replicate_draws_from_its_own_stream(self, mc_pop,
                                                      monkeypatch):
        drawn, banded = (_record_draw_states(monkeypatch),
                         _record_band_normals(monkeypatch))
        design = SamplingDesign(N=mc_pop.N, n=200)
        assert montecarlo.block_size(200, 12) == 13  # blocks of 13, 13 and 4
        [report] = run_campaign(mc_pop, [design], replicates=30,
                                compute_coverage=True, band_sims=150,
                                master_seed=3)
        assert report.coverage_bands == 30
        assert sum(drawn, []) == _states(3, range(30), 0)
        # every block's bands read the one read-only matrix of the campaign,
        # in one covers call per block
        assert len(banded) == 3 and all(m is banded[0] for m in banded)
        assert not banded[0].flags.writeable
        assert np.array_equal(banded[0], _sorted_band_normals(3, 150, 12))


def _record_band_normals(monkeypatch):
    """Record the normals each covers call of a campaign is handed;
    returns the list of matrices."""
    banded = []

    def recording_covers(*args, normals, **kwargs):
        banded.append(normals)
        return covers(*args, normals=normals, **kwargs)

    monkeypatch.setattr(montecarlo, "covers", recording_covers)
    return banded


def _states(seed, replicates, stream):
    """The generator state of replicate_rng(seed, i, stream), i in order."""
    return [replicate_rng(seed, i, stream).bit_generator.state
            for i in replicates]


def _record_draw_states(monkeypatch):
    """Record, block by block, the state of each generator montecarlo.draw
    reads, as the generator is taken; returns the list of blocks."""
    blocks = []

    def recording_draw(design, rngs):
        block = []
        blocks.append(block)

        def taken():
            for rng in rngs:
                block.append(rng.bit_generator.state)
                yield rng

        return draw(design, taken())

    monkeypatch.setattr(montecarlo, "draw", recording_draw)
    return blocks


@settings(deadline=None)
@given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=2000)))
def test_quantiles_equal_numpy_bit_for_bit(values):
    values = np.array(values)  # non-negative, with ties
    q = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
    got = montecarlo._quantiles(values, q)
    assert got.tobytes() == np.quantile(values, q).tobytes()


def _loop_reports(pop, designs, replicates, kind, a, coverage, alpha, sims,
                  seed):
    """run_campaign's reports from a plain loop over each size's
    replicates: draw, estimate, covariance and covers flag of one sample at
    a time, then montecarlo._report of the size; it raises the
    NumericalError of the first size that fails, as run_campaign does."""
    truth, d = population_mean(pop), pop.grid.size
    normals = _band_normals(seed, sims, d) if coverage else None
    reports = []
    for design in designs:
        curves, variances, flags, errors = [], [], [], []
        for i in range(replicates):
            sample = draw(design, replicate_rng(seed, i, 0))
            try:
                estimate = ESTIMATORS[kind](pop, sample, a)
                gamma = ht_covariance_estimate(pop, sample, estimate=estimate)
            except CurveSurveyError as exc:
                errors.append(str(exc))
                continue
            flag = -1  # no band: coverage off, or the band failed
            try:
                if coverage:
                    flag = int(covers(estimate, gamma, alpha, normals,
                                      truth))
            except CurveSurveyError:
                pass
            curves.append(estimate.curve)
            variances.append(gamma.variance)
            flags.append(flag)
        # _report reads no stream
        campaign = montecarlo._Campaign(pop, design, kind, a, None, alpha,
                                        normals, truth)
        results = (np.reshape(curves, (-1, d)), np.reshape(variances, (-1, d)),
                   np.array(flags, dtype=np.int8), errors)
        reports.append(montecarlo._report(campaign, replicates, results))
    return reports


def _recorded(run):
    """(the results montecarlo._report reduced, size by size; run()'s
    reports, or the message of the NumericalError it raised)."""
    seen, report = [], montecarlo._report

    def recording(campaign, replicates, results):
        seen.append(results)
        return report(campaign, replicates, results)

    with mock.patch.object(montecarlo, "_report", recording):
        try:
            return seen, run()
        except NumericalError as exc:
            return seen, str(exc)


def _assert_same_outcome(got, want):
    (got_results, got), (want_results, want) = got, want
    # per replicate: curves, variances, flags and error messages
    assert len(got_results) == len(want_results)
    for results, expected in zip(got_results, want_results):
        assert results[3] == expected[3]
        for value, other in zip(results[:3], expected[:3]):
            assert value.dtype == other.dtype and value.shape == other.shape
            assert np.array_equal(value, other)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert len(got) == len(want)
    for report, expected in zip(got, want):
        for field in dataclasses.fields(report):
            value, other = (getattr(r, field.name) for r in (report, expected))
            if isinstance(value, CovarianceEstimate):
                value, other = value.rows, other.rows
            if isinstance(value, np.ndarray):
                assert value.shape == other.shape, field.name
                assert np.array_equal(value, other), field.name
            else:
                assert value == other, field.name


@st.composite
def _campaigns(draw_from):
    """A population with a dummy covariate, the designs of 1-3 sample sizes
    (SRSWOR, two range strata or three interleaved label strata), and the
    campaign's settings, with BLOCK_FLOATS such that a block holds from
    one replicate to all of them."""
    n_units = draw_from(st.integers(12, 40))
    d = draw_from(st.integers(2, 5))
    layout = draw_from(st.sampled_from(["srswor", "ranges", "labels"]))
    strata = {"srswor": 1, "ranges": 2, "labels": 3}[layout]
    # a size of a few units often misses every dummy unit, and then its MA
    # fit at a = 0 is singular
    small = draw_from(st.integers(3, 5))
    others = draw_from(st.lists(st.integers(strata, n_units // 2),
                                max_size=2, unique=True))
    sizes = draw_from(st.permutations([small] + [n for n in others
                                                 if n != small]))
    replicates = draw_from(st.integers(2, 8))
    return dict(
        pop_seed=draw_from(st.integers(0, 2**16)), n_units=n_units, d=d,
        layout=layout, sizes=sizes, replicates=replicates,
        kind=draw_from(st.sampled_from(["ma", "hajek", "ht"])),
        a=draw_from(st.sampled_from([0.0, None])),
        coverage=draw_from(st.booleans()),
        # 0.5 first, as hypothesis favours the first: the flags vary most
        alpha=draw_from(st.sampled_from([0.5, 0.1, 0.05])),
        # past three tiles too, so a band may read many tiles of the matrix
        sims=draw_from(st.one_of(st.integers(100, 300),
                                 st.integers(3 * SIM_BLOCK + 1,
                                             3 * SIM_BLOCK + 300))),
        # beyond 2**64, so seeds of one to three 32-bit words run
        seed=draw_from(st.integers(0, 2**70)),
        block_floats=draw_from(st.integers(1, replicates * max(sizes) * d)),
    )


def _campaign_inputs(case):
    """(population, designs) of a _campaigns case: aux = (1, z, 1 on the
    first quarter of the units)."""
    rng = np.random.default_rng(case["pop_seed"])
    n_units, d = case["n_units"], case["d"]
    aux = np.column_stack([np.ones(n_units), rng.normal(3, 1, n_units),
                           (np.arange(n_units) < n_units // 4).astype(float)])
    values = (aux @ rng.standard_normal((3, d))
              + rng.standard_normal((n_units, d)))
    pop = FunctionalPopulation(grid=TimeGrid(np.linspace(0, 1, d)),
                               values=values, aux=aux)
    half = n_units // 2
    layouts = {
        "srswor": lambda n: SamplingDesign(N=n_units, n=n),
        "ranges": lambda n: SamplingDesign(
            N=n_units, n=n, strata=(np.arange(half), np.arange(half, n_units)),
            n_h=(n - n // 2, n // 2)),
        "labels": lambda n: SamplingDesign(
            N=n_units, n=n,
            strata=tuple(np.arange(h, n_units, 3) for h in range(3)),
            n_h=tuple(n // 3 + (h < n % 3) for h in range(3))),
    }
    return pop, [layouts[case["layout"]](n) for n in case["sizes"]]


def _check_against_the_loop(case, workers):
    pop, designs = _campaign_inputs(case)
    # run_campaign's positional order, which _loop_reports shares
    args = [case[key] for key in ("replicates", "kind", "a", "coverage",
                                  "alpha", "sims", "seed")]
    with mock.patch.object(montecarlo, "BLOCK_FLOATS", case["block_floats"]):
        engine = _recorded(lambda: run_campaign(pop, designs, *args,
                                                workers=workers))
    loop = _recorded(lambda: _loop_reports(pop, designs, *args))
    _assert_same_outcome(engine, loop)


class TestEngineAgainstTheLoop:
    """run_campaign, with its blocks, its solo re-runs and its one task
    stream over the sizes, equals a per-replicate loop bit for bit."""

    @given(case=_campaigns())
    @settings(max_examples=40, deadline=None)
    def test_equals_a_per_replicate_loop(self, case):
        _check_against_the_loop(case, workers=1)

    @given(case=_campaigns())
    @settings(max_examples=3, deadline=None)
    def test_equals_a_per_replicate_loop_in_a_pool(self, case):
        _check_against_the_loop(case, workers=2)


@pytest.mark.parametrize("setting, message", [
    ({"band_sims": 50}, "at least 100 simulations"),
    ({"alpha": 1.5}, r"alpha must be in \(0, 1\)"),
    ({"alpha": 0.0}, r"alpha must be in \(0, 1\)"),
])
def test_bad_band_settings_are_refused_before_any_replicate(
        mc_pop, monkeypatch, setting, message):
    def no_replicate(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(montecarlo, "_run_replicate", no_replicate)
    design = SamplingDesign(N=mc_pop.N, n=40)
    with pytest.raises(ValidationError, match=message):
        run_campaign(mc_pop, [design], replicates=10, compute_coverage=True,
                     **setting)


@pytest.mark.parametrize("setting, message", [
    ({"master_seed": 1.5}, "seed must be an integer, got 1.5"),
    ({"replicates": 2.5}, "replicates must be an integer, got 2.5"),
    ({"workers": 1.5}, "workers must be an integer, got 1.5"),
    ({"compute_coverage": True, "band_sims": 150.5},
     "n_sims must be an integer, got 150.5"),
])
def test_counts_and_seeds_that_are_not_integers_are_refused(
        mc_pop, monkeypatch, setting, message):
    # refused, neither truncated (1.5 as seed 1) nor a bare TypeError
    def no_replicate(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(montecarlo, "_run_replicate", no_replicate)
    design = SamplingDesign(N=mc_pop.N, n=40)
    with pytest.raises(ValidationError, match=message):
        run_campaign(mc_pop, [design], **{"replicates": 5, **setting})


def test_numpy_integer_counts_and_seeds_are_python_ints_alike(mc_pop):
    design = SamplingDesign(N=mc_pop.N, n=40)
    settings = {"replicates": 6, "master_seed": 3, "workers": 1,
                "band_sims": 200}
    [want] = run_campaign(mc_pop, [design], compute_coverage=True, **settings)
    [got] = run_campaign(mc_pop, [design], compute_coverage=True,
                         **{k: np.int64(v) for k, v in settings.items()})
    assert got.rmse == want.rmse and got.coverage == want.coverage


@pytest.mark.parametrize("design_n, a, message", [
    (120, 0.0, "design has N=120, population has N=400"),
    (None, -1.0, "floor a must be finite and >= 0, got -1.0"),
    (None, np.nan, "floor a must be finite and >= 0, got nan"),
    (None, np.inf, "floor a must be finite and >= 0, got inf"),
])
def test_bad_campaign_inputs_are_refused_before_any_replicate(
        mc_pop, monkeypatch, design_n, a, message):
    # a ValidationError (exit 2), not every replicate failing (exit 3)
    def no_replicate(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(montecarlo, "_run_replicate", no_replicate)
    designs = [SamplingDesign(N=mc_pop.N, n=40),
               SamplingDesign(N=design_n or mc_pop.N, n=10)]
    with pytest.raises(ValidationError, match=message):
        run_campaign(mc_pop, designs, replicates=5, a=a)


class TestCoverageBands:
    def test_one_failed_band_is_left_out_of_the_rate(self, mc_pop, monkeypatch):
        stacks, real = [], montecarlo.covers

        def third_band_fails(*args, **kwargs):
            # one covers call per block, whose third band is not built
            flags = real(*args, **kwargs)
            flags[2] = -1
            stacks.append(flags)
            return flags

        monkeypatch.setattr(montecarlo, "covers", third_band_fails)
        design = SamplingDesign(N=mc_pop.N, n=40)
        [report] = run_campaign(mc_pop, [design], replicates=12,
                                compute_coverage=True, band_sims=400,
                                master_seed=4)
        [flags] = stacks
        built = flags[flags >= 0]
        assert len(flags) == 12 and len(built) == 11
        assert report.coverage_bands == 11
        assert report.n_errors == 1
        assert report.coverage == np.mean(built)

    def test_zero_without_coverage(self, mc_pop):
        design = SamplingDesign(N=mc_pop.N, n=40)
        [report] = run_campaign(mc_pop, [design], replicates=4)
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
            max_workers=1, initializer=montecarlo._start_worker, initargs=((),)
        ) as pool:
            assert pool.submit(_blas_threads).result(timeout=60) == 1

    def test_parent_keeps_its_blas_threads(self, mc_pop):
        before = _blas_threads()
        design = SamplingDesign(N=mc_pop.N, n=40)
        run_campaign(mc_pop, [design], replicates=8, master_seed=1, workers=2)
        assert _blas_threads() == before


class TestCallerBlasThreads:
    """A workers=1 campaign runs its replicates on one BLAS thread in the
    calling process, and gives the caller its own count back."""

    def test_replicate_reads_one_thread(self, mc_pop, monkeypatch,
                                        caller_at_two_blas_threads):
        seen = []
        replicate = montecarlo._run_replicate

        def recording(campaign, lo, hi):
            seen.append(_blas_threads())
            return replicate(campaign, lo, hi)

        monkeypatch.setattr(montecarlo, "_run_replicate", recording)
        monkeypatch.setattr(montecarlo, "BLOCK_FLOATS", 2 * 40 * 12)
        design = SamplingDesign(N=mc_pop.N, n=40)
        run_campaign(mc_pop, [design], replicates=6, master_seed=1)
        assert seen == [1] * _blocks(6, design, mc_pop) == [1] * 3
        assert _blas_threads() == 2

    def test_count_restored_when_a_replicate_raises(
            self, mc_pop, monkeypatch, caller_at_two_blas_threads):
        def broken(campaign, lo, hi):
            raise RuntimeError("not a CurveSurveyError")

        monkeypatch.setattr(montecarlo, "_run_replicate", broken)
        design = SamplingDesign(N=mc_pop.N, n=40)
        with pytest.raises(RuntimeError):
            run_campaign(mc_pop, [design], replicates=6, master_seed=1)
        assert _blas_threads() == 2

    def test_results_do_not_depend_on_the_callers_count(
            self, mc_pop, caller_at_two_blas_threads):
        design = SamplingDesign(N=mc_pop.N, n=40)
        reports = []
        for threads in (1, 2):
            linalg._set_blas_threads(threads)
            reports += run_campaign(
                mc_pop, [design], replicates=12, compute_coverage=True,
                band_sims=300, master_seed=6)
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
    sent: list = []  # the campaigns each pool's initializer would receive

    def __init__(self, max_workers, initializer, initargs):
        type(self).sizes.append(max_workers)
        type(self).threads.append(threading.active_count())
        self.campaigns = initargs[0]
        type(self).sent.append(self.campaigns)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        return [montecarlo._run_replicate(self.campaigns[k], lo, hi)
                for k, lo, hi in tasks]


def test_pool_is_no_larger_than_the_campaign(mc_pop, monkeypatch):
    # run_campaign imports the pool class when it needs a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    design = SamplingDesign(N=mc_pop.N, n=40)
    replicates = 9 * montecarlo.block_size(40, 12) + 1  # ten blocks
    assert _blocks(replicates, design, mc_pop) == 10
    [capped] = run_campaign(mc_pop, [design], replicates=replicates,
                            master_seed=3, workers=500)
    run_campaign(mc_pop, [design], replicates=replicates, master_seed=3,
                 workers=3)
    assert _RecordingPool.sizes == [10, 3]
    [serial] = run_campaign(mc_pop, [design], replicates=replicates,
                            master_seed=3)
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
    replicates = montecarlo.block_size(40, 8) + 1  # two blocks, so a pool
    # with coverage, so the pool is sent the band normals too
    [report] = run_campaign(pop, [design], replicates=replicates,
                            compute_coverage=True, band_sims=100,
                            master_seed=1, workers=2)
    assert report.coverage_bands == replicates
    assert _RecordingPool.threads == [before]
    assert threading.active_count() == before


def test_a_pool_is_sent_one_read_only_band_matrix(mc_pop, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sent", [])
    run_campaign(mc_pop, _sizes(mc_pop), replicates=12, compute_coverage=True,
                 band_sims=300, master_seed=3, workers=2)
    [campaigns] = _RecordingPool.sent
    normals = campaigns[0].normals
    assert all(c.normals is normals for c in campaigns)
    assert not normals.flags.writeable
    assert np.array_equal(normals,
                          _sorted_band_normals(3, 300, mc_pop.grid.size))
    # pickle sends the matrix, which every size shares, once
    extra = len(pickle.dumps(campaigns)) - len(pickle.dumps(campaigns[:1]))
    assert extra < normals.nbytes


class _FixedStream:
    """Stands in for a replicate_rng stream: fills its draw with `rows`."""

    def __init__(self, rows):
        self.rows = rows

    def standard_normal(self, out):
        out[...] = self.rows


class TestBandNormalsOrder:
    """_band_normals stores the rows of the campaign's stream largest norm
    first, ties in the order drawn, read-only."""

    @pytest.mark.parametrize("seed, sims, d", [(3, 300, 12), (1204, 5000, 48),
                                               (2**64 + 5, 100, 1)])
    def test_the_streams_rows_in_non_increasing_norm_order(self, seed, sims,
                                                           d):
        normals = montecarlo._band_normals(seed, sims, d)
        norms = np.einsum("ij,ij->i", normals, normals)
        assert np.all(norms[:-1] >= norms[1:])
        assert np.array_equal(normals, _sorted_band_normals(seed, sims, d))
        assert not normals.flags.writeable

    def test_ties_keep_the_order_drawn(self, monkeypatch):
        rows = np.array([[1.0, 0.0], [0.0, -1.0], [2.0, 0.0], [-1.0, 0.0],
                         [0.0, 2.0], [0.5, 0.5]])
        monkeypatch.setattr(montecarlo, "replicate_rng",
                            lambda seed, *key: _FixedStream(rows))
        normals = montecarlo._band_normals(0, 6, 2)
        assert np.array_equal(normals, rows[[2, 4, 0, 1, 3, 5]])
        assert not normals.flags.writeable


def test_a_pickled_campaign_is_read_only_in_a_worker(mc_pop, monkeypatch):
    # a spawned or forkserver worker unpickles the campaigns, where fork
    # would inherit them
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sent", [])
    monkeypatch.setattr(montecarlo, "_WORKER_CAMPAIGNS", ())
    monkeypatch.setattr(montecarlo, "_set_blas_threads", lambda count: None)
    run_campaign(mc_pop, _sizes(mc_pop)[:2], replicates=12,
                 compute_coverage=True, band_sims=300, master_seed=3,
                 workers=2)
    [campaigns] = _RecordingPool.sent
    montecarlo._start_worker(pickle.loads(pickle.dumps(campaigns)))
    copies = montecarlo._WORKER_CAMPAIGNS
    assert copies is not campaigns and len(copies) == 2
    for copy, c in zip(copies, campaigns):
        for where, campaign in (("worker", copy), ("caller", c)):
            arrays = {"pop.values": campaign.pop.values,
                      "pop.aux": campaign.pop.aux,
                      "pop.grid.points": campaign.pop.grid.points,
                      "design.pi": campaign.design.pi,
                      "design.labels": campaign.design.labels,
                      "streams.words": campaign.streams.words,
                      "truth": campaign.truth, "normals": campaign.normals}
            for name, array in arrays.items():
                assert not array.flags.writeable, f"{where}'s {name}"
        assert np.array_equal(copy.normals, c.normals)
        assert np.array_equal(copy.pop.values, c.pop.values)
    assert copies[0].normals is copies[1].normals


def _key_words(seed, key):
    """The 32-bit words SeedSequence(seed, spawn_key=key) hashes: the
    seed's words, padded to the pool's four when a key follows, then the
    words of each key entry in turn."""
    run = designs._words(seed)
    if not key:
        return run
    return run + [0] * (4 - len(run)) + [w for k in key for w in designs._words(k)]


class TestBandNormalsKey:
    """The campaign's band normals come from a stream of their own: their
    key hashes other words than any replicate's sample key (i, 0), the
    bands command's key (0, 1) and the population draw's empty key."""

    def test_a_key_past_one_word_is_another_key(self):
        # the trap: (2**32,) hashes the words (0, 1), the bands command's
        assert _key_words(5, (2**32,)) == _key_words(5, (0, 1))
        assert np.array_equal(replicate_rng(5, 2**32).standard_normal(8),
                              replicate_rng(5, 0, 1).standard_normal(8))

    @pytest.mark.parametrize("seed", [0, 1204, 2**64 + 5, 2**128 + 3])
    def test_no_other_stream_hashes_its_words(self, mc_pop, monkeypatch,
                                              seed):
        keys, real = [], montecarlo.replicate_rng

        def recording(master_seed, *key):
            keys.append((master_seed, key))
            return real(master_seed, *key)

        monkeypatch.setattr(montecarlo, "replicate_rng", recording)
        run_campaign(mc_pop, [SamplingDesign(N=mc_pop.N, n=40)], replicates=3,
                     compute_coverage=True, band_sims=100, master_seed=seed)
        [(master_seed, key)] = keys
        assert master_seed == seed
        band, population = _key_words(seed, key), _key_words(seed, ())
        # a key (i, j) of one-word entries hashes the padded seed words and
        # two more, the empty key the seed's words alone: no length is the
        # band's
        padded = max(len(population), 4)
        assert len(band) == padded + 1 != len(population)
        for other in [(0, 0), (1, 0), (2**32 - 1, 0), (0, 1), (1, 1)]:
            assert len(_key_words(seed, other)) == padded + 2


def test_the_first_flags_do_not_depend_on_replicates_or_other_sizes(mc_pop):
    settings = dict(compute_coverage=True, alpha=0.5, band_sims=300,
                    master_seed=12)
    design = SamplingDesign(N=mc_pop.N, n=40)
    alone, _ = _recorded(lambda: run_campaign(mc_pop, [design],
                                              replicates=10, **settings))
    among, _ = _recorded(lambda: run_campaign(mc_pop, _sizes(mc_pop),
                                              replicates=25, **settings))
    assert [r.n for r in _sizes(mc_pop)][1] == 40
    flags = alone[0][2]
    assert set(flags.tolist()) == {0, 1}
    assert np.array_equal(among[1][2][:10], flags)


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
    [pooled] = run_campaign(pop, [design], replicates=40, master_seed=9,
                            workers=2)
    assert _CountedPopulation.pickles <= 2
    [serial] = run_campaign(mc_pop, [design], replicates=40, master_seed=9)
    assert np.array_equal(pooled.gamma_emp.matrix, serial.gamma_emp.matrix)


def _sizes(pop):
    """Three sample sizes of one campaign, smallest first."""
    return [SamplingDesign(N=pop.N, n=n) for n in (20, 40, 60)]


def test_one_pool_runs_every_size(mc_pop, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    designs = _sizes(mc_pop)
    blocks = sum(_blocks(100, d, mc_pop) for d in designs)
    assert blocks == 1 + 2 + 3
    capped = run_campaign(mc_pop, designs, replicates=100, master_seed=3,
                          workers=500)
    assert _RecordingPool.sizes == [blocks]
    run_campaign(mc_pop, designs, replicates=100, master_seed=3, workers=4)
    assert _RecordingPool.sizes == [blocks, 4]
    serial = run_campaign(mc_pop, designs, replicates=100, master_seed=3)
    assert _RecordingPool.sizes == [blocks, 4]
    assert [r.n for r in capped] == [20, 40, 60]
    for pooled, alone in zip(capped, serial):
        assert np.array_equal(pooled.gamma_emp.matrix, alone.gamma_emp.matrix)


def test_two_threads_get_the_reports_of_two_sequential_calls(
        mc_pop, caller_at_two_blas_threads):
    # each call restates Generators of its own, so neither thread moves
    # the other's streams, and the two share one BLAS pin, so the caller
    # gets its count back
    designs = _sizes(mc_pop)
    settings = [dict(master_seed=5, compute_coverage=True, band_sims=300),
                dict(master_seed=2**64 + 5, estimator="hajek")]
    sequential = [run_campaign(mc_pop, designs, replicates=40, **s)
                  for s in settings]
    start = threading.Barrier(2)

    def run(s):
        start.wait(timeout=60)
        return run_campaign(mc_pop, designs, replicates=40, **s)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads take turns between most calls
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as threads:
            together = list(threads.map(run, settings, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(together, sequential):
        _assert_same_outcome(([], got), ([], want))
    assert _blas_threads() == 2


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("coverage", [False, True])
@pytest.mark.parametrize("kind", ["ma", "hajek"])
def test_each_size_equals_its_own_campaign(mc_pop, monkeypatch, kind,
                                           coverage, workers):
    # blocks of 6, 3 and 2 replicates, so every size runs several tasks
    monkeypatch.setattr(montecarlo, "BLOCK_FLOATS", 3 * 40 * mc_pop.grid.size)
    settings = dict(replicates=12, estimator=kind, a=0.0,
                    compute_coverage=coverage, alpha=0.1, band_sims=200,
                    master_seed=7)
    designs = _sizes(mc_pop)
    reports = run_campaign(mc_pop, designs, workers=workers, **settings)
    assert len(reports) == len(designs)
    for design, report in zip(designs, reports):
        [alone] = run_campaign(mc_pop, [design], **settings)
        assert report.n == design.n
        for name in ("rmse", "rb_squared", "vr", "er_quantiles", "coverage",
                     "coverage_bands", "n_errors"):
            assert getattr(report, name) == getattr(alone, name), name
        assert (report.coverage is not None) == coverage
        for name in ("mean_curve", "mean_gamma_diag"):
            assert np.array_equal(getattr(report, name), getattr(alone, name))
        assert np.array_equal(report.gamma_emp.matrix, alone.gamma_emp.matrix)
