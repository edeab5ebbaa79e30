import itertools
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from curvesurvey import (
    EnumerationCapError,
    Sample,
    SamplingDesign,
    ValidationError,
    draw,
    enumerate_samples,
    first_order_prob,
    first_order_probs,
    replicate_rng,
    second_order_matrix,
    second_order_prob,
)
from curvesurvey.designs import joint_probs_submatrix


def stratified_2x2():
    return SamplingDesign(
        kind="stratified",
        N=4,
        n=2,
        strata=(np.array([0, 1]), np.array([2, 3])),
        n_h=(1, 1),
    )


class TestFirstOrder:
    def test_srswor_half(self):
        d = SamplingDesign(kind="srswor", N=4, n=2)
        for k in range(4):
            assert first_order_prob(d, k) == pytest.approx(0.5)

    def test_census(self):
        d = SamplingDesign(kind="srswor", N=3, n=3)
        assert first_order_probs(d).tolist() == [1.0, 1.0, 1.0]

    def test_stratified(self):
        d = stratified_2x2()
        assert first_order_prob(d, 0) == pytest.approx(0.5)

    def test_out_of_range(self):
        d = SamplingDesign(kind="srswor", N=4, n=2)
        with pytest.raises(ValidationError):
            first_order_prob(d, 4)


class TestCachedInvariants:
    @pytest.mark.parametrize(
        "design", [SamplingDesign(kind="srswor", N=6, n=2), stratified_2x2()],
        ids=["srswor", "stratified"],
    )
    def test_cached_arrays_refuse_writes(self, design):
        arrays = [first_order_probs(design), design.stratum_of(),
                  *design.allocation[0]]
        for a in arrays:
            with pytest.raises(ValueError):
                a[0] = 0
        assert first_order_probs(design) is first_order_probs(design)
        assert design.stratum_of() is design.stratum_of()

    def test_pickled_design_recomputes_its_caches(self):
        design = SamplingDesign(
            kind="stratified", N=5, n=3,
            strata=(np.array([0, 1]), np.array([2, 3, 4])), n_h=(1, 2),
        )
        expected = [0.5, 0.5, 2 / 3, 2 / 3, 2 / 3]
        assert np.allclose(first_order_probs(design), expected)  # fills the cache
        copy = pickle.loads(pickle.dumps(design))
        assert not first_order_probs(copy).flags.writeable
        assert np.array_equal(copy.stratum_of(), [0, 0, 1, 1, 1])
        with ProcessPoolExecutor(max_workers=1) as pool:
            pi = pool.submit(first_order_probs, design).result(timeout=60)
        assert np.allclose(pi, expected)


class TestSecondOrder:
    def test_srswor_4_2(self):
        d = SamplingDesign(kind="srswor", N=4, n=2)
        assert second_order_prob(d, 0, 1) == pytest.approx(1 / 6)

    def test_census(self):
        d = SamplingDesign(kind="srswor", N=3, n=3)
        assert second_order_prob(d, 0, 2) == 1.0

    def test_srswor_5_3(self):
        d = SamplingDesign(kind="srswor", N=5, n=3)
        assert second_order_prob(d, 1, 3) == pytest.approx(0.3)

    def test_diagonal_convention(self):
        d = SamplingDesign(kind="srswor", N=5, n=3)
        assert second_order_prob(d, 2, 2) == pytest.approx(0.6)

    def test_submatrix_matches_full(self):
        for d in (SamplingDesign(kind="srswor", N=6, n=3), stratified_2x2()):
            idx = np.array([0, 2, 3])
            full = second_order_matrix(d)[np.ix_(idx, idx)]
            assert np.allclose(joint_probs_submatrix(d, idx), full, atol=0)


class TestDraw:
    def test_census_always_everything(self):
        d = SamplingDesign(kind="srswor", N=4, n=4)
        s = draw(d, np.random.default_rng(0))
        assert s.indices.tolist() == [0, 1, 2, 3]

    def test_subset_frequencies_uniform(self):
        d = SamplingDesign(kind="srswor", N=4, n=2)
        rng = np.random.default_rng(99)
        counts = {}
        reps = 60_000
        for _ in range(reps):
            key = tuple(draw(d, rng).indices)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        for c in counts.values():
            assert abs(c / reps - 1 / 6) < 0.01

    def test_deterministic_given_stream(self):
        d = SamplingDesign(kind="srswor", N=50, n=10)
        a = draw(d, replicate_rng(7, 3, 0))
        b = draw(d, replicate_rng(7, 3, 0))
        assert np.array_equal(a.indices, b.indices)

    def test_stratified_one_per_stratum(self):
        d = stratified_2x2()
        s = draw(d, np.random.default_rng(1))
        assert s.indices.size == 2
        assert s.indices[0] in (0, 1) and s.indices[1] in (2, 3)


class TestEnumeration:
    def test_srswor_4_2(self):
        d = SamplingDesign(kind="srswor", N=4, n=2)
        pairs = enumerate_samples(d)
        assert len(pairs) == 6
        assert all(p == pytest.approx(1 / 6) for _, p in pairs)
        assert abs(sum(p for _, p in pairs) - 1.0) < 1e-12

    def test_census_single_sample(self):
        d = SamplingDesign(kind="srswor", N=3, n=3)
        pairs = enumerate_samples(d)
        assert len(pairs) == 1 and pairs[0][1] == 1.0

    def test_stratified_product(self):
        pairs = enumerate_samples(stratified_2x2())
        assert len(pairs) == 4
        assert all(p == pytest.approx(0.25) for _, p in pairs)

    def test_cap_refusal(self):
        d = SamplingDesign(kind="srswor", N=30, n=15)
        with pytest.raises(EnumerationCapError) as exc:
            enumerate_samples(d, cap=1000)
        assert exc.value.required > 1000


class TestIdentities:
    @pytest.mark.parametrize(
        "design",
        [
            SamplingDesign(kind="srswor", N=6, n=3),
            SamplingDesign(kind="srswor", N=8, n=4),
            stratified_2x2(),
            SamplingDesign(
                kind="stratified",
                N=6,
                n=4,
                strata=(np.arange(3), np.arange(3, 6)),
                n_h=(2, 2),
            ),
        ],
    )
    def test_fixed_size_identities(self, design):
        pi = first_order_probs(design)
        pi2 = second_order_matrix(design)
        assert abs(pi.sum() - design.n) < 1e-12
        rows = pi2.sum(axis=1) - np.diag(pi2)
        assert np.abs(rows - (design.n - 1) * pi).max() < 1e-12

    def test_enumeration_reproduces_probabilities(self):
        design = SamplingDesign(kind="srswor", N=7, n=3)
        pairs = enumerate_samples(design)
        member = np.zeros((len(pairs), 7))
        probs = np.array([p for _, p in pairs])
        for i, (s, _) in enumerate(pairs):
            member[i, s.indices] = 1.0
        assert np.abs(probs @ member - first_order_probs(design)).max() < 1e-12
        joint = (member * probs[:, None]).T @ member
        np.fill_diagonal(joint, probs @ member)
        assert np.abs(joint - second_order_matrix(design)).max() < 1e-12

    def test_srswor_negative_association(self):
        for N, n in itertools.product(range(2, 9), range(1, 5)):
            if n >= N:
                continue
            d = SamplingDesign(kind="srswor", N=N, n=n)
            pi = first_order_probs(d)
            delta = second_order_matrix(d) - np.outer(pi, pi)
            np.fill_diagonal(delta, 0.0)
            assert delta.max() <= 1e-15


class TestValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValidationError):
            SamplingDesign(kind="srswor", N=4, n=5)
        with pytest.raises(ValidationError):
            SamplingDesign(kind="srswor", N=4, n=0)

    def test_strata_must_partition(self):
        with pytest.raises(ValidationError):
            SamplingDesign(
                kind="stratified",
                N=4,
                n=2,
                strata=(np.array([0, 1]), np.array([1, 2])),
                n_h=(1, 1),
            )

    def test_sample_size_enforced(self):
        d = SamplingDesign(kind="srswor", N=4, n=2)
        with pytest.raises(ValidationError):
            Sample(np.array([0, 1, 2]), d)
        with pytest.raises(ValidationError):
            Sample(np.array([0, 0]), d)
        with pytest.raises(ValidationError):
            Sample(np.array([0, 4]), d)

    def test_stratum_counts_enforced(self):
        d = stratified_2x2()
        Sample(np.array([1, 2]), d)
        with pytest.raises(ValidationError):
            Sample(np.array([0, 1]), d)  # two units from stratum 0
