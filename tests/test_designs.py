import itertools
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesurvey import designs
from curvesurvey import (
    EnumerationCapError,
    SamplingDesign,
    ValidationError,
    draw,
)
from curvesurvey.designs import (
    ReplicateStreams,
    Sample,
    first_order_probs,
    joint_probs_submatrix,
    replicate_rng,
)
from curvesurvey.oracle import (
    default_fixture,
    enumerate_samples,
    oracle_check,
    second_order_matrix,
)


def stratified_2x2():
    return SamplingDesign(
        N=4,
        n=2,
        strata=(np.array([0, 1]), np.array([2, 3])),
        n_h=(1, 1),
    )


class TestFirstOrder:
    def test_srswor_half(self):
        d = SamplingDesign(N=4, n=2)
        for k in range(4):
            assert first_order_probs(d)[k] == pytest.approx(0.5)

    def test_census(self):
        d = SamplingDesign(N=3, n=3)
        assert first_order_probs(d).tolist() == [1.0, 1.0, 1.0]

    def test_stratified(self):
        d = stratified_2x2()
        assert first_order_probs(d)[0] == pytest.approx(0.5)

    def test_out_of_range(self):
        d = SamplingDesign(N=4, n=2)
        assert first_order_probs(d).shape == (d.N,)
        with pytest.raises(IndexError):
            first_order_probs(d)[4]


def stratified_2_3():
    return SamplingDesign(
        N=5, n=3,
        strata=(np.array([3, 1, 0]), np.array([2, 4])), n_h=(2, 1),
    )


DESIGNS = [SamplingDesign(N=6, n=2), stratified_2_3()]


class TestDesignFields:
    def test_srswor_is_its_one_stratum(self):
        design = SamplingDesign(N=6, n=2)
        assert len(design.strata) == 1
        assert np.array_equal(design.strata[0], np.arange(6))
        assert design.n_h == (2,)
        assert design.pi.tolist() == [1 / 3] * 6
        assert design.labels.tolist() == [0] * 6

    @pytest.mark.parametrize("design", DESIGNS, ids=["srswor", "stratified"])
    def test_arrays_refuse_writes(self, design):
        for a in (design.pi, design.labels, *design.strata):
            with pytest.raises(ValueError):
                a[0] = 0
        assert first_order_probs(design) is design.pi
        assert design.pi is design.pi and design.labels is design.labels

    @pytest.mark.parametrize("design", DESIGNS, ids=["srswor", "stratified"])
    def test_pickled_copy_equals_the_original(self, design):
        copy = pickle.loads(pickle.dumps(design))
        assert (copy.N, copy.n, copy.n_h) == (design.N, design.n, design.n_h)
        arrays = [(copy.pi, design.pi), (copy.labels, design.labels),
                  *zip(copy.strata, design.strata, strict=True)]
        for got, expected in arrays:
            assert np.array_equal(got, expected)
            assert not got.flags.writeable

    def test_srswor_pickle_holds_no_unit_array(self):
        assert len(pickle.dumps(SamplingDesign(N=20000, n=2000))) < 200

    def test_pool_worker_computes_the_same_pi(self):
        design = stratified_2_3()
        assert np.array_equal(design.labels, [0, 0, 1, 0, 1])
        with ProcessPoolExecutor(max_workers=1) as pool:
            pi = pool.submit(first_order_probs, design).result(timeout=60)
        assert np.array_equal(pi, [2 / 3, 2 / 3, 1 / 2, 2 / 3, 1 / 2])


class TestSecondOrder:
    def test_srswor_4_2(self):
        d = SamplingDesign(N=4, n=2)
        assert second_order_matrix(d)[0, 1] == pytest.approx(1 / 6)

    def test_census(self):
        d = SamplingDesign(N=3, n=3)
        assert second_order_matrix(d)[0, 2] == 1.0

    def test_srswor_5_3(self):
        d = SamplingDesign(N=5, n=3)
        assert second_order_matrix(d)[1, 3] == pytest.approx(0.3)

    def test_diagonal_convention(self):
        d = SamplingDesign(N=5, n=3)
        assert second_order_matrix(d)[2, 2] == pytest.approx(0.6)

    def test_submatrix_matches_full(self):
        for d in (SamplingDesign(N=6, n=3), stratified_2x2()):
            idx = np.array([0, 2, 3])
            full = second_order_matrix(d)[np.ix_(idx, idx)]
            assert np.allclose(joint_probs_submatrix(d, idx), full, atol=0)


class TestDraw:
    def test_census_always_everything(self):
        d = SamplingDesign(N=4, n=4)
        s = draw(d, np.random.default_rng(0))
        assert s.indices.tolist() == [0, 1, 2, 3]

    def test_subset_frequencies_uniform(self):
        d = SamplingDesign(N=4, n=2)
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
        d = SamplingDesign(N=50, n=10)
        a = draw(d, replicate_rng(7, 3, 0))
        b = draw(d, replicate_rng(7, 3, 0))
        assert np.array_equal(a.indices, b.indices)

    def test_stratified_one_per_stratum(self):
        d = stratified_2x2()
        s = draw(d, np.random.default_rng(1))
        assert s.indices.size == 2
        assert s.indices[0] in (0, 1) and s.indices[1] in (2, 3)

    @pytest.mark.parametrize("design", [
        SamplingDesign(N=50, n=10),
        SamplingDesign(N=30, n=9, strata=tuple(np.arange(h, 30, 3)
                                                for h in range(3)),
                       n_h=(2, 3, 4)),
    ])
    def test_a_list_of_streams_draws_the_stack_of_their_samples(self, design):
        stack = draw(design, [replicate_rng(7, i, 0) for i in range(5)])
        assert stack.indices.shape == (5, design.n)
        for i, row in enumerate(stack.indices):
            assert np.array_equal(row, draw(design, replicate_rng(7, i, 0)).indices)


def _assert_same_stream(got, want):
    """Two generators in the same state, which draw the same sample and the
    same normals."""
    assert got.bit_generator.state == want.bit_generator.state
    assert np.array_equal(got.choice(1000, size=20, replace=False),
                          want.choice(1000, size=20, replace=False))
    assert got.standard_normal(7).tobytes() == want.standard_normal(7).tobytes()


def _twin_streams(seed, keys, stream):
    """The twin's generator of stream (i, stream) for each i in keys, from
    one vectorized pass over the keys."""
    words = designs._seed_words(seed, np.array(keys, dtype=np.uint32), stream)
    return [designs._restate(np.random.default_rng(0), row) for row in words]


class TestReplicateStreams:
    """The vectorized twin of SeedSequence and PCG64 seeding is the stream
    of replicate_rng, for every master seed size and key word."""

    @pytest.mark.parametrize("stream", [0, 1])
    @pytest.mark.parametrize("seed", [0, 1204, 2**32 - 1, 2**32, 2**64 + 5,
                                      2**128 + 3])
    def test_equals_replicate_rng(self, seed, stream):
        keys = [0, 1, 2**31, 2**32 - 1]
        for i, twin in zip(keys, _twin_streams(seed, keys, stream)):
            _assert_same_stream(twin, replicate_rng(seed, i, stream))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**200),
           keys=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
           stream=st.integers(0, 2**32 - 1))
    def test_sweep(self, seed, keys, stream):
        for i, twin in zip(keys, _twin_streams(seed, keys, stream)):
            _assert_same_stream(twin, replicate_rng(seed, i, stream))

    def test_restates_one_generator_per_stream(self):
        streams = ReplicateStreams(2**64 + 5, 6)
        assert streams.words.shape == (6, 8)
        assert streams.words.nbytes == 6 * 32  # 32 bytes a replicate
        assert streams.rng(0) is streams.rng(5)
        for i in range(6):
            _assert_same_stream(streams.rng(i), replicate_rng(2**64 + 5, i, 0))

    def test_a_stack_drawn_from_restated_streams(self):
        design = SamplingDesign(N=50, n=10)
        streams = ReplicateStreams(7, 5)
        stack = draw(design, (streams.rng(i) for i in range(5)))
        want = draw(design, [replicate_rng(7, i, 0) for i in range(5)])
        assert np.array_equal(stack.indices, want.indices)

    @pytest.mark.parametrize("seed, replicates, message", [
        (-1, 5, "seed must be >= 0"),
        # keys beyond one 32-bit word; refused before any table exists
        (0, 2**32 + 1, "at most 2\\*\\*32 replicates"),
        (1.5, 5, "seed must be an integer, got 1.5"),
        (np.float64(2.0), 5, "seed must be an integer"),
        (0, 2.5, "replicates must be an integer, got 2.5"),
    ])
    def test_refused(self, seed, replicates, message):
        with pytest.raises(ValidationError, match=message):
            ReplicateStreams(seed, replicates)

    def test_numpy_integers_are_python_ints_alike(self):
        streams = ReplicateStreams(np.uint64(2**64 - 1), np.int32(3))
        want = ReplicateStreams(2**64 - 1, 3)
        assert np.array_equal(streams.words, want.words)


class TestSampleStack:
    """A (B, n) Sample checks each of its rows as a sample of its own."""

    def test_rows_are_sorted_and_read_only(self):
        d = stratified_2x2()
        s = Sample([[3, 1], [0, 2]], d)
        assert s.indices.tolist() == [[1, 3], [0, 2]]
        assert not s.indices.flags.writeable

    @pytest.mark.parametrize("rows, message", [
        ([[1, 2], [1, 1]], "must be distinct"),
        ([[1, 2], [0, 4]], "out of 0..N-1"),
        ([[1, 2], [0, 1]], r"sample has \(2, 0\) units per stratum"),
        ([[1, 2, 3], [0, 2, 3]], "sample size 3 != design size 2"),
        ([[[1, 2]]], r"one sample \(n,\) or a stack \(B >= 1, n\)"),
        (np.empty((0, 2), dtype=int), "got shape \\(0, 2\\)"),
        (3, "got shape \\(\\)"),
    ])
    def test_one_bad_row_refuses_the_stack(self, rows, message):
        with pytest.raises(ValidationError, match=message):
            Sample(rows, stratified_2x2())

    def test_the_message_names_the_first_bad_row(self):
        d = SamplingDesign(N=6, n=3, strata=(np.array([0, 1]),
                                             np.array([2, 3, 4, 5])),
                           n_h=(1, 2))
        with pytest.raises(ValidationError, match=r"\(0, 3\) units"):
            Sample([[0, 2, 3], [2, 3, 4], [0, 1, 2]], d)


class TestEnumeration:
    def test_srswor_4_2(self):
        d = SamplingDesign(N=4, n=2)
        pairs = enumerate_samples(d)
        assert len(pairs) == 6
        assert all(p == pytest.approx(1 / 6) for _, p in pairs)
        assert abs(sum(p for _, p in pairs) - 1.0) < 1e-12

    def test_census_single_sample(self):
        d = SamplingDesign(N=3, n=3)
        pairs = enumerate_samples(d)
        assert len(pairs) == 1 and pairs[0][1] == 1.0

    def test_stratified_product(self):
        pairs = enumerate_samples(stratified_2x2())
        assert len(pairs) == 4
        assert all(p == pytest.approx(0.25) for _, p in pairs)

    def test_cap_refusal(self):
        d = SamplingDesign(N=30, n=15)
        with pytest.raises(EnumerationCapError) as exc:
            enumerate_samples(d, cap=1000)
        assert exc.value.required > 1000


class TestIdentities:
    @pytest.mark.parametrize(
        "design",
        [
            SamplingDesign(N=6, n=3),
            SamplingDesign(N=8, n=4),
            stratified_2x2(),
            SamplingDesign(
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
        design = SamplingDesign(N=7, n=3)
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
            d = SamplingDesign(N=N, n=n)
            pi = first_order_probs(d)
            delta = second_order_matrix(d) - np.outer(pi, pi)
            np.fill_diagonal(delta, 0.0)
            assert delta.max() <= 1e-15


class TestOracleNegativeAssociation:
    """oracle_check's Delta_kl <= 0 identity on a stratified design: it
    holds within each stratum, and Delta_kl = 0 across strata."""

    def result(self, **kwargs):
        pop, _ = default_fixture(n_units=6)
        design = SamplingDesign(N=6, n=3, strata=(np.arange(3), np.arange(3, 6)),
                                n_h=(1, 2))
        results = {r.name: r for r in oracle_check(pop, design, **kwargs)}
        return results["negative association Delta_kl <= 0"]

    def test_holds_on_a_stratified_design(self):
        assert self.result().passed

    def test_perturbed_joint_probabilities_fail_it(self):
        assert not self.result(pi2_perturbation=0.01).passed


class TestValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValidationError):
            SamplingDesign(N=4, n=5)
        with pytest.raises(ValidationError):
            SamplingDesign(N=4, n=0)

    @pytest.mark.parametrize("N, n", [(5, 2.5), (5.5, 2), (5, "2")])
    def test_non_integer_sizes_refused(self, N, n):
        with pytest.raises(ValidationError, match="must be integers"):
            SamplingDesign(N=N, n=n)

    def test_non_integer_indices_refused(self):
        d = SamplingDesign(N=5, n=2)
        with pytest.raises(ValidationError, match="must be integers"):
            Sample([0.9, 3.7], d)
        assert Sample([3.0, 0.0], d).indices.tolist() == [0, 3]

    def test_strata_must_partition(self):
        with pytest.raises(ValidationError):
            SamplingDesign(
                N=4,
                n=2,
                strata=(np.array([0, 1]), np.array([1, 2])),
                n_h=(1, 1),
            )

    def test_sample_size_enforced(self):
        d = SamplingDesign(N=4, n=2)
        with pytest.raises(ValidationError):
            Sample(np.array([0, 1, 2]), d)
        with pytest.raises(ValidationError):
            Sample(np.array([0, 0]), d)
        with pytest.raises(ValidationError):
            Sample(np.array([0, 4]), d)

    @pytest.mark.parametrize("indices", [[0, 0], [3, 1, 3], [2, 2, 2], [5, 1, 0, 1]])
    def test_repeated_index_refused_srswor(self, indices):
        d = SamplingDesign(N=6, n=len(indices))
        with pytest.raises(ValidationError, match="sample indices must be distinct"):
            Sample(np.array(indices), d)

    def test_repeated_index_refused_stratified(self):
        # [2, 2] has the right count per stratum (n_h = 2 in stratum 1) but
        # names unit 2 twice
        d = SamplingDesign(N=6, n=3,
                           strata=(np.array([0, 1]), np.array([2, 3, 4, 5])),
                           n_h=(1, 2))
        Sample(np.array([0, 2, 5]), d)
        with pytest.raises(ValidationError, match="sample indices must be distinct"):
            Sample(np.array([2, 0, 2]), d)

    def test_stratum_counts_enforced(self):
        d = stratified_2x2()
        Sample(np.array([1, 2]), d)
        with pytest.raises(ValidationError):
            Sample(np.array([0, 1]), d)  # two units from stratum 0
