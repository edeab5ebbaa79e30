import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesurvey import (
    NumericalError,
    ValidationError,
    cholesky_psd,
    psd_project,
    psd_repair,
)
from curvesurvey.oracle import (
    eigh_first_psd_repair,
    regularized_inverse,
    spectral_norm_sym,
    sym_eigen,
)


def random_symmetric(rng, dim, psd=False):
    b = rng.standard_normal((dim, dim))
    if psd:
        return b @ b.T / dim
    return 0.5 * (b + b.T)


class TestSymEigen:
    def test_identity(self):
        w, v = sym_eigen(np.eye(3))
        assert np.allclose(w, 1.0)

    def test_diagonal(self):
        w, v = sym_eigen(np.diag([5.0, 2.0]))
        assert np.allclose(w, [5.0, 2.0])
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-12)

    def test_hand_2x2(self):
        w, _ = sym_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [3.0, 1.0])

    def test_reconstruction_and_orthonormality(self, rng):
        m = random_symmetric(rng, 6)
        w, v = sym_eigen(m)
        rebuilt = (v * w) @ v.T
        assert np.linalg.norm(rebuilt - m) <= 1e-10 * max(1, np.linalg.norm(m))
        assert np.abs(v.T @ v - np.eye(6)).max() < 1e-10
        assert np.all(np.diff(w) <= 0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValidationError):
            sym_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestRegularizedInverse:
    def test_no_floor_needed(self):
        r = regularized_inverse(np.diag([5.0, 3.0]), a=1.0)
        assert np.allclose(r.inverse, np.diag([0.2, 1 / 3]))
        assert not r.floor_applied
        assert r.min_eigenvalue == pytest.approx(3.0)

    def test_floor_replaces_zero_eigenvalue(self):
        r = regularized_inverse(np.diag([5.0, 0.0]), a=1.0)
        assert np.allclose(r.inverse, np.diag([0.2, 1.0]))
        assert r.floor_applied

    def test_spectral_formula(self):
        # eigenvalues (3, 1) floored at 2 -> inverse eigenvalues (1/3, 1/2)
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        r = regularized_inverse(m, a=2.0)
        w, _ = sym_eigen(r.inverse)
        assert np.allclose(w, [0.5, 1 / 3])
        _, v = sym_eigen(m)
        assert np.allclose(r.inverse @ v[:, 0], v[:, 0] / 3, atol=1e-12)

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValidationError):
            regularized_inverse(np.eye(2), a=0.0)

    def test_rejects_negative_definite(self):
        with pytest.raises(NumericalError):
            regularized_inverse(np.diag([1.0, -1.0]), a=0.5)

    @given(
        st.integers(2, 6),
        st.sampled_from([1e-3, 1e-1, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_norm_bound_property(self, dim, a, seed):
        rng = np.random.default_rng(seed)
        m = random_symmetric(rng, dim, psd=True)
        r = regularized_inverse(m, a)
        assert spectral_norm_sym(r.inverse) <= 1.0 / a + 1e-10

    def test_exact_inverse_when_above_floor(self, rng):
        m = random_symmetric(rng, 4, psd=True) + 2.0 * np.eye(4)
        r = regularized_inverse(m, a=1.0)
        assert not r.floor_applied
        assert np.abs(r.inverse @ m - np.eye(4)).max() < 1e-8


class TestPsdProject:
    def test_psd_unchanged(self, rng):
        m = random_symmetric(rng, 5, psd=True)
        assert np.abs(psd_project(m) - m).max() < 1e-10

    def test_clips_negative(self):
        assert np.allclose(psd_project(np.diag([1.0, -0.5])), np.diag([1.0, 0.0]))

    def test_output_psd_and_idempotent(self, rng):
        m = random_symmetric(rng, 5)
        out = psd_project(m)
        assert np.linalg.eigvalsh(out).min() >= -1e-10
        assert np.abs(psd_project(out) - out).max() < 1e-12


class TestCholeskyPsd:
    def test_identity(self):
        assert np.allclose(cholesky_psd(np.eye(3)), np.eye(3))

    def test_hand_case(self):
        m = np.array([[4.0, 2.0], [2.0, 2.0]])
        assert np.allclose(cholesky_psd(m), [[2.0, 0.0], [1.0, 1.0]])

    def test_rank_one(self, rng):
        v = rng.standard_normal(5)
        m = np.outer(v, v)
        f = cholesky_psd(m)
        assert np.abs(f @ f.T - m).max() <= 1e-8 * max(1, np.abs(m).max())

    def test_rejects_indefinite(self):
        with pytest.raises(NumericalError):
            cholesky_psd(np.diag([1.0, -1.0]))


class TestPsdRepair:
    def test_keeps_the_cholesky_factor(self, rng):
        m = random_symmetric(rng, 6, psd=True) + 0.1 * np.eye(6)
        repaired, factor = psd_repair(m)
        assert np.array_equal(repaired, psd_project(m))
        assert np.array_equal(factor, cholesky_psd(psd_project(m)))

    @pytest.mark.parametrize("seed", range(5))
    def test_indefinite_gets_the_projection_and_a_factor(self, seed):
        m = random_symmetric(np.random.default_rng(seed), 6)
        repaired, factor = psd_repair(m)
        assert np.array_equal(repaired, psd_project(m))
        assert np.abs(factor @ factor.T - repaired).max() < 1e-12


    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_eigh_first_twin_on_definite_input(self, seed):
        m = random_symmetric(np.random.default_rng(seed), 8, psd=True)
        m += 0.05 * np.eye(8)
        m[0, 1] += 1e-15  # asymmetric within tolerance: both symmetrize
        for got, want in zip(psd_repair(m), eigh_first_psd_repair(m)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [
        np.diag([1.0, -0.5, 2.0]),
        np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]),
        np.zeros((3, 3)),
        *(random_symmetric(np.random.default_rng(seed), 6) for seed in range(5)),
    ])
    def test_equals_the_eigh_first_twin_on_the_eigen_path(self, m):
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(m)
        for got, want in zip(psd_repair(m), eigh_first_psd_repair(m)):
            assert np.array_equal(got, want)


class TestEigenvalueLipschitz:
    @given(st.integers(2, 6), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_weyl_perturbation_bound(self, dim, seed):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, dim)
        b = random_symmetric(rng, dim)
        wa, _ = sym_eigen(a)
        wb, _ = sym_eigen(b)
        assert np.abs(wa - wb).max() <= spectral_norm_sym(a - b) + 1e-10
