import os
import signal
import sys
import threading
import time
from contextlib import closing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvesurvey import NumericalError, ValidationError, linalg
from curvesurvey.linalg import (
    check_symmetric,
    cholesky_psd,
    normal_blocks,
    prefetch,
    psd_project,
)
from curvesurvey.oracle import (
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


class TestCheckSymmetric:
    def test_bitwise_symmetric_input_is_returned_as_is(self, rng):
        b = rng.standard_normal((7, 5))
        m = b.T @ b
        assert np.array_equal(m, m.T)
        out = check_symmetric(m)
        assert out is m
        assert np.array_equal(out, 0.5 * (m + m.T))

    def test_asymmetry_within_tolerance_is_averaged_out(self, rng):
        m = random_symmetric(rng, 5)
        m[0, 1] += 1e-15
        out = check_symmetric(m)
        assert out is not m and np.array_equal(out, out.T)
        assert np.array_equal(out, 0.5 * (m + m.T))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_symmetric_input_is_refused(self, bad):
        m = np.eye(3)
        m[1, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            check_symmetric(m)

    def test_asymmetry_beyond_tolerance_is_refused(self):
        with pytest.raises(ValidationError, match="symmetric"):
            check_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


class _RecordingRng:
    """Wraps a Generator: records the thread of each standard_normal call,
    and raises on call number `fail_at` (counting from 0) if given."""

    def __init__(self, seed, fail_at=None):
        self.rng, self.fail_at, self.threads = np.random.default_rng(seed), fail_at, []

    def standard_normal(self, out):
        if len(self.threads) == self.fail_at:
            raise RuntimeError("draw failed")
        self.threads.append(threading.current_thread())
        return self.rng.standard_normal(out=out)


class TestNormalBlocks:
    @pytest.mark.parametrize("rows", [0, 1, 6, 7, 8, 29])
    def test_blocks_of_the_one_shot_draw(self, rows):
        rng = np.random.default_rng(5)
        before = threading.active_count()
        got, buffers = [], []
        for lo, z in normal_blocks(rng, rows, 3, 7):
            got.append((lo, z.copy()))
            buffers.append(z.base)
        assert threading.active_count() == before
        reference = np.random.default_rng(5)
        expected = reference.standard_normal((rows, 3))
        assert [lo for lo, _ in got] == list(range(0, rows, 7))
        if got:
            assert np.array_equal(np.vstack([z for _, z in got]), expected)
        # the generator is where the one-shot draw leaves it
        assert rng.bit_generator.state == reference.bit_generator.state
        assert len({id(b) for b in buffers}) <= 2  # two reused buffers

    def test_no_block_is_overwritten_while_the_caller_holds_it(self):
        # thread switches forced as often as the interpreter allows: a
        # buffer handed back too early would change under the caller
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rng = np.random.default_rng(8)
            got = []
            for _, z in normal_blocks(rng, 3000, 2, 3):
                first = z.copy()
                time.sleep(0)
                assert np.array_equal(z, first)
                got.append(first)
        finally:
            sys.setswitchinterval(interval)
        expected = np.random.default_rng(8).standard_normal((3000, 2))
        assert np.array_equal(np.vstack(got), expected)

    def test_drawn_on_one_helper_thread(self):
        rng = _RecordingRng(1)
        blocks = list(normal_blocks(rng, 40, 2, 8))
        assert len(blocks) == 5
        assert len(set(rng.threads)) == 1
        assert rng.threads[0] is not threading.current_thread()

    def test_helper_joined_when_the_consumer_raises(self):
        before = threading.active_count()
        with pytest.raises(ValueError), closing(
                normal_blocks(np.random.default_rng(2), 100, 4, 10)) as blocks:
            for lo, _ in blocks:
                if lo == 30:
                    raise ValueError("consumer failed")
        assert threading.active_count() == before

    def test_helper_joined_when_the_consumer_stops_early(self):
        before = threading.active_count()
        with closing(normal_blocks(np.random.default_rng(2), 100, 4, 10)) as blocks:
            next(blocks)
        assert threading.active_count() == before

    def test_a_failed_draw_raises_on_the_caller(self):
        before = threading.active_count()
        blocks = normal_blocks(_RecordingRng(3, fail_at=2), 50, 2, 10)
        assert [next(blocks)[0], next(blocks)[0]] == [0, 10]
        with pytest.raises(RuntimeError, match="draw failed"):
            next(blocks)
        assert threading.active_count() == before


class TestPrefetch:
    def test_runs_at_most_one_buffer_short_of_all_ahead(self):
        # three buffers: while the caller holds result k, the helper may
        # have filled k + 1 and k + 2, never k + 3
        filled = []

        def fill(item, buffer):
            filled.append(item)
            buffer[:] = [item]
            return buffer

        got = []
        for k, buffer in enumerate(prefetch(fill, range(12),
                                            [[None] for _ in range(3)])):
            time.sleep(0.002)  # time for the helper to run ahead
            assert max(filled) <= k + 2
            assert buffer == [k]
            got.append(buffer[0])
        assert got == list(range(12))


class TestOneBlasThread:
    """Overlapping _one_blas_thread blocks on two threads share one pin:
    the caller's count holds until the last block ends, then comes back."""

    def test_overlapping_blocks_restore_the_callers_count(
            self, caller_at_two_blas_threads):
        a_in, b_in, a_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with linalg._one_blas_thread():
                a_in.set()
                b_in.wait(timeout=60)
            a_out.set()

        def second():
            a_in.wait(timeout=60)
            with linalg._one_blas_thread():
                b_in.set()
                a_out.wait(timeout=60)
                seen["inside after the first left"] = linalg.blas_threads()

        threads = [threading.Thread(target=f) for f in (first, second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert seen == {"inside after the first left": 1}
        assert linalg.blas_threads() == 2

    def test_a_child_forked_while_the_lock_is_held_can_pin(self):
        # as a pool worker forked while another thread of the parent is in
        # a block's lock: the child's first block must not wait forever
        with linalg._BLAS_LOCK:
            pid = os.fork()
            if pid == 0:
                with linalg._one_blas_thread():
                    pass
                os._exit(0)
        for _ in range(1000):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.01)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child waited on the parent's lock")
        assert os.waitstatus_to_exitcode(status) == 0


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
