"""The thread policy of every product, and small dense symmetric linear
algebra.

Every command multiplies on one BLAS thread (_one_blas_thread), so its
outputs do not depend on the thread count, and normal_blocks draws the
next block of standard normals of a population or a band on one helper
thread meanwhile.  A CLI process already starts OpenBLAS with one thread
(see ``cli``).

The bands factor a covariance from its rows (``bands._scaled_factor``)
and need no PSD repair.  PSD projection and a PSD-tolerant Cholesky
factorization, which no command calls, stay while ``perfbench/spans.py``
traces them; the eigh-first twin of the band's factor
(``oracle.eigh_first_psd_repair``) shares their eigen repair.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import queue
import threading

import numpy as np

from .errors import NumericalError, ValidationError

SYMMETRY_RTOL = 1e-12


def check_symmetric(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    if np.array_equal(m, m.T):  # as every Gram matrix C'C is
        return m
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > SYMMETRY_RTOL * scale:
        raise ValidationError("matrix is not symmetric within tolerance")
    return 0.5 * (m + m.T)


def _eigen_repair(m: np.ndarray):
    """(repaired, w, v): the nearest-PSD repair of the symmetric m and the
    eigenpairs of m it was built from."""
    w, v = np.linalg.eigh(m)
    if w.min() < 0.0:
        m = (v * np.clip(w, 0.0, None)) @ v.T
        m = 0.5 * (m + m.T)
    return m, w, v


def psd_project(m: np.ndarray) -> np.ndarray:
    """Nearest-PSD repair: clip negative eigenvalues to zero.

    Returns the input unchanged when it is already PSD; idempotent.
    """
    return _eigen_repair(check_symmetric(m))[0]


def cholesky_psd(m: np.ndarray) -> np.ndarray:
    """Factor F with F F' = m for PSD m (within tolerance).

    Strictly positive definite inputs get the plain lower-triangular Cholesky
    factor; semidefinite inputs fall back to an eigenvalue-based factor.
    """
    m = check_symmetric(m)
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh(m)
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -1e-8 * scale:
        raise NumericalError(
            f"matrix is indefinite beyond tolerance (eigenvalue {w.min():g})"
        )
    return v * np.sqrt(np.clip(w, 0.0, None))


@functools.cache
def _openblas_entry(name: str, restype=ctypes.c_int, argtypes=()):
    """OpenBLAS function `name` (e.g. "get_num_threads") of the library
    loaded in this process, or None without an OpenBLAS; looked up once.

    The library is found in the process's memory map; its symbols carry
    the "scipy_" prefix and "64_" suffix in numpy's wheels.
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in fh)
                if len(fields) == 6 and "openblas" in fields[5].lower()
            })
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (f"{prefix}openblas_{name}{suffix}"
                       for prefix in ("scipy_", "") for suffix in ("64_", "")):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype, func.argtypes = restype, argtypes
                return func
    return None


def blas_threads() -> int | None:
    """The OpenBLAS thread count of this process, or None without an
    OpenBLAS."""
    get_threads = _openblas_entry("get_num_threads")
    return None if get_threads is None else get_threads()


def _set_blas_threads(count: int) -> int | None:
    """Set the OpenBLAS thread count and return the previous one; without
    an OpenBLAS change nothing and return None."""
    set_threads = _openblas_entry("set_num_threads", None, (ctypes.c_int,))
    if set_threads is None:
        return None
    before = blas_threads()
    set_threads(count)
    return before


# _one_blas_thread's nesting depth over all threads, and the count the
# first block in saw; the last one out restores it
_BLAS_LOCK = threading.Lock()
_blas_depth = 0
_blas_saved: int | None = None


def _new_blas_lock() -> None:
    """A forked child (a pool worker) gets a lock of its own: the parent's
    may have been held by a thread that the child does not have."""
    global _BLAS_LOCK
    _BLAS_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_new_blas_lock)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with BLAS on one thread, then restore the count.

    A product's last bits can change with the thread count, so every
    command, population generator, band and coverage test runs its
    products here; a replicate's D x D and SIM_BLOCK x D products gain
    nothing from a second thread.  It is for library callers, whose count
    is restored on exit: a CLI process starts OpenBLAS on one thread, so
    there it sets 1 over 1.  The count is one per process, so blocks that
    overlap, nested or on other threads, share one pin under a lock: the
    first block in saves the count and the last one out restores it.  With
    MKL or Accelerate this is a no-op.  Usable as a decorator,
    `@_one_blas_thread()`.
    """
    global _blas_depth, _blas_saved
    with _BLAS_LOCK:
        if _blas_depth == 0:
            _blas_saved = _set_blas_threads(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_depth -= 1
            if _blas_depth == 0:
                _set_blas_threads(_blas_saved)  # a no-op without an OpenBLAS


_END = object()  # normal_blocks' helper has drawn its last block


def normal_blocks(rng: np.random.Generator, rows: int, width: int,
                  block: int):
    """Yield (lo, z): rows lo..lo+len(z)-1 of one
    rng.standard_normal((rows, width)) draw, `block` rows at a time.

    One helper thread draws block k + 1 while the caller uses block k, in
    two reused buffers: the caller hands one back when it asks for the
    next block, so z is valid only until then.  The helper is the only
    user of rng from the first block to the last and draws nothing past
    the last block, so afterwards rng is where the one-shot draw leaves it.
    An exception in a draw is re-raised on the caller's thread.  The helper
    is joined before the iterator returns or raises; wrap it in
    contextlib.closing so that a consumer that stops early or raises joins
    it at once, after at most the draw under way.

    The helper pays for itself.  Against a plain loop that draws each
    block into one reused buffer (same bytes), on a 2-core Xeon with one
    BLAS thread: `estimate` on the load-curve config (N = 20000, D = 336)
    took a median 0.386 s against 0.451 s, the helper faster in 12 of 12
    alternating pairs, and study_population(20000, 336) took 145-170 ms
    against 238-274 ms (best of 5, 6 alternating rounds, 6 of 6).
    """
    free, filled = queue.SimpleQueue(), queue.SimpleQueue()
    stop = threading.Event()
    starts = range(0, rows, block)
    for _ in range(min(2, len(starts))):
        free.put(np.empty((min(block, rows), width)))

    def run():
        try:
            for lo in starts:
                buffer = free.get()
                if stop.is_set():  # the caller stopped early
                    return
                z = buffer[: min(block, rows - lo)]
                rng.standard_normal(out=z)
                filled.put((lo, z, buffer))
            filled.put(_END)
        except BaseException as exc:  # re-raised on the caller's thread
            filled.put(exc)

    helper = threading.Thread(target=run, name="curvesurvey-normals",
                              daemon=True)
    helper.start()
    try:
        while (item := filled.get()) is not _END:
            if isinstance(item, BaseException):
                raise item
            lo, z, buffer = item
            yield lo, z
            free.put(buffer)
    finally:
        stop.set()
        free.put(None)  # wakes a helper waiting for a buffer
        helper.join()
