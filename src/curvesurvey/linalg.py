"""Small dense symmetric linear algebra for the bands.

Covers PSD projection, the Cholesky-first PSD repair of a covariance
estimate and a PSD-tolerant Cholesky factorization for Gaussian simulation.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ValidationError

SYMMETRY_RTOL = 1e-12


def check_symmetric(m: np.ndarray, rtol: float = SYMMETRY_RTOL) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - m.T).max() > rtol * scale:
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


def psd_repair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, F) with F F' = R, R the PSD repair of the symmetrized m.

    Cholesky of the symmetrized m runs first: when it succeeds, m is
    positive definite, R is m itself and F its lower Cholesky factor, with
    no eigendecomposition.  Otherwise R = psd_project(m), from one eigh,
    and F is the Cholesky factor of R when that exists, else v sqrt(max(w,
    0)) from the same eigendecomposition.  Equal bit for bit to the
    eigh-first form (oracle.eigh_first_psd_repair) whenever that form
    leaves m unclipped or Cholesky fails on m.
    """
    m = check_symmetric(m)
    try:
        return m, np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    repaired, w, v = _eigen_repair(m)
    try:
        return repaired, np.linalg.cholesky(repaired)
    except np.linalg.LinAlgError:
        return repaired, v * np.sqrt(np.clip(w, 0.0, None))


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
