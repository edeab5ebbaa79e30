"""Small dense symmetric linear algebra used by the estimators.

Covers the eigenvalue-floored regularized inverse (the always-invertible
version of the sampled design matrix), PSD projection and a PSD-tolerant
Cholesky factorization for Gaussian simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class RegularizedInverse:
    """Inverse of the eigenvalue-floored matrix, with provenance.

    floor_applied is True iff some eigenvalue of the input fell below the
    floor `a`; when False the inverse equals the plain matrix inverse.
    The spectral norm of `inverse` is bounded by 1/a.
    """

    inverse: np.ndarray
    floor_applied: bool
    a: float
    min_eigenvalue: float


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


def sym_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order and matching orthonormal eigenvectors
    (as columns)."""
    m = check_symmetric(m)
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


def spectral_norm_sym(m: np.ndarray) -> float:
    w, _ = sym_eigen(m)
    return float(np.abs(w).max())


def regularized_inverse(m: np.ndarray, a: float) -> RegularizedInverse:
    """Spectral inverse with eigenvalues floored at a > 0.

    Input must be non-negative definite within a small eigenvalue tolerance.
    """
    if a <= 0:
        raise ValidationError("floor a must be > 0")
    w, v = sym_eigen(m)
    scale = max(1.0, float(np.abs(w).max()))
    if w.min() < -1e-10 * scale:
        raise NumericalError(
            f"matrix is not non-negative definite (eigenvalue {w.min():g})"
        )
    floored = np.maximum(w, a)
    inv = (v / floored) @ v.T
    return RegularizedInverse(
        inverse=0.5 * (inv + inv.T),
        floor_applied=bool(w.min() < a),
        a=float(a),
        min_eigenvalue=float(w.min()),
    )


def _eigen_repair(m: np.ndarray):
    """(repaired, w, v): the nearest-PSD repair of m and the eigenpairs of
    the symmetrized input it was built from."""
    m = check_symmetric(m)
    w, v = np.linalg.eigh(m)
    if w.min() < 0.0:
        m = (v * np.clip(w, 0.0, None)) @ v.T
        m = 0.5 * (m + m.T)
    return m, w, v


def psd_project(m: np.ndarray) -> np.ndarray:
    """Nearest-PSD repair: clip negative eigenvalues to zero.

    Returns the input unchanged when it is already PSD; idempotent.
    """
    return _eigen_repair(m)[0]


def psd_repair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psd_project(m), F) with F F' = psd_project(m), from one eigh.

    F is the lower Cholesky factor of the repaired matrix when that exists,
    else v sqrt(max(w, 0)) from the same eigendecomposition, so a band
    costs one eigendecomposition whatever path it takes.
    """
    repaired, w, v = _eigen_repair(m)
    try:
        factor = np.linalg.cholesky(repaired)
    except np.linalg.LinAlgError:
        factor = v * np.sqrt(np.clip(w, 0.0, None))
    return repaired, factor


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
