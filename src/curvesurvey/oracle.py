"""Exhaustive-enumeration identity checks for tiny populations, and the
twins the production paths are tested against.

The census-level regression fit (`beta_population`) and the generalized
difference estimator built on it (`difference_mean`, Sarndal, Swensson &
Wretman 1992) live here, not among the estimators: they read every unit's
curve, which a survey never has.  The difference estimator is the target
the model-assisted estimator approximates.  Its covariance is
`ma_covariance_approx`, and `oracle_check` checks its unbiasedness and
covariance by enumeration.

Every identity that holds exactly by design-based algebra is recomputed two
ways: once from the closed-form inclusion probabilities and once by summing
over all possible samples (`enumerate_samples`) with their exact
probabilities.  Used by the ``oracle-check`` command and by the test suite,
which also compares the closed-form exact covariances kept here
(`ht_covariance_exact`, `ma_covariance_approx`, built like the estimators
of ``covariance.py``) against the dense u' Delta u formulas, the dense
pi_kl matrix (`second_order_matrix`) against the enumerated one, the
blocked sup kernel of ``bands.py`` against its one-shot form, the band's
Cholesky-or-QR factor against an eigh-first PSD repair, and the SVD fit of
``estimators.py`` against exact calibration weights and the
eigenvalue-floored inverse of the moment matrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .covariance import CovarianceEstimate, _centred_covariance
from .designs import (
    Sample,
    SamplingDesign,
    first_order_probs,
    joint_probs_submatrix,
)
from .estimators import (
    MeanEstimate,
    _check_match,
    _fit,
    _sample_arrays,
    hajek_mean,
    ht_mean,
    model_assisted_mean,
)
from .errors import EnumerationCapError, NumericalError, ValidationError
from .grids import FunctionalPopulation, TimeGrid, population_mean
from .linalg import _eigen_repair, check_symmetric
from .synthetic import ResidualKernel, generate_population

DEFAULT_TOL = 1e-10
DEFAULT_ENUMERATION_CAP = 1_000_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def _count_samples(design: SamplingDesign) -> int:
    total = 1
    for s, m in zip(*design.allocation):
        total *= math.comb(s.size, m)
    return total


def enumerate_samples(
    design: SamplingDesign, cap: int = DEFAULT_ENUMERATION_CAP
) -> list[tuple[Sample, float]]:
    """All possible samples with their exact design probabilities.

    Probabilities sum to 1; refuses when the count exceeds `cap`.
    """
    total = _count_samples(design)
    if total > cap:
        raise EnumerationCapError(required=total, cap=cap)
    prob = 1.0 / total
    per_stratum = [
        list(itertools.combinations(s.tolist(), m))
        for s, m in zip(*design.allocation)
    ]
    out = []
    for parts in itertools.product(*per_stratum):
        idx = np.sort(np.concatenate([np.array(p, dtype=int) for p in parts]))
        out.append((Sample(idx, design), prob))
    return out


def second_order_matrix(design: SamplingDesign) -> np.ndarray:
    """Matrix of pi_kl for all pairs, with the convention pi_kk = pi_k.

    Within-stratum pairs with n_h = 1 have pi_kl = 0; such pairs can never
    be jointly sampled, so the joint probability is genuinely zero.
    """
    return joint_probs_submatrix(design, np.arange(design.N))


def beta_population(pop: FunctionalPopulation) -> np.ndarray:
    """Census-level OLS coefficient curves, (p, D): the unobservable fit."""
    return _fit(pop.aux, pop.values, np.ones(pop.N), pop.N, 0.0, "population")[0]


def difference_mean(pop: FunctionalPopulation, sample: Sample) -> MeanEstimate:
    """Generalized difference estimator built on the census-level fit.

    Requires the full population; design-unbiased, used as a testing oracle
    and as the target the model-assisted estimator approximates.
    """
    _, y_s, pi = _sample_arrays(pop, sample)
    beta = beta_population(pop)
    pred = pop.aux @ beta
    resid_ht = ((pred[sample.indices] - y_s) / pi[:, None]).sum(axis=0) / pop.N
    curve = pred.mean(axis=0) - resid_ht
    return MeanEstimate(curve=curve, estimator_kind="Difference")


def ht_covariance_exact(
    pop: FunctionalPopulation, design: SamplingDesign
) -> CovarianceEstimate:
    """Exact design covariance of the HT mean estimator at all grid pairs."""
    _check_match(pop, design)
    return _centred_covariance(pop.values, design)


def ma_covariance_approx(
    pop: FunctionalPopulation, design: SamplingDesign
) -> CovarianceEstimate:
    """HT covariance of the census-fit residuals: the approximate covariance
    of the model-assisted estimator (exactly the covariance of the difference
    estimator)."""
    _check_match(pop, design)
    residuals = pop.values - pop.aux @ beta_population(pop)
    return _centred_covariance(residuals, design)


def dense_ht_covariance(
    curves: np.ndarray, pi: np.ndarray, pi2: np.ndarray, N: int
) -> np.ndarray:
    """(1/N^2) u' Delta u with u_k = row_k / pi_k, Delta = pi2 - pi pi' (N x N).

    Dense reference twin of `ht_covariance_exact`.
    """
    u = curves / pi[:, None]
    return u.T @ (pi2 - np.outer(pi, pi)) @ u / N**2


def residual_ht_covariance_estimate(
    residuals: np.ndarray,
    pi: np.ndarray,
    pi2: np.ndarray,
    N: int,
) -> np.ndarray:
    """Sample HT covariance estimator for given per-unit residual rows.

    Dense reference twin of ``covariance.ht_covariance_estimate``: pi2 is
    the n x n matrix of joint inclusion probabilities of the sampled pairs
    (diagonal = pi_k); all entries must be positive.
    """
    if np.any(pi2 <= 0):
        raise ValidationError(
            "joint inclusion probability is zero for a sampled pair; "
            "the covariance estimator is undefined for this design"
        )
    weight = (pi2 - np.outer(pi, pi)) / pi2
    u = residuals / pi[:, None]
    cov = u.T @ weight @ u / N**2
    return 0.5 * (cov + cov.T)


def one_shot_sup_sample(
    factor: np.ndarray,
    sigma: np.ndarray,
    n_sims: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """max_t |(F Z)(t)| / sigma(t) from one (n_sims, r) standard normal
    draw, F of shape (D, r).

    One-shot reference twin of the tiled ``bands._band_sups``, which takes
    the band's factor F / sigma[:, None], with F F' = C'C and sigma the
    square root of its diagonal, and draws the same stream in SIM_BLOCK
    tiles.
    """
    draws = rng.standard_normal((n_sims, factor.shape[1]))
    return (np.abs(draws @ factor.T) / sigma).max(axis=1)


def eigh_first_psd_repair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psd_project(m), F) with F F' = psd_project(m), from one eigh.

    Eigh-first twin of the band's factor (``bands._scaled_factor``, the
    Cholesky factor of C'C, else R' from the thin QR of C): F is the lower
    Cholesky factor of the repaired matrix when that exists, else
    v sqrt(max(w, 0)) from the same eigendecomposition.
    """
    repaired, w, v = _eigen_repair(check_symmetric(m))
    try:
        return repaired, np.linalg.cholesky(repaired)
    except np.linalg.LinAlgError:
        return repaired, v * np.sqrt(np.clip(w, 0.0, None))


def sym_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues in descending order and matching orthonormal eigenvectors
    (as columns)."""
    m = check_symmetric(m)
    w, v = np.linalg.eigh(m)
    return w[::-1].copy(), v[:, ::-1].copy()


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


def regularized_inverse(m: np.ndarray, a: float) -> RegularizedInverse:
    """Spectral inverse with eigenvalues floored at a > 0.

    Eigen-floor twin of the floored SVD fit in ``estimators``: with the
    sampled moment matrix G and b = sum x y / (pi N), the fit's beta is
    regularized_inverse(G, a).inverse @ b.  Input must be non-negative
    definite within a small eigenvalue tolerance.
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


def exact_calibrated_weights(pop: FunctionalPopulation, sample) -> list[Fraction]:
    """Weights of the sampled units closest (chi-square distance) to 1/pi_k
    that reproduce the auxiliary population totals t_x, in exact rational
    arithmetic on the float inputs: w_k = (1 + x_k' lam) / pi_k, with lam
    solving (sum_s x_k x_k' / pi_k) lam = t_x - sum_s x_k / pi_k.  A
    singular moment matrix is refused, as the fit at a = 0 refuses it."""
    x_s, _, pi = _sample_arrays(pop, sample)
    x = [[Fraction(v) for v in row] for row in x_s.tolist()]
    inv_pi = [1 / Fraction(v) for v in pi.tolist()]
    p = x_s.shape[1]
    moments = [[sum(xk[i] * xk[j] * w for xk, w in zip(x, inv_pi))
                for j in range(p)] for i in range(p)]
    gap = [Fraction(t) - sum(xk[i] * w for xk, w in zip(x, inv_pi))
           for i, t in enumerate(pop.aux_totals().tolist())]
    lam = _solve_exact(moments, gap)
    return [(1 + sum(a * b for a, b in zip(xk, lam))) * w
            for xk, w in zip(x, inv_pi)]


def _solve_exact(m: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """x with m x = b, by Gauss-Jordan elimination on Fractions."""
    rows = [row + [rhs] for row, rhs in zip(m, b)]
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            raise NumericalError("sampled moment matrix is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(len(rows)):
            if r != col:
                factor = rows[r][col]
                rows[r] = [v - factor * u for v, u in zip(rows[r], rows[col])]
    return [row[-1] for row in rows]


def calibrated_weights(pop: FunctionalPopulation, sample) -> np.ndarray:
    """The exact calibration weights, each rounded once to float.  At a = 0
    the model-assisted mean is w @ y_s / N (Deville & Sarndal 1992), so
    this is the twin of the SVD fit in ``estimators``, with an error far
    below the fit's."""
    return np.array([float(w) for w in exact_calibrated_weights(pop, sample)])


def spectral_norm_sym(m: np.ndarray) -> float:  # bounds inverses in tests
    w, _ = sym_eigen(m)
    return float(np.abs(w).max())


def default_fixture(
    n_units: int = 5, n: int = 2, n_points: int = 4, seed: int = 7
):
    """Tiny population + SRSWOR design for exhaustive checking."""
    grid = TimeGrid(np.linspace(0.0, 1.0, n_points))
    beta = np.vstack([1.0 + grid.points, 2.0 - 0.5 * grid.points])
    kernel = ResidualKernel(kind="white", sigma2=0.5)
    pop = generate_population(n_units, grid, beta, kernel, seed=seed, aux_mean=3.0)
    design = SamplingDesign(N=n_units, n=n)
    return pop, design


def _enumerated_mean_and_cov(curves_by_sample, probs):
    curves = np.asarray(curves_by_sample)
    probs = np.asarray(probs)
    mean = probs @ curves
    centered = curves - mean
    cov = (centered * probs[:, None]).T @ centered
    return mean, cov


def oracle_check(
    pop: FunctionalPopulation,
    design: SamplingDesign,
    tol: float = DEFAULT_TOL,
    pi2_perturbation: float = 0.0,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[CheckResult]:
    """Run all enumeration identities; returns one result per check.

    ``pi2_perturbation`` adds a constant to the off-diagonal joint inclusion
    probabilities used on the closed-form side, to demonstrate that the
    checks detect wrong probabilities.
    """
    pi = first_order_probs(design)
    pi2 = second_order_matrix(design)
    if pi2_perturbation:
        pi2 = pi2 + pi2_perturbation * (1.0 - np.eye(design.N))
    pairs = enumerate_samples(design, cap=cap)
    samples = [s for s, _ in pairs]
    probs = np.array([p for _, p in pairs])
    results: list[CheckResult] = []

    def add(name, residual):
        results.append(CheckResult(name=name, residual=float(residual), tol=tol))

    add("enumeration probabilities sum to 1", abs(probs.sum() - 1.0))
    add("fixed-size identity sum pi_k = n", abs(pi.sum() - design.n))
    row_sums = pi2.sum(axis=1) - np.diag(pi2)  # sum over l != k
    add(
        "pairwise identity sum_{l!=k} pi_kl = (n-1) pi_k",
        np.abs(row_sums - (design.n - 1) * pi).max(),
    )

    member = np.zeros((len(samples), design.N))
    for i, s in enumerate(samples):
        member[i, s.indices] = 1.0
    add(
        "first-order probabilities match enumeration",
        np.abs(probs @ member - pi).max(),
    )
    joint = (member * probs[:, None]).T @ member
    np.fill_diagonal(joint, probs @ member)
    add(
        "second-order probabilities match enumeration",
        np.abs(joint - pi2).max(),
    )
    # holds within each stratum of SRSWOR; across strata Delta_kl = 0
    delta_off = pi2 - np.outer(pi, pi)
    np.fill_diagonal(delta_off, -np.inf)
    add("negative association Delta_kl <= 0", max(0.0, delta_off.max()))

    mu = population_mean(pop)
    ht_curves = [ht_mean(pop, s).curve for s in samples]
    ht_mean_enum, ht_cov_enum = _enumerated_mean_and_cov(ht_curves, probs)
    add("HT design-unbiasedness", np.abs(ht_mean_enum - mu).max())

    diff_curves = [difference_mean(pop, s).curve for s in samples]
    diff_mean_enum, diff_cov_enum = _enumerated_mean_and_cov(diff_curves, probs)
    add("difference-estimator design-unbiasedness", np.abs(diff_mean_enum - mu).max())

    def formula_cov(curves):
        return dense_ht_covariance(curves, pi, pi2, design.N)

    add(
        "HT covariance formula matches enumeration",
        np.abs(formula_cov(pop.values) - ht_cov_enum).max(),
    )
    residuals = pop.values - pop.aux @ beta_population(pop)
    add(
        "residual covariance formula matches enumerated difference-estimator "
        "covariance",
        np.abs(formula_cov(residuals) - diff_cov_enum).max(),
    )

    # sample covariance estimator with residuals frozen at census values is
    # exactly design-unbiased for the residual covariance
    expected = np.zeros((pop.grid.size, pop.grid.size))
    for s, p in pairs:
        est = residual_ht_covariance_estimate(
            residuals[s.indices],
            pi[s.indices],
            pi2[np.ix_(s.indices, s.indices)],
            design.N,
        )
        expected += p * est
    add(
        "frozen-residual covariance estimator unbiasedness",
        np.abs(expected - formula_cov(residuals)).max(),
    )

    intercept_pop = FunctionalPopulation(
        pop.grid, pop.values, np.ones((pop.N, 1))
    )
    hajek_gap = max(
        np.abs(
            hajek_mean(pop, s).curve
            - model_assisted_mean(intercept_pop, s, a=0.0).curve
        ).max()
        for s in samples
    )
    add("Hajek equals intercept-only model-assisted", hajek_gap)

    calib_gap = 0.0
    for s in samples:
        cal = calibrated_weights(pop, s) @ pop.values[s.indices] / pop.N
        ma = model_assisted_mean(pop, s, a=0.0).curve
        calib_gap = max(calib_gap, float(np.abs(cal - ma).max()))
    add("calibration mean equals model-assisted (a=0)", calib_gap)

    if not pi2_perturbation:
        module_path = ma_covariance_approx(pop, design).matrix
        add(
            "module residual-covariance path matches oracle formula",
            np.abs(module_path - formula_cov(residuals)).max(),
        )
    return results


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(
            f"{status}  {r.name}: residual={r.residual:.3e} tol={r.tol:.1e}"
        )
    n_fail = sum(not r.passed for r in results)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    return "\n".join(lines)
