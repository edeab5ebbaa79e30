"""Exhaustive-enumeration identity checks for tiny populations.

Every identity that holds exactly by design-based algebra is recomputed two
ways: once from the closed-form inclusion probabilities and once by summing
over all possible samples with their exact probabilities.  Used by the
``oracle-check`` command and by the test suite, which also compares the
closed-form covariances of ``covariance.py`` against the dense formulas
kept here, the blocked sup kernel of ``bands.py`` against its one-shot
form, and the Cholesky-first PSD repair against its eigh-first form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import ma_covariance_approx
from .designs import (
    SamplingDesign,
    enumerate_samples,
    first_order_probs,
    second_order_matrix,
)
from .estimators import (
    beta_population,
    calibration_mean,
    calibration_weights_for,
    difference_mean,
    hajek_mean,
    ht_mean,
    model_assisted_mean,
)
from .errors import ValidationError
from .grids import FunctionalPopulation, TimeGrid, population_mean
from .linalg import _eigen_repair, check_symmetric, sym_eigen
from .synthetic import AuxSpec, ResidualKernel, SuperpopulationConfig, generate_population

DEFAULT_TOL = 1e-10


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


def dense_ht_covariance(
    curves: np.ndarray, pi: np.ndarray, pi2: np.ndarray, N: int
) -> np.ndarray:
    """(1/N^2) u' Delta u with u_k = row_k / pi_k, Delta = pi2 - pi pi' (N x N).

    Dense reference twin of ``covariance.ht_covariance_exact``.
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
    """max_t |(F Z)(t)| / sigma(t) from one (n_sims, D) standard normal draw.

    One-shot reference twin of the blocked ``bands._sup_sampler``, which
    takes F / sigma[:, None] and draws the same stream in blocks.
    """
    draws = rng.standard_normal((n_sims, factor.shape[0]))
    return (np.abs(draws @ factor.T) / sigma).max(axis=1)


def eigh_first_psd_repair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(psd_project(m), F) with F F' = psd_project(m), from one eigh.

    Eigh-first twin of the Cholesky-first ``linalg.psd_repair``: F is the
    lower Cholesky factor of the repaired matrix when that exists, else
    v sqrt(max(w, 0)) from the same eigendecomposition.
    """
    repaired, w, v = _eigen_repair(check_symmetric(m))
    try:
        return repaired, np.linalg.cholesky(repaired)
    except np.linalg.LinAlgError:
        return repaired, v * np.sqrt(np.clip(w, 0.0, None))


def spectral_norm_sym(m: np.ndarray) -> float:  # bounds inverses in tests
    w, _ = sym_eigen(m)
    return float(np.abs(w).max())


def default_fixture(
    n_units: int = 5, n: int = 2, n_points: int = 4, seed: int = 7
):
    """Tiny population + SRSWOR design for exhaustive checking."""
    grid = TimeGrid(np.linspace(0.0, 1.0, n_points))
    cfg = SuperpopulationConfig(
        beta_curves=np.vstack(
            [1.0 + grid.points, 2.0 - 0.5 * grid.points]
        ),
        kernel=ResidualKernel(kind="white", sigma2=0.5),
        aux=AuxSpec(kind="gaussian", mean=3.0, sd=1.0),
        seed=seed,
    )
    pop = generate_population(cfg, n_units, grid)
    design = SamplingDesign(kind="srswor", N=n_units, n=n)
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
    cap: int = 1_000_000,
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
    if design.kind == "srswor" and design.n < design.N:
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
    residuals = pop.values - pop.aux @ beta_population(pop).coefficients
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
        weights = calibration_weights_for(pop, s)
        cal = calibration_mean(weights, pop.values[s.indices], pop.N)
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
