"""Design-based and model-assisted estimation of finite-population mean
curves, with covariance estimation, simultaneous confidence bands and a
replicated-sampling evaluation harness."""

__version__ = "0.1.0"

from .bands import ConfidenceBand, build_band, contains, simulate_sup_quantile
from .covariance import (
    CovarianceEstimate,
    ht_covariance_estimate,
    ht_covariance_exact,
    ma_covariance_approx,
    ma_covariance_estimate,
)
from .designs import (
    Sample,
    SamplingDesign,
    draw,
    enumerate_samples,
    first_order_prob,
    first_order_probs,
    replicate_rng,
    second_order_matrix,
    second_order_prob,
)
from .errors import (
    ConfigurationError,
    CurveSurveyError,
    DegenerateVarianceError,
    EnumerationCapError,
    NumericalError,
    OracleFailure,
    ValidationError,
)
from .estimators import (
    BetaEstimate,
    CalibrationWeights,
    MeanEstimate,
    beta_population,
    beta_sampled,
    calibration_mean,
    calibration_weights,
    calibration_weights_for,
    difference_mean,
    hajek_mean,
    ht_mean,
    model_assisted_mean,
    model_assisted_mean_core,
)
from .grids import FunctionalPopulation, TimeGrid, interpolate, population_mean
from .linalg import (
    RegularizedInverse,
    cholesky_psd,
    psd_project,
    psd_repair,
    regularized_inverse,
    sym_eigen,
)
from .montecarlo import (
    MonteCarloReport,
    empirical_covariance,
    integrated_mse,
    relative_error,
    replicate_estimates,
    run_campaign,
)
from .synthetic import (
    AuxSpec,
    ResidualKernel,
    SuperpopulationConfig,
    generate_population,
    heteroscedastic_study_population,
    study_population,
)

__all__ = [name for name in dir() if not name.startswith("_")]
