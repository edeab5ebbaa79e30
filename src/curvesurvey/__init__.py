"""Design-based and model-assisted estimation of finite-population mean
curves, with covariance estimation, simultaneous confidence bands and a
replicated-sampling evaluation harness.

The package exports what the experiment scripts and the README quickstart
use, and the error classes; everything else is imported from its module
(``curvesurvey.designs``, ``curvesurvey.oracle``, ...).
"""

__version__ = "0.1.0"

from .bands import build_band
from .covariance import ma_covariance_estimate
from .designs import SamplingDesign, draw
from .errors import (
    ConfigurationError,
    CurveSurveyError,
    DegenerateVarianceError,
    EnumerationCapError,
    NumericalError,
    OracleFailure,
    ValidationError,
)
from .estimators import model_assisted_mean
from .montecarlo import run_campaign
from .synthetic import heteroscedastic_study_population, study_population

__all__ = [name for name in dir() if not name.startswith("_")]
