"""Design-based and model-assisted estimation of finite-population mean
curves, with covariance estimation, simultaneous confidence bands and a
replicated-sampling evaluation harness.

The package exports what the experiment scripts and the README quickstart
use, and the error classes; everything else is imported from its module
(``curvesurvey.designs``, ``curvesurvey.oracle``, ...).

``import curvesurvey`` loads no submodule and so no numpy: each export is
looked up in its module when it is first used (PEP 562) and never stored
here, so the name always reads the module's current function.  That lets
``curvesurvey.cli`` choose how OpenBLAS starts before numpy is loaded.
"""

import importlib

__version__ = "0.1.0"

# export -> the submodule that defines it
_EXPORTS = {
    "build_band": "bands",
    "ma_covariance_estimate": "covariance",
    "SamplingDesign": "designs",
    "draw": "designs",
    "ConfigurationError": "errors",
    "CurveSurveyError": "errors",
    "DegenerateVarianceError": "errors",
    "EnumerationCapError": "errors",
    "NumericalError": "errors",
    "OracleFailure": "errors",
    "ValidationError": "errors",
    "model_assisted_mean": "estimators",
    "run_campaign": "montecarlo",
    "heteroscedastic_study_population": "synthetic",
    "study_population": "synthetic",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
