"""Objective Bayesian and maximum-likelihood inference for repairable systems
under competing risks, with power-law failure intensities, minimal repair,
and time-truncated observation."""

from .data import (
    CauseStats,
    FailureHistory,
    FailureRecord,
    cause_stats,
    harvester_fixture,
    parse_history,
    serialize_history,
    WARRANTY_CLAIM_COUNTS,
)
from .errors import (
    DiagnosticError,
    DomainError,
    EstimationError,
    ImproperPosteriorError,
    NumericError,
    PlpcrError,
    StudyError,
    UnsupportedModelError,
    ValidationError,
)
from .inference import (
    Cells,
    EstimateRow,
    EstimateTable,
    Method,
    Model,
    PointConvention,
    alpha_laws_from_counts,
    build_estimate_table,
    fit,
)
from .numerics import (
    GammaParams,
    gamma_quantile,
    normal_quantile,
    reg_gamma_p,
)

__version__ = "0.1.0"

# Names whose module loads on their first use: montecarlo, the one module that
# imports numpy, and diagnostics, which only the duane command runs.
_LAZY_NAMES = {
    **dict.fromkeys(("McReport", "McRow", "PRESET_SCENARIOS", "PlpCauseParams", "Scenario",
                     "SystemParams", "make_scenario", "parse_scenario", "run_study"),
                    "montecarlo"),
    **dict.fromkeys(("DuaneSeries", "duane_points"), "diagnostics"),
}


def __getattr__(name: str):
    if name in _LAZY_NAMES:
        from importlib import import_module
        return getattr(import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY_NAMES})
