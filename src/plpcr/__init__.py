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
from .diagnostics import DuaneSeries, duane_points
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

# montecarlo, the one module that imports numpy, loads on first use of a name.
_MONTECARLO_NAMES = ("McReport", "McRow", "PRESET_SCENARIOS", "PlpCauseParams", "Scenario",
                     "SystemParams", "make_scenario", "parse_scenario", "run_study")


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MONTECARLO_NAMES})
