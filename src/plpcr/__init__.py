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
    log_likelihood,
)
from .model import (
    PlpCauseParams,
    SystemParams,
    cumulative_intensity,
    intensity,
)
from .montecarlo import (
    McReport,
    McRow,
    PRESET_SCENARIOS,
    Scenario,
    make_scenario,
    parse_scenario,
    run_study,
)
from .numerics import (
    GammaParams,
    gamma_quantile,
    normal_quantile,
    reg_gamma_p,
)

__version__ = "0.1.0"
