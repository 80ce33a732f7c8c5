"""Model-adequacy output: Duane point sets.

A Duane series is emitted as plot-ready data rather than a rendered figure:
the (log time, log cumulative count) scatter whose near-linearity supports
the power-law model (its slope approximates beta).
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .data import FailureHistory
from .errors import DiagnosticError, check_whole


class DuaneSeries(NamedTuple):
    """One cause's Duane scatter: (log_time, log_count) per failure."""

    cause: int
    points: tuple[tuple[float, float], ...]


def duane_points(history: FailureHistory, cause: int) -> DuaneSeries:
    """Map the i-th failure of a cause at time t to the point (ln t, ln i)."""
    check_whole(cause, "cause", DiagnosticError, high=history.num_causes)
    times = history.times_for_cause(cause)
    if not times:
        raise DiagnosticError(f"cause {cause} has no failures; no Duane points to emit")
    points = tuple((math.log(t), math.log(i)) for i, t in enumerate(times, start=1))
    return DuaneSeries(cause, points)


def duane_csv(series_list: list[DuaneSeries] | tuple[DuaneSeries, ...]) -> str:
    """Plot-ready CSV with columns cause,log_time,log_count."""
    lines = ["cause,log_time,log_count"]
    for series in series_list:
        lines.extend(f"{series.cause},{lt!r},{lc!r}" for lt, lc in series.points)
    return "\n".join(lines) + "\n"
