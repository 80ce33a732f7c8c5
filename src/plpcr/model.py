"""Power-law failure intensities in orthogonal (shape, expected-count) form.

Each failure cause carries a shape beta and an expected count alpha over the
observation window (0, T]; this (beta, alpha) pair is the only
parameterization the package uses.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


def _require_positive(name: str, value: float) -> None:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be a positive real, got {value!r}")


@dataclass(frozen=True)
class PlpCauseParams:
    """Parameters of one cause: shape beta, expected count alpha on (0, T]."""

    beta: float
    alpha: float
    cause_id: int = 1

    def __post_init__(self) -> None:
        _require_positive("beta", self.beta)
        _require_positive("alpha", self.alpha)
        if not (isinstance(self.cause_id, int) and self.cause_id >= 1):
            raise DomainError(f"cause_id must be a positive integer, got {self.cause_id!r}")


@dataclass(frozen=True)
class SystemParams:
    """A series system of causes observed on (0, truncation_time]."""

    causes: tuple[PlpCauseParams, ...]
    truncation_time: float

    def __post_init__(self) -> None:
        if len(self.causes) < 1:
            raise DomainError("a system needs at least one cause")
        _require_positive("truncation_time", self.truncation_time)
        ids = [c.cause_id for c in self.causes]
        if ids != list(range(1, len(ids) + 1)):
            raise DomainError(f"cause_id values must be contiguous 1..p, got {ids}")

    @property
    def num_causes(self) -> int:
        return len(self.causes)


def intensity(params: PlpCauseParams, T: float, t: float) -> float:
    """Failure intensity of one cause at time t > 0.

    Equals (beta * alpha / T) * (t / T)^(beta - 1); diverges at t = 0 when
    beta < 1, hence the strict positivity requirement on t.
    """
    _require_positive("T", T)
    _require_positive("t", t)
    return params.beta * params.alpha / T * (t / T) ** (params.beta - 1.0)


def cumulative_intensity(params: PlpCauseParams, T: float, t: float) -> float:
    """Expected failure count of one cause on (0, t]: alpha * (t / T)^beta."""
    _require_positive("T", T)
    if not (isinstance(t, (int, float)) and math.isfinite(t) and t >= 0.0):
        raise DomainError(f"t must be a nonnegative real, got {t!r}")
    if t == 0.0:
        return 0.0
    return params.alpha * (t / T) ** params.beta
