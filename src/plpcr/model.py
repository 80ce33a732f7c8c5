"""Power-law failure intensities in orthogonal (shape, expected-count) form.

Each failure cause carries a shape beta and an expected count alpha over the
observation window (0, T]; this (beta, alpha) pair is the only
parameterization the package uses.
"""
from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, check_real, check_sequence, check_whole


class PlpCauseParams(namedtuple("PlpCauseParams", "beta alpha cause_id")):
    """Parameters of one cause: shape beta, expected count alpha on (0, T]."""

    __slots__ = ()

    def __new__(cls, beta: float, alpha: float, cause_id: int = 1):
        self = super().__new__(cls, beta, alpha, cause_id)
        check_real(self.beta, "beta")
        check_real(self.alpha, "alpha")
        check_whole(self.cause_id, "cause_id")
        return self

    # _replace builds through _make; this runs both through __new__'s checks.
    _make = classmethod(lambda cls, fields: cls(*fields))


class SystemParams(namedtuple("SystemParams", "causes truncation_time")):
    """A series system of causes observed on (0, truncation_time]."""

    __slots__ = ()

    def __new__(cls, causes: tuple[PlpCauseParams, ...], truncation_time: float):
        self = super().__new__(cls, causes, truncation_time)
        if len(check_sequence(self.causes, "causes")) < 1:
            raise DomainError("a system needs at least one cause")
        for j, cause in enumerate(self.causes, start=1):
            if not isinstance(cause, PlpCauseParams):
                raise DomainError(f"cause {j} must be a PlpCauseParams, got {type(cause).__name__}")
        check_real(self.truncation_time, "truncation_time")
        ids = [c.cause_id for c in self.causes]
        if ids != list(range(1, len(ids) + 1)):
            raise DomainError(f"cause_id values must be contiguous 1..p, got {ids}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def num_causes(self) -> int:
        return len(self.causes)


def intensity(params: PlpCauseParams, T: float, t: float) -> float:
    """Failure intensity of one cause at time t > 0.

    Equals (beta * alpha / T) * (t / T)^(beta - 1); diverges at t = 0 when
    beta < 1, hence the strict positivity requirement on t.
    """
    check_real(T, "T")
    check_real(t, "t")
    return params.beta * params.alpha / T * (t / T) ** (params.beta - 1.0)


def cumulative_intensity(params: PlpCauseParams, T: float, t: float) -> float:
    """Expected failure count of one cause on (0, t]: alpha * (t / T)^beta."""
    check_real(T, "T")
    check_real(t, "t", closed=True)
    if t == 0.0:
        return 0.0
    return params.alpha * (t / T) ** params.beta
