"""Intensity/parameterization checks, including agreement between the
cumulative intensity and numerical differentiation of it."""
from __future__ import annotations

import math

import numpy as np
import pytest

from plpcr.errors import DomainError
from plpcr.model import PlpCauseParams, SystemParams, cumulative_intensity, intensity


class TestIntensity:
    def test_unit_rate_process(self):
        # beta=1, alpha=1, T=1 is a homogeneous process with rate 1.
        params = PlpCauseParams(1.0, 1.0)
        assert intensity(params, 1.0, 0.37) == 1.0

    def test_at_window_end(self):
        assert intensity(PlpCauseParams(2.0, 1.0), 1.0, 1.0) == 2.0

    def test_closed_form(self):
        # beta * alpha / T at t = T, independently evaluated.
        value = intensity(PlpCauseParams(1.5, 6.45), 5.5, 5.5)
        assert abs(value - 1.5 * 6.45 / 5.5) < 1e-15

    def test_monotonicity_by_shape(self):
        rng = np.random.default_rng(42)
        T = 3.0
        for beta, direction in ((1.7, 1), (0.6, -1), (1.0, 0)):
            params = PlpCauseParams(beta, 2.0)
            for _ in range(50):
                t1, t2 = sorted(rng.uniform(0.05, T, size=2))
                if t1 == t2:
                    continue
                diff = intensity(params, T, t2) - intensity(params, T, t1)
                if direction > 0:
                    assert diff > 0
                elif direction < 0:
                    assert diff < 0
                else:
                    assert diff == 0

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            intensity(PlpCauseParams(0.5, 1.0), 1.0, 0.0)
        with pytest.raises(DomainError):
            intensity(PlpCauseParams(2.0, 1.0), 1.0, -1.0)


class TestCumulativeIntensity:
    def test_zero_at_origin(self):
        assert cumulative_intensity(PlpCauseParams(1.3, 4.2), 7.0, 0.0) == 0.0

    def test_alpha_at_window_end_exact(self):
        for beta in (0.25, 1.0, 3.7):
            for alpha in (0.5, 6.45, 100.0):
                params = PlpCauseParams(beta, alpha)
                assert cumulative_intensity(params, 5.5, 5.5) == alpha

    def test_halfway_value(self):
        # alpha * (t/T)^beta = 4 * (1/2)^2, cross-checked by integrating the
        # intensity numerically.
        params = PlpCauseParams(2.0, 4.0)
        assert abs(cumulative_intensity(params, 2.0, 1.0) - 1.0) < 1e-15
        from scipy import integrate
        numeric, _ = integrate.quad(lambda t: intensity(params, 2.0, t), 0.0, 1.0)
        assert abs(numeric - 1.0) < 1e-10

    def test_derivative_matches_intensity(self):
        # Central differences at interior points, relative error 1e-6.
        T = 5.5
        h = 1e-5 * T
        for beta, alpha in ((0.8, 3.0), (1.0, 1.0), (2.5, 6.45)):
            params = PlpCauseParams(beta, alpha)
            for t in (0.5, 1.9, 4.2):
                numeric = (cumulative_intensity(params, T, t + h)
                           - cumulative_intensity(params, T, t - h)) / (2.0 * h)
                exact = intensity(params, T, t)
                assert abs(numeric - exact) <= 1e-6 * abs(exact)

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            cumulative_intensity(PlpCauseParams(1.0, 1.0), 1.0, -0.1)
        with pytest.raises(DomainError, match="t must be"):
            cumulative_intensity(PlpCauseParams(1.0, 1.0), 1.0, True)


class TestSystemParams:
    def test_requires_contiguous_ids(self):
        with pytest.raises(DomainError):
            SystemParams((PlpCauseParams(1.0, 1.0, 2),), 1.0)
        with pytest.raises(DomainError):
            SystemParams((PlpCauseParams(1.0, 1.0, 1), PlpCauseParams(1.0, 1.0, 3)), 1.0)

    def test_rejects_invalid_cause_params(self):
        with pytest.raises(DomainError):
            PlpCauseParams(-1.0, 1.0)
        with pytest.raises(DomainError):
            PlpCauseParams(1.0, 0.0)
        # bool is an int subclass; a flag is never a shape, a count or a label.
        for args in ((True, 1.0), (1.0, True), (1.0, 1.0, True), ("1.5", 1.0), (1.0, None),
                     (np.float32(1.5), 1.0), (math.nan, 1.0), (1.0, math.inf),
                     (1.0, 1.0, np.int64(1))):
            with pytest.raises(DomainError, match="must be a positive"):
                PlpCauseParams(*args)
        for T in (True, "5.5", None):
            with pytest.raises(DomainError, match="truncation_time"):
                SystemParams((PlpCauseParams(1.0, 1.0),), T)
