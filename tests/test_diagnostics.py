"""Duane point sets and their plot-ready CSV."""
from __future__ import annotations

import math

import numpy as np
import pytest

from histories import simulate_history, stream
from plpcr.data import FailureHistory, FailureRecord, harvester_fixture
from plpcr.diagnostics import duane_csv, duane_points
from plpcr.errors import DiagnosticError
from plpcr.montecarlo import make_scenario

E = math.e


def _single_cause(times: list[float], T: float) -> FailureHistory:
    return FailureHistory(tuple(FailureRecord(t, 1) for t in times), T, 1)


class TestDuanePoints:
    def test_log_log_mapping(self):
        history = _single_cause([1.0, E, E**2], 10.0)
        series = duane_points(history, 1)
        expected = ((0.0, 0.0), (1.0, math.log(2.0)), (2.0, math.log(3.0)))
        for got, want in zip(series.points, expected):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_harvester_cause1(self):
        series = duane_points(harvester_fixture(), 1)
        assert len(series.points) == 10
        np.testing.assert_allclose(series.points[0], (math.log(4.987), 0.0), atol=1e-12)

    def test_log_count_strictly_increasing(self):
        series = duane_points(harvester_fixture(), 2)
        counts = [lc for _, lc in series.points]
        assert all(b > a for a, b in zip(counts, counts[1:]))

    def test_empty_cause_rejected(self):
        history = _single_cause([1.0], 10.0)
        with pytest.raises(DiagnosticError):
            duane_points(history, 2)  # cause id out of range
        two_cause = FailureHistory((FailureRecord(1.0, 1),), 10.0, 2)
        with pytest.raises(DiagnosticError, match="no failures"):
            duane_points(two_cause, 2)

    def test_slope_approximates_shape(self):
        # Long simulated series: least-squares slope within 0.1 of beta.
        for beta in (0.8, 1.5):
            scenario = make_scenario((beta,), (600.0,), 5.0, seed=101)
            history = simulate_history(scenario, stream(101, 0))
            series = duane_points(history, 1)
            assert len(series.points) >= 500
            log_time, log_count = np.array(series.points).T
            slope, _ = np.polyfit(log_time, log_count, 1)
            assert abs(slope - beta) < 0.1

    def test_time_rescaling_shifts_log_time_only(self):
        history = harvester_fixture()
        c = 2.0
        scaled = FailureHistory(
            tuple(FailureRecord(c * r.time, r.cause) for r in history.records),
            c * history.truncation_time, history.num_causes)
        base = duane_points(history, 3)
        shifted = duane_points(scaled, 3)
        for (lt0, lc0), (lt1, lc1) in zip(base.points, shifted.points):
            assert abs((lt1 - lt0) - math.log(c)) < 1e-12
            assert lc1 == lc0


class TestCsvEmission:
    def test_duane_csv_layout(self):
        series = duane_points(harvester_fixture(), 1)
        text = duane_csv([series])
        lines = text.strip().splitlines()
        assert lines[0] == "cause,log_time,log_count"
        assert len(lines) == 11
        cause, log_time, log_count = lines[1].split(",")
        assert cause == "1"
        assert float(log_count) == 0.0
        assert abs(float(log_time) - math.log(4.987)) < 1e-12
