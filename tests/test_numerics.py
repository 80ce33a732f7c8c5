"""Kernel tests: special functions against independent oracles and quantile
round-trips; plus the determinism and distribution contracts of the random
streams that the tests' event-level simulator (histories.py) draws from."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from histories import stream, uniforms
from plpcr.errors import DomainError
from plpcr.numerics import GammaParams, gamma_quantile, normal_quantile, reg_gamma_p

QUANTILE_SHAPES = (0.5, 1.0, 5.0, 10.0, 24.5, 100.0)
QUANTILE_PROBS = (0.005, 0.025, 0.5, 0.975, 0.995)


class TestRegGammaP:
    def test_exponential_median(self):
        assert abs(reg_gamma_p(1.0, math.log(2.0)) - 0.5) < 1e-14

    def test_zero(self):
        for a in (0.3, 1.0, 7.5, 200.0):
            assert reg_gamma_p(a, 0.0) == 0.0

    def test_limits_and_monotonicity(self):
        a = 3.7
        xs = np.linspace(0.0, 60.0, 400)
        values = [reg_gamma_p(a, float(x)) for x in xs]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a_ for a_, b in zip(values, values[1:]))
        assert values[-1] > 1.0 - 1e-12

    def test_harvester_posterior_tail(self):
        # Lower 2.5% mass of the count posterior with 10 observed failures.
        assert abs(reg_gamma_p(10.5, 5.141) - 0.025) < 5e-4

    def test_against_adaptive_quadrature(self):
        # Independent oracle: integrate the gamma density numerically.
        for a in (0.5, 1.0, 2.5, 10.0, 24.5, 100.0):
            for x in (0.3, 1.0, a, a + 5.0, 2.0 * a):
                pdf = lambda t, a=a: math.exp((a - 1.0) * math.log(t) - t - math.lgamma(a))
                oracle, err = integrate.quad(pdf, 0.0, x, limit=400,
                                             epsabs=1e-12, epsrel=1e-12)
                assert err < 1e-10
                assert abs(reg_gamma_p(a, x) - oracle) < 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_gamma_p(-1.0, 1.0)
        with pytest.raises(DomainError):
            reg_gamma_p(1.0, -0.5)
        with pytest.raises(DomainError):
            reg_gamma_p(1.0, math.nan)
        for a, x in ((True, 1.0), ("1", 1.0), (1.0, True), (np.float32(1.0), 1.0)):
            with pytest.raises(DomainError, match="reg_gamma_p"):
                reg_gamma_p(a, x)


class TestGammaQuantile:
    def test_exponential_median(self):
        q = gamma_quantile(GammaParams(1.0, 1.0), 0.5)
        assert abs(q - math.log(2.0)) < 1e-12

    def test_frozen_posterior_quantiles(self):
        # Count posteriors for 10 and 24 observed failures.
        assert abs(gamma_quantile(GammaParams(10.5, 1.0), 0.025) - 5.141) < 1e-3
        assert abs(gamma_quantile(GammaParams(24.5, 1.0), 0.975) - 35.111) < 1e-3

    def test_roundtrip_grid(self):
        for a in QUANTILE_SHAPES:
            for q in QUANTILE_PROBS:
                x = gamma_quantile(GammaParams(a, 1.0), q)
                assert abs(reg_gamma_p(a, x) - q) < 1e-8

    def test_rate_scaling_exact(self):
        for a in QUANTILE_SHAPES:
            for rate in (0.125, 3.0, 17.5):
                for q in QUANTILE_PROBS:
                    scaled = gamma_quantile(GammaParams(a, rate), q)
                    unit = gamma_quantile(GammaParams(a, 1.0), q)
                    assert abs(scaled - unit / rate) <= 1e-12 * abs(scaled)

    def test_strictly_increasing_in_q(self):
        params = GammaParams(3.2, 0.7)
        qs = np.linspace(0.01, 0.99, 50)
        values = [gamma_quantile(params, float(q)) for q in qs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_against_scipy(self):
        for a in QUANTILE_SHAPES:
            for q in QUANTILE_PROBS:
                mine = gamma_quantile(GammaParams(a, 1.0), q)
                ref = stats.gamma.ppf(q, a)
                assert abs(mine - ref) < 1e-9 * max(1.0, ref)

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 1.5, math.nan])
    def test_domain(self, q):
        with pytest.raises(DomainError):
            gamma_quantile(GammaParams(2.0, 1.0), q)

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            GammaParams(0.0, 1.0)
        with pytest.raises(DomainError):
            GammaParams(1.0, -2.0)
        # numpy's float32 and Fraction are refused as everywhere else.
        for shape, rate in (("a", 1), (None, 1.0), (True, 1.0), (1.0, "2"), (1.0, True),
                            (np.float32(2.0), 1.0), (Fraction(1, 2), 1.0), (math.inf, 1.0)):
            with pytest.raises(DomainError, match="must be a positive real"):
                GammaParams(shape, rate)


class TestNormalQuantile:
    def test_against_scipy(self):
        for p in (1e-10, 0.005, 0.025, 0.2, 0.5, 0.8, 0.975, 0.995, 1 - 1e-10):
            assert abs(normal_quantile(p) - stats.norm.ppf(p)) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            normal_quantile(0.0)
        with pytest.raises(DomainError):
            normal_quantile(1.0)
        for p in ("0.5", None, True, math.nan):
            with pytest.raises(DomainError, match="normal_quantile"):
                normal_quantile(p)


class TestRandomSource:
    """histories.stream and histories.uniforms."""

    def test_replay_identical(self):
        a = stream(987654321, 5)
        b = stream(987654321, 5)
        for n in (100, 50):
            np.testing.assert_array_equal(uniforms(a, n), uniforms(b, n))

    def test_streams_differ(self):
        a = stream(987654321, 5)
        b = stream(987654321, 6)
        assert uniforms(a, 1)[0] != uniforms(b, 1)[0]

    def test_uniform_open_interval(self):
        draws = uniforms(stream(11, 0), 100_000)
        assert draws.min() > 0.0
        assert draws.max() < 1.0

    def test_uniform_mean(self):
        draws = uniforms(stream(12, 0), 100_000)
        assert abs(draws.mean() - 0.5) < 0.005


class TestSamplePoisson:
    """The Poisson draw of a stream, the count draw of the event-level simulator."""

    def test_zero_mean(self):
        assert stream(1, 0).poisson(0.0) == 0

    def test_law_of_large_numbers(self):
        rng = stream(2024, 0)
        n = 100_000
        draws = np.array([rng.poisson(6.45) for _ in range(n)])
        assert abs(draws.mean() - 6.45) < 3.0 * math.sqrt(6.45 / n)

    def test_variance_at_large_mean(self):
        rng = stream(2025, 0)
        draws = np.array([rng.poisson(100.0) for _ in range(100_000)])
        assert abs(draws.var() - 100.0) < 5.0

    @pytest.mark.parametrize("mean", [0.5, 6.45, 100.0])
    def test_goodness_of_fit(self, mean):
        # Chi-square against the analytic mass function, tails pooled so that
        # every expected count is at least 5.
        rng = stream(99991, int(mean * 100))
        n = 100_000
        draws = np.array([rng.poisson(mean) for _ in range(n)])
        kmax = int(mean + 8.0 * math.sqrt(mean) + 10)
        expected_pmf = stats.poisson.pmf(np.arange(kmax + 1), mean)
        lo = 0
        while expected_pmf[: lo + 1].sum() * n < 5.0:
            lo += 1
        hi = kmax
        while expected_pmf[hi:].sum() * n < 5.0:
            hi -= 1
        edges = list(range(lo, hi + 1))
        observed = np.array(
            [np.sum(draws <= lo)]
            + [np.sum(draws == k) for k in edges[1:-1]]
            + [np.sum(draws >= hi)]
        )
        expected = np.array(
            [expected_pmf[: lo + 1].sum()]
            + [expected_pmf[k] for k in edges[1:-1]]
            + [1.0 - expected_pmf[:hi].sum()]
        ) * n
        _, p_value = stats.chisquare(observed, expected)
        assert p_value > 0.001
