"""Kernel tests: special functions against independent oracles and quantile
round-trips; plus the determinism and distribution contracts of the random
streams that the tests' event-level simulator (histories.py) draws from."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from scipy.special import gammainc, gammaincinv

from histories import stream, uniforms
from plpcr import numerics
from plpcr.errors import DomainError
from plpcr.numerics import GammaParams, gamma_quantile, normal_quantile, reg_gamma_p

QUANTILE_SHAPES = (0.5, 1.0, 5.0, 10.0, 24.5, 100.0)
QUANTILE_PROBS = (0.005, 0.025, 0.5, 0.975, 0.995)
# The large-shape branch: Temme's expansion from numerics._TEMME_SHAPE (50) on.
SWITCH = numerics._TEMME_SHAPE
TEMME_PROBS = (0.0005, 0.005, 0.025, 0.25, 0.5, 0.75, 0.975, 0.995, 0.9995)


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


class TestLargeShapes:
    """The large-shape branch against scipy, and its cost per solve."""

    @pytest.mark.parametrize("a", [math.nextafter(SWITCH, 0.0), *np.geomspace(SWITCH, 1e9, 25)])
    def test_quantile_against_scipy(self, a):
        a = float(a)
        for q in TEMME_PROBS:
            got = gamma_quantile(GammaParams(a, 1.0), q)
            assert got == pytest.approx(gammaincinv(a, q), rel=1e-12, abs=0)

    @pytest.mark.parametrize("a, tol", [
        # Below the switch-over the series and continued fraction stay. Their
        # prefactor exp(a ln x - x - lgamma(a)) loses about a*ln(a) ulps, which
        # is 1-2e-14 near x = a at these shapes.
        (49.0, 5e-14), (math.nextafter(SWITCH, 0.0), 5e-14),
        (SWITCH, 1e-14), (75.0, 1e-14), (1e3, 1e-14), (1e5, 1e-14)])
    def test_reg_gamma_p_against_scipy(self, a, tol):
        # lambda = x/a from 0.5 to 2 crosses |eta| = 0.5, where the expansion
        # hands over to the series and the continued fraction, on both sides.
        for lam in np.geomspace(0.5, 2.0, 201):
            x = a * float(lam)
            assert abs(reg_gamma_p(a, x) - gammainc(a, x)) < tol

    @pytest.mark.parametrize("a", [1e3, 1e5, 1e7])
    @pytest.mark.parametrize("q", [0.025, 0.975])
    def test_evaluations_per_solve(self, a, q, monkeypatch):
        # Newton from Temme's inversion settles in one or two evaluations of
        # P(a, x); a bracketing fallback or a stall would take many more.
        calls = []
        reg_gamma_p_ = numerics._reg_gamma_p
        monkeypatch.setattr(numerics, "_reg_gamma_p",
                            lambda a_, x: calls.append(x) or reg_gamma_p_(a_, x))
        y = numerics._std_gamma_quantile.__wrapped__(a, q)
        assert 1 <= len(calls) <= 4
        assert y == pytest.approx(gammaincinv(a, q), rel=1e-12, abs=0)

    def test_no_upper_limit_on_the_shape(self):
        # Shapes past the old solver's limit (about 1.8e6) solve like any other.
        for a in (1e7, 1e12, 1e15):
            lo, hi = (gamma_quantile(GammaParams(a, 1.0), q) for q in (0.025, 0.975))
            z = normal_quantile(0.975)
            assert lo == pytest.approx(a - z * math.sqrt(a), rel=1e-6)
            assert hi == pytest.approx(a + z * math.sqrt(a), rel=1e-6)


def _series_product(x, y, n):
    return [sum(x[i] * y[k - i] for i in range(k + 1) if i < len(x) and k - i < len(y))
            for k in range(n)]


def _series_reciprocal(x, n):
    out = [1 / x[0]]
    for k in range(1, n):
        out.append(-sum(x[i] * out[k - i] for i in range(1, min(k, len(x) - 1) + 1)) / x[0])
    return out


def _derivative(x):
    return [i * x[i] for i in range(1, len(x))]


def _divided_by_eta(x):
    # x / eta for a series with no constant term (checked to the working precision).
    assert abs(x[0]) < 1e-35
    return x[1:]


def _temme_taylor(mp, rows, n):
    """Taylor coefficients at eta = 0 of Temme's C_0..C_{rows-1}, of eps_1..eps_3
    and of (lambda - 1)/eta, each to about n terms, in mpmath's precision."""
    # mu = lambda - 1 as a series in eta: differentiating eta^2/2 = mu - ln(1 + mu)
    # gives mu * mu' = eta * (1 + mu), solved term by term.
    b = [mp.mpf(0), mp.mpf(1)]
    for k in range(2, n + 3):
        b.append((b[k - 1] - sum((k + 1 - i) * b[i] * b[k + 1 - i] for i in range(2, k)))
                 / (k + 1))
    f = _series_reciprocal(b[1:], n + 2)  # f = eta / mu
    # Stirling coefficients: Gamma(a) ~ sqrt(2 pi / a) (a/e)^a sum_k g_k / a^k,
    # the exponential of sum_m B_2m / (2m (2m - 1)) a^(1 - 2m).
    log_g = [mp.mpf(0)] * rows
    for m in range(1, rows // 2 + 1):
        if 2 * m - 1 < rows:
            log_g[2 * m - 1] = mp.bernoulli(2 * m) / (2 * m * (2 * m - 1))
    g = [mp.mpf(1)]
    for k in range(1, rows):
        g.append(sum(i * log_g[i] * g[k - i] for i in range(1, k + 1)) / k)
    # C_0 = 1/mu - 1/eta, and C_k = C_{k-1}'/eta + (-1)^k g_k / mu (DLMF 8.12.9-8.12.10).
    c = [f[1:]]
    for k in range(1, rows):
        prev, sign = c[-1], (-1) ** k
        assert abs(prev[1] + sign * g[k]) < 1e-35  # the 1/eta poles cancel
        c.append([(j + 2) * prev[j + 2] + sign * g[k] * f[j + 1] for j in range(len(prev) - 2)])
    # eps_k from the differential equation of the inversion (Temme 1992):
    # ln(d eta / d eta0) = ln Gamma*(a) + a (eta^2 - eta0^2)/2 - ln f(eta), with
    # eta = eta0 + sum_k eps_k(eta0) / a^k and ln Gamma*(a) = 1/(12 a) + O(a^-3).
    m = n + 2
    log_f = [mp.mpf(0)] + [v / (i + 1) for i, v in enumerate(
        _series_product(_derivative(f), _series_reciprocal(f, m), m - 1))]
    d1, d2 = _derivative(log_f), _derivative(_derivative(log_f))
    e1 = _divided_by_eta(log_f)
    e1d = _derivative(e1)
    k = len(e1d)
    e2 = _divided_by_eta([e1d[j] - (mp.mpf(1) / 12 if j == 0 else 0)
                          - _series_product(e1, e1, k)[j] / 2
                          + _series_product(d1, e1, k)[j] for j in range(k)])
    k = len(e2) - 1
    e1e1 = _series_product(e1, e1, k)
    e3 = _divided_by_eta([_derivative(e2)[j] - _series_product(e1d, e1d, k)[j] / 2
                          - _series_product(e1, e2, k)[j] + _series_product(d1, e2, k)[j]
                          + _series_product(d2, e1e1, k)[j] / 2 for j in range(k)])
    return c, (e1, e2, e3), b[1:]


class TestTemmeCoefficients:
    """Where the large-shape branch's constants come from: each is re-derived
    in 40-digit arithmetic and compared with its committed value."""

    @pytest.fixture(scope="class")
    def derived(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            rows = len(numerics._TEMME_C) + 3
            n = max(len(row) + 2 * k for k, row in enumerate(numerics._TEMME_C)) + 2 * 3 + 20
            yield mp, *_temme_taylor(mp, rows, n)

    @staticmethod
    def _assert_matches(committed, derived):
        # Committed rows are stored highest power first, for Horner's rule.
        for n, value in enumerate(reversed(committed)):
            assert value == pytest.approx(float(derived[n]), rel=1e-15, abs=0)

    def test_uniform_expansion(self, derived):
        _, c, _, _ = derived
        for k, row in enumerate(numerics._TEMME_C):
            self._assert_matches(row, c[k])
        assert float(c[0][0]) == -1 / 3 and float(c[1][0]) == -1 / 540  # DLMF 8.12.11

    def test_inversion(self, derived):
        _, _, eps, mu = derived
        for row, series in zip(numerics._TEMME_EPS, eps, strict=True):
            self._assert_matches(row, series)
        self._assert_matches(numerics._TEMME_MU, mu)
        assert float(eps[1][0]) == -7 / 405 and float(eps[2][0]) == 449 / 102060

    def test_rows_are_cut_below_double_precision(self, derived):
        # At the edge of the branch, |eta| = 0.5 and a = 50, the committed
        # truncation of sum_k C_k(eta) / a^k is within 1e-16 of the full series.
        mp, c, _, _ = derived
        a = mp.mpf(numerics._TEMME_SHAPE)
        for eta in (-numerics._TEMME_ETA, numerics._TEMME_ETA):
            eta = mp.mpf(eta)
            full = sum(mp.polyval(row[::-1], eta) / a ** k for k, row in enumerate(c))
            cut = sum(mp.polyval(row[:len(kept)][::-1], eta) / a ** k
                      for k, (row, kept) in enumerate(zip(c, numerics._TEMME_C)))
            assert abs(cut / full - 1) < 1e-16


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
