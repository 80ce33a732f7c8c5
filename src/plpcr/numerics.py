"""Gamma special functions and quantile inversion.

This is the numerical kernel the rest of the package sits on: scalar float64
work with no dependency beyond the standard library.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .errors import NumericError, check_real

_MAX_ITER = 10_000
_FPMIN = 1e-300
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class GammaParams(namedtuple("GammaParams", "shape rate")):
    """Shape/rate parameter pair of a gamma distribution (density
    rate^shape * x^(shape-1) * exp(-rate*x) / Gamma(shape))."""

    __slots__ = ()

    def __new__(cls, shape: float, rate: float):
        self = super().__new__(cls, shape, rate)
        check_real(self.shape, "gamma shape")
        check_real(self.rate, "gamma rate")
        return self

    # _replace builds through _make; this runs both through __new__'s checks.
    _make = classmethod(lambda cls, fields: cls(*fields))


def reg_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x).

    Series expansion for x < a + 1, Lentz continued fraction for the upper
    tail otherwise; both converge to machine precision on the ranges used
    here (a up to about 1.8e6; past that, a NumericError).
    """
    check_real(a, "reg_gamma_p a")
    check_real(x, "reg_gamma_p x", closed=True)
    return _reg_gamma_p(a, x)


def _reg_gamma_p(a: float, x: float) -> float:
    # Unchecked: the quantile solver's Newton loop calls it on every step.
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _lower_series(a, x)
    return 1.0 - _upper_continued_fraction(a, x)


def _gamma_prefactor(a: float, x: float) -> float:
    # x^a e^-x / Gamma(a), the common factor of both expansions
    return math.exp(a * math.log(x) - x - math.lgamma(a))


def _lower_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if term < total * 1e-17:  # both positive: a > 0 and x > 0
            return min(1.0, total * _gamma_prefactor(a, x))
    raise NumericError(f"incomplete gamma series did not converge (a={a}, x={x})")


def _upper_continued_fraction(a: float, x: float) -> float:
    # Modified Lentz evaluation of Q(a, x); see the classic recurrence
    # b0 = x + 1 - a, a_i = -i(i - a), b_i = b_{i-1} + 2.
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b if abs(b) >= _FPMIN else 1.0 / _FPMIN
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * _gamma_prefactor(a, x)
    raise NumericError(f"incomplete gamma continued fraction did not converge (a={a}, x={x})")


# Acklam's rational approximation to the standard normal quantile, polished
# below with Halley steps on the erfc-based CDF.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)


def _std_normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _normal_quantile_lower(p: float) -> float:
    """Quantile for p <= 0.5, where the erfc-based CDF keeps full relative
    precision (the result is nonpositive)."""
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if p < 0.02425:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
             / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0))
    else:
        q = p - 0.5
        r = q * q
        x = ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
             / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))
    for _ in range(2):
        err = _std_normal_cdf(x) - p
        u = err * _SQRT_2PI * math.exp(0.5 * x * x)
        x -= u / (1.0 + 0.5 * x * u)
    return x


def normal_quantile(p: float) -> float:
    """Standard normal quantile, accurate to full double precision.

    Computed through the complement for p > 0.5 (1 - p is exact there), so
    both tails keep relative precision.
    """
    return _normal_quantile(check_real(p, "normal_quantile p", high=1.0))


@lru_cache(maxsize=1024)
def _normal_quantile(p: float) -> float:
    # Unchecked and cached; the quantile solver calls it with q already checked.
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -_normal_quantile_lower(1.0 - p)
    return _normal_quantile_lower(p)


@lru_cache(maxsize=65536)
def _std_gamma_quantile(shape: float, q: float) -> float:
    """Quantile of the unit-rate gamma: y with P(shape, y) = q.

    Wilson-Hilferty starting point, then Newton iterations safeguarded by a
    maintained bracket; bisection whenever a Newton step would leave it.
    """
    a = shape
    z = _normal_quantile(q)
    t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))
    y = a * t * t * t if t > 0.0 else 0.0
    if not (y > 0.0 and math.isfinite(y)):
        # Far left tail: leading-order inversion of P(a, y) ~ y^a / Gamma(a+1)
        y = math.exp((math.log(q) + math.lgamma(a + 1.0)) / a)
    lo, hi = 0.0, math.inf
    for _ in range(200):
        try:
            p = _reg_gamma_p(a, y)
        except NumericError as exc:
            raise NumericError(f"gamma quantile of shape {shape} at q={q:g} is past the solver's "
                               "working range (shapes up to about 1.8e6 at level 0.5, "
                               "2.8e6 at level 0.99)") from exc
        err = p - q
        if abs(err) < 1e-13:
            return y
        if err < 0.0:
            lo = y
        else:
            hi = y
        pdf = _gamma_prefactor(a, y) / y if y > 0.0 else 0.0
        step_ok = pdf > 0.0 and math.isfinite(pdf)
        if step_ok:
            candidate = y - err / pdf
            step_ok = lo < candidate < hi
        if not step_ok:
            candidate = 0.5 * (lo + hi) if math.isfinite(hi) else 2.0 * max(y, _FPMIN)
        if candidate == y:
            return y
        y = candidate
    raise NumericError(f"gamma quantile iteration did not converge (shape={shape}, q={q})")


def gamma_quantile(params: GammaParams, q: float) -> float:
    """Inverse CDF of the gamma law: x with P(shape, rate*x) = q.

    Strictly increasing in q; the rate enters only as a final rescaling, so
    quantiles of a unit-rate law divide exactly by the rate.
    """
    check_real(q, "gamma_quantile q", high=1.0)
    return _std_gamma_quantile(params.shape, float(q)) / params.rate
