"""Gamma special functions and quantile inversion.

This is the numerical kernel the rest of the package sits on: scalar float64
work with no dependency beyond the standard library.

The regularized incomplete gamma P(a, x) has two regimes:

- From shape 50 (`_TEMME_SHAPE`), with x/a between about 0.58 and 1.59
  (|eta| <= 0.5 below), it is Temme's uniform asymptotic expansion in erfc
  and a short series, whose cost does not depend on a. The quantile solver
  there starts Newton from Temme's asymptotic inversion, and one evaluation
  usually settles it.
- Everywhere else it is the power series (x < a + 1) or the continued
  fraction of the upper tail. Near x = a they need about 7-9*sqrt(a) terms;
  where |eta| > 0.5 they need at most about 70, whatever the shape.
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

    Temme's uniform expansion for a >= 50 and x near a (see the module
    docstring); otherwise the series expansion for x < a + 1 and the Lentz
    continued fraction for the upper tail. Each converges to machine
    precision wherever it is used.
    """
    check_real(a, "reg_gamma_p a")
    check_real(x, "reg_gamma_p x", closed=True)
    return _reg_gamma_p(a, x)


def _reg_gamma_p(a: float, x: float) -> float:
    # Unchecked: the quantile solver's Newton loop calls it on every step.
    if x == 0.0:
        return 0.0
    if a >= _TEMME_SHAPE:
        mu = (x - a) / a  # lambda - 1; x - a is exact while x is within a factor 2 of a
        half_eta2 = mu - math.log1p(mu)
        if half_eta2 <= _TEMME_HALF_ETA2:
            return _temme_p(a, mu, half_eta2)
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


# Temme's uniform expansion (Temme 1979, SIAM J. Math. Anal. 10; DLMF 8.12).
# With lambda = x/a and eta = sign(lambda - 1) * sqrt(2 * (lambda - 1 - ln lambda)):
#     P(a, x) = erfc(-eta * sqrt(a/2)) / 2
#               - exp(-a * eta^2 / 2) / sqrt(2 pi a) * sum_k C_k(eta) / a^k.
# Row k of _TEMME_C holds the Taylor coefficients of C_k(eta), highest power
# first for Horner's rule. Each row is cut where the rest of it is below
# 1e-17 at |eta| = _TEMME_ETA and a = _TEMME_SHAPE, and later C_k add less
# than that. tests/test_numerics.py derives every coefficient here.
_TEMME_SHAPE = 50.0
_TEMME_ETA = 0.5
_TEMME_HALF_ETA2 = 0.5 * _TEMME_ETA * _TEMME_ETA
_TEMME_C = (
    (-5.0276692801141755e-12, 2.4361948020667415e-11, -5.830772132550426e-11,
     -2.5514193994946248e-11, 9.14769958223679e-10, -4.382036018453353e-09,
     1.0261809784240309e-08, 6.707853543401498e-09, -1.7665952736826078e-07,
     8.296711340953087e-07, -1.85406221071516e-06, -2.185448510679992e-06,
     3.919263178522438e-05, -0.0001787551440329218, 0.0003527336860670194,
     0.0011574074074074073, -0.014814814814814815, 0.08333333333333333, -0.3333333333333333),
    (-8.56390702649298e-11, 4.162792991842583e-10, -1.0091543710600413e-09,
     -1.7543241719747647e-11, 1.1951628599778148e-08, -5.752545603517705e-08,
     1.378633446915721e-07, 4.647127802807434e-09, -1.6120900894563446e-06,
     7.64916091608111e-06, -1.8098550334489977e-05, -4.018775720164609e-07,
     0.00020576131687242798, -0.0009902263374485596, 0.0026455026455026454,
     -0.003472222222222222, -0.001851851851851852),
    (1.2872252400089318e-10, 9.428356159014678e-13, -1.3670488396617114e-09,
     6.228974084922022e-09, -1.409252991086752e-08, -2.0477098421990866e-10,
     1.4280614206064242e-07, -6.298992138380055e-07, 1.3721957309062934e-06,
     3.423578734096138e-08, -1.2760635188618728e-05, 5.2923448829120125e-05,
     -0.0001073665322636516, 2.0093878600823047e-06, 0.0007716049382716049,
     -0.0026813271604938273, 0.004133597883597883),
    (2.0620131815488797e-09, 2.3928620439808118e-12, -1.9111168485973655e-08,
     8.099464905388083e-08, -1.6958404091930278e-07, -2.7861080291528143e-11,
     1.4230900732435883e-06, -5.6749528269915965e-06, 1.1082654115347302e-05,
     -2.396505113867297e-07, -7.561801671883977e-05, 0.00026772063206283885,
     -0.0004691894943952557, 0.00022947209362139917, 0.0006494341563786008),
    (2.8865829742708783e-08, 2.956794137544049e-11, -2.292934834000805e-07,
     8.907507532205309e-07, -1.6954149536558305e-06, 2.507497226237533e-10,
     1.1375726970678419e-05, -3.968365047179435e-05, 6.641498215465122e-05,
     -1.4638452578843418e-06, -0.0002990724803031902, 0.0007840392217200666,
     -0.0008618882909167117),
    (3.4652846491085265e-07, -3.252473551298454e-10, -2.291481176508095e-06,
     8.018470256334202e-06, -1.3594048189768693e-05, 1.419062920643967e-07,
     6.797780477937208e-05, -0.00019932570516188847, 0.0002772753244959392,
     -6.972813758365857e-05, -0.00033679855336635813),
    (3.465155368803609e-06, -3.0796134506033047e-09, -1.8329116582843375e-05,
     5.61168275310625e-05, -8.153969367561969e-05, 7.902353232660328e-07,
     0.0002708782096718045, -0.0005921664373536939, 0.0005313079364639922),
    (-0.00010976582244684731, 0.0002812695154763237, -0.00033493161081142234,
     5.171790908260592e-05, 0.00034436760689237765),
    (-0.000438297098541721, 0.0008394987206720873, -0.0006526239185953094),
)
# Temme's asymptotic inversion (Temme 1992, Math. Comp. 58): P(a, a * lambda)
# = q at eta = eta0 + eps_1(eta0)/a + eps_2(eta0)/a^2 + eps_3(eta0)/a^3 +
# O(a^-4), with eta0 = z_q / sqrt(a). Rows: Taylor coefficients of eps_1..eps_3.
_TEMME_EPS = (
    (3.776373375138807e-06, -6.185087203605722e-06, -2.8741263309164543e-05,
     0.0002755731922398589, -0.0010802469135802468, 0.0006172839506172839,
     0.027777777777777776, -0.3333333333333333),
    (4.963238978973187e-06, -2.1264630522937184e-05, 4.055292003251537e-05,
     6.229995427526292e-05, -0.0007520766651425087, 0.002611209092690574,
     -0.002700617283950617, -0.01728395061728395),
    (-1.767264368629448e-06, -1.0458719597698151e-05, 5.835799802507499e-05,
     -0.00014083659963035565, 6.554653913335898e-05, 0.0007956376423454613,
     -0.003007782731290962, 0.004399372917891437),
)
# lambda - 1 = eta * (this series in eta), the inverse of eta(lambda).
_TEMME_MU = (-1.47216272806884e-08, 7.542464855411896e-08, -1.85406221071516e-07,
             -2.428276122977769e-07, 4.899078973153047e-06, -2.553644914756026e-05,
             5.878894767783657e-05, 0.0002314814814814815, -0.003703703703703704,
             0.027777777777777776, 0.3333333333333333, 1.0)


def _horner(coeffs, x: float) -> float:
    total = 0.0
    for c in coeffs:
        total = total * x + c
    return total


def _temme_p(a: float, mu: float, half_eta2: float) -> float:
    # P(a, a * (1 + mu)) by the uniform expansion; half_eta2 = eta^2 / 2.
    eta = math.copysign(math.sqrt(half_eta2 + half_eta2), mu)
    total = 0.0
    scale = 1.0
    for row in _TEMME_C:
        total += scale * _horner(row, eta)
        scale /= a
        if scale < 1e-14:  # |C_k| < 0.006 for k >= 1 here: the rest adds < 1e-16 to ~1/3
            break
    return (0.5 * math.erfc(-eta * math.sqrt(0.5 * a))
            - math.exp(-a * half_eta2) / math.sqrt(2.0 * math.pi * a) * total)


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

    From shape 50, where Temme's expansions hold, Newton from Temme's
    asymptotic inversion (`_temme_quantile`). Otherwise a Wilson-Hilferty
    starting point, then Newton iterations safeguarded by a maintained
    bracket; bisection whenever a Newton step would leave it.
    """
    a = shape
    z = _normal_quantile(q)
    if a >= _TEMME_SHAPE and abs(z) <= _TEMME_ETA * math.sqrt(a):
        return _temme_quantile(a, q, z)
    t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))
    y = a * t * t * t if t > 0.0 else 0.0
    if not (y > 0.0 and math.isfinite(y)):
        # Far left tail: leading-order inversion of P(a, y) ~ y^a / Gamma(a+1)
        y = math.exp((math.log(q) + math.lgamma(a + 1.0)) / a)
    lo, hi = 0.0, math.inf
    for _ in range(200):
        err = _reg_gamma_p(a, y) - q
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


def _temme_quantile(a: float, q: float, z: float) -> float:
    """y with P(a, y) = q for a >= 50 and |z| / sqrt(a) <= 0.5, z the normal
    q-quantile: Newton from Temme's asymptotic inversion, whose start is
    within 3e-10 relative, so one step usually settles it."""
    eta0 = z / math.sqrt(a)
    eps1, eps2, eps3 = [_horner(row, eta0) for row in _TEMME_EPS]
    eta = eta0 + (eps1 + (eps2 + eps3 / a) / a) / a
    y = a + a * eta * _horner(_TEMME_MU, eta)
    # y * pdf(y) = exp(-a * eta(y)^2 / 2) * sqrt(a / (2 pi)) / Gamma*(a), where
    # Gamma*(a) = Gamma(a) / (sqrt(2 pi / a) * (a/e)^a) from its Stirling series.
    u = 1.0 / (a * a)
    norm = math.sqrt(a / (2.0 * math.pi)) * math.exp(
        -(1.0 / 12.0 - u * (1.0 / 360.0 - u * (1.0 / 1260.0 - u / 1680.0))) / a)
    for _ in range(8):
        mu = (y - a) / a
        step = (_reg_gamma_p(a, y) - q) * y / (norm * math.exp(a * (math.log1p(mu) - mu)))
        y -= step
        # Newton's next error is about |f''/(2 f')| * step^2, f''/f' = (a - 1)/y - 1.
        if abs((a - 1.0) / y - 1.0) * step * step < 2e-16 * y:
            return y
    raise NumericError(f"gamma quantile iteration did not converge (shape={a}, q={q})")


def gamma_quantile(params: GammaParams, q: float) -> float:
    """Inverse CDF of the gamma law: x with P(shape, rate*x) = q.

    Strictly increasing in q; the rate enters only as a final rescaling, so
    quantiles of a unit-rate law divide exactly by the rate.
    """
    check_real(q, "gamma_quantile q", high=1.0)
    return _std_gamma_quantile(params.shape, float(q)) / params.rate
