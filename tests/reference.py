"""Scalar reference for the fitting kernel, for the tests.

One cause at a time, in plain floats, from the closed forms in (n, S): the
MLE n/S, the CMLE and the posterior mode (n - 1)/S, the posterior mean n/S,
and the gamma laws Gamma(n, S) and Gamma(n + 1 or n + 1/2, 1).  Its
arithmetic is the kernel's, so the two agree to the bit.
"""
from __future__ import annotations

import math

from plpcr.inference import Method, PointConvention
from plpcr.numerics import GammaParams, gamma_quantile, normal_quantile


def scalar_cells(method: Method, n: int, S: float, level: float,
                 convention: PointConvention = PointConvention.MAP):
    """(beta, alpha) cells of one cause, each (point, sd, sd_paper_compat, lo, hi)."""
    if method in (Method.MLE, Method.CMLE):
        z = normal_quantile((1.0 + level) / 2.0)
        beta = (n if method is Method.MLE else n - 1) / S
        return tuple((x, se, se, x - z * se, x + z * se)
                     for x, se in ((beta, beta / math.sqrt(n)), (float(n), math.sqrt(n))))
    tails = ((1.0 - level) / 2.0, (1.0 + level) / 2.0)
    beta_law = GammaParams(float(n), S)
    alpha_law = GammaParams(n + (1.0 if method is Method.JEFFREYS else 0.5), 1.0)
    beta = (n - 1 if convention is PointConvention.MAP else n) / S
    return ((beta, math.sqrt(n) / S, math.sqrt(n) / S,
             *(gamma_quantile(beta_law, q) for q in tails)),
            (float(n), math.sqrt(alpha_law.shape), math.sqrt(n),
             *(gamma_quantile(alpha_law, q) for q in tails)))
