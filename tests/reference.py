"""References for the fitting kernel and the study block, for the tests.

`scalar_cells` works one cause at a time, in plain floats, from the closed
forms in (n, S): the MLE n/S, the CMLE and the posterior mode (n - 1)/S, the
posterior mean n/S, and the gamma laws Gamma(n, S) and Gamma(n + 1 or
n + 1/2, 1).  Its arithmetic is the kernel's, so the two agree to the bit.
`block_sums` gathers every method's cells per replication and sums them;
the engine's block sums must equal it to the bit.
"""
from __future__ import annotations

import math

import numpy as np

from plpcr.inference import Method, PointConvention, fit
from plpcr.montecarlo import _true_vector
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


def block_sums(scenario, methods, counts, log_sums):
    """Sums over rows of theta_hat/theta, (theta_hat - theta)^2 and coverage
    hits, shaped (3, methods, parameters): each method's (lo, hi) and point
    cells gathered per row from one fit per distinct count, beta cells
    divided by S_j."""
    truth = np.array(_true_vector(scenario.params))
    sums = np.empty((3, len(methods), truth.size))
    grid, index = np.unique(counts, return_inverse=True)
    index = index.reshape(counts.shape)
    grid = grid.tolist()
    for m, method in enumerate(methods):
        beta, alpha = fit(method, grid, [1.0] * len(grid), scenario.level)
        lo, hi, point = (np.hstack((np.array(b)[index] / log_sums, np.array(a)[index]))
                         for b, a in ((beta.lo, alpha.lo), (beta.hi, alpha.hi),
                                      (beta.point, alpha.point)))
        sums[0, m], sums[1, m] = np.sum(point / truth, axis=0), np.sum((point - truth) ** 2, axis=0)
        sums[2, m] = np.sum((lo <= truth) & (truth <= hi), axis=0)
    return sums
