"""References for the fitting kernel and the study block, for the tests.

`scalar_cells` works one cause at a time, in plain floats, from the closed
forms in (n, S): the MLE n/S, the CMLE and the posterior mode (n - 1)/S, the
posterior mean n/S, and the gamma laws Gamma(n, S) and Gamma(n + 1 or
n + 1/2, 1).  Its arithmetic is the kernel's, so the two agree to the bit.
`count_sums` rebuilds a study block's sums in plain floats from per-(cause,
count) tables of the unit-rate gammas G = beta * S, adding in the engine's
order, so the engine's block sums must equal it to the bit.  `block_sums`
gathers every method's cells per replication from the log sums S and sums
them row by row, the engine's former order; the engine must agree with it
to rounding, and exactly in every coverage hit.  `log_likelihood`, which
the package never evaluates, checks that the MLE is its stationary point.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

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


def count_sums(scenario, methods, counts, gammas):
    """Sums over rows of theta_hat/theta, (theta_hat - theta)^2 and coverage
    hits, shaped (3, methods, parameters), from the block's (counts, G) rows.
    Per cause and count n: the row count k, W = sum 1/G and V = sum
    (1/G - W/k)^2, each over the rows in block order; then, per method and
    over the counts in ascending order, rel = sum c W and sq = beta^2 sum
    [c^2 V + k (c W/k - 1)^2] with c the beta point at unit log sum, beta
    hits lo <= G <= hi, and alpha cells weighted by k."""
    causes = scenario.params.causes
    p = len(causes)
    sums = np.zeros((3, len(methods), 2 * p))
    for j, cause in enumerate(causes):
        rows = {}
        for n, g in zip(counts[:, j].tolist(), gammas[:, j].tolist()):
            rows.setdefault(n, []).append(g)
        tables = []
        for n in sorted(rows):
            w = v = 0.0
            for g in rows[n]:
                w += 1.0 / g
            mean = w / len(rows[n])
            for g in rows[n]:
                d = 1.0 / g - mean
                v += d * d
            tables.append((n, len(rows[n]), w, mean, v, sorted(rows[n])))
        for m, method in enumerate(methods):
            rel = sq = hits = alpha_rel = alpha_sq = alpha_hits = 0.0
            for n, k, w, mean, v, ordered in tables:
                (c, _, _, lo, hi), (x, _, _, alpha_lo, alpha_hi) = scalar_cells(
                    method, n, 1.0, scenario.level)
                d = c * mean - 1.0
                rel += c * w
                sq += c * c * v + k * (d * d)
                hits += bisect_right(ordered, hi) - bisect_left(ordered, lo)
                d = x - cause.alpha
                alpha_rel += k * (x / cause.alpha)
                alpha_sq += k * (d * d)
                alpha_hits += k if alpha_lo <= cause.alpha <= alpha_hi else 0
            sums[:, m, j] = rel, cause.beta * cause.beta * sq, hits
            sums[:, m, p + j] = alpha_rel, alpha_sq, alpha_hits
    return sums


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


def log_likelihood(betas, alphas, history) -> float:
    """Exact log-likelihood of per-cause shapes and expected counts for one history.

    In the (beta, alpha) parameterization this is
    sum_j [n_j log beta_j - beta_j S_j + n_j log alpha_j - alpha_j] minus the
    sum of log failure times, with n_j and S_j taken from the records here,
    not from `cause_stats`.
    """
    T = history.truncation_time
    total = 0.0
    for j, (beta, alpha) in enumerate(zip(betas, alphas, strict=True), start=1):
        logs = [math.log(T / r.time) for r in history.records if r.cause == j]
        total += len(logs) * (math.log(beta) + math.log(alpha)) - beta * math.fsum(logs) - alpha
    return total - math.fsum(math.log(r.time) for r in history.records)
