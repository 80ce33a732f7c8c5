"""Estimators for competing-risk power-law processes.

Every estimator depends on the data only through the per-cause counts n_j
and log sums S_j = sum log(T/t), and each has a closed form in them, so the
likelihood is never evaluated here (the test suite keeps it, to check that
the MLE is its stationary point):

* ``mle`` - maximum likelihood, beta_j = n_j / S_j, alpha_j = n_j;
* ``cmle`` - the bias-corrected point (n_j - 1) / S_j with Wald intervals
  rebuilt around it;
* ``jeffreys`` / ``reference`` - objective-Bayes posteriors.  Both are
  products of independent gamma laws; they share the beta marginals
  Gamma(n_j, S_j) and differ only in the alpha shapes (n_j + 1 for Jeffreys,
  n_j + 1/2 for the overall-reference prior).

The mode of the beta marginal is the bias-corrected point, so the Bayes (map)
and CMLE beta points coincide; for alpha all methods use the unbiased count
n_j.  Under the shared-shape model the Jeffreys posterior has no closed form
and is refused explicitly.

Each rule is decided once: ``Method`` names the two priors, whose only
difference is the alpha shape offset in ``_ALPHA_SHAPE_OFFSET``, and every
public entry accepts a ``Model``, ``Method`` or ``PointConvention`` member or
its value, refusing any other value with a DomainError.  Every cell of an
estimate table or a replication study comes from one kernel in two halves,
``_beta_cells`` and ``_alpha_cells``: plain ``math`` over float tuples of
counts and log sums, so fitting never imports numpy.  Every caller reaches
the kernel the same way, through both halves: the public ``fit`` after its
checks; ``build_estimate_table``, whose statistics a ``CauseStats`` has
checked, on the per-cause entries or, for the pooled beta of the
shared-shape model, on one entry; and the study engine, whose counts are
drawn valid, once per block.  ``_FAMILY`` states which methods share their
beta or alpha cells; the engine fits each such family once per block.
``_parameter_names`` gives the row labels of both the table and the study.
"""
from __future__ import annotations

import math
import reprlib
from enum import Enum
from itertools import repeat
from typing import NamedTuple

from .data import CauseStats
from .errors import (
    DomainError,
    EstimationError,
    ImproperPosteriorError,
    UnsupportedModelError,
    check_real,
    check_sequence,
    check_whole,
)
from .numerics import GammaParams, _std_gamma_quantile, normal_quantile


class Model(str, Enum):
    DISTINCT = "distinct"
    SHARED = "shared"


class Method(str, Enum):
    MLE = "mle"
    CMLE = "cmle"
    JEFFREYS = "jeffreys"
    REFERENCE = "reference"


class PointConvention(str, Enum):
    """Bayes point rule for beta: posterior mode (map) or posterior mean."""

    MAP = "map"
    MEAN = "mean"


ALL_METHODS: tuple[Method, ...] = (Method.MLE, Method.CMLE, Method.JEFFREYS, Method.REFERENCE)

# The Bayes methods; the alpha posterior of cause j is Gamma(n_j + offset, 1).
_ALPHA_SHAPE_OFFSET = {Method.JEFFREYS: 1.0, Method.REFERENCE: 0.5}

# The cell families: each method's (beta family, alpha family), each family named
# by its first method.  Both priors give the beta marginal Gamma(n, S), and mle and
# cmle share the Wald alpha interval around n, so a study fits each family once.
_FAMILY = {Method.MLE: (Method.MLE, Method.MLE), Method.CMLE: (Method.CMLE, Method.MLE),
           Method.JEFFREYS: (Method.JEFFREYS, Method.JEFFREYS),
           Method.REFERENCE: (Method.JEFFREYS, Method.REFERENCE)}


class EstimateRow(NamedTuple):
    parameter: str
    method: Method
    point: float
    sd: float
    sd_paper_compat: float
    ci_lo: float
    ci_hi: float
    level: float


class EstimateTable(NamedTuple):
    """Per-parameter estimate rows plus any per-cause exclusion warnings."""

    rows: tuple[EstimateRow, ...]
    warnings: tuple[str, ...] = ()


_KIND_NAMES = {Model: "model", Method: "method", PointConvention: "point convention"}


def _as(kind: type[Enum], value):
    """The member of `kind` that `value` is or names; DomainError otherwise."""
    try:
        return kind(value)
    except ValueError:
        raise DomainError(f"unknown {_KIND_NAMES[kind]} {value!r}; expected one of "
                          f"{', '.join(m.value for m in kind)}") from None


def _as_methods(methods) -> tuple[Method, ...]:
    """The methods a non-empty list or tuple names, repeats dropped; a string is refused."""
    if not check_sequence(methods, "methods"):
        raise DomainError("at least one method is required")
    return tuple(dict.fromkeys(_as(Method, m) for m in methods))


def alpha_laws_from_counts(counts: tuple[int, ...] | list[int],
                           method: Method = Method.REFERENCE) -> tuple[GammaParams, ...]:
    """Marginal alpha posteriors of a Bayes method from failure counts alone.

    The alpha laws depend on the data only through the counts, so datasets
    whose raw failure times were never published (only totals per cause) still
    admit exact interval estimates for the expected counts.
    """
    method = _as(Method, method)
    offset = _ALPHA_SHAPE_OFFSET.get(method)
    if offset is None:
        raise DomainError(f"alpha laws need a Bayes method (jeffreys or reference), "
                          f"got {method.value!r}")
    for j, n in enumerate(check_sequence(counts, "counts", ImproperPosteriorError), start=1):
        check_whole(n, f"cause {j}: count", ImproperPosteriorError)
    return tuple(GammaParams(n + offset, 1.0) for n in counts)


class Cells(NamedTuple):
    """Estimate cells of one parameter family, one entry per input entry."""

    point: tuple[float, ...]
    sd: tuple[float, ...]
    sd_paper_compat: tuple[float, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]


def _std_quantiles(shapes: tuple[float, ...], level: float) -> tuple[tuple[float, ...], ...]:
    """Equal-tail quantiles of the unit-rate gammas of `shapes`, one cached lookup each."""
    return tuple(tuple([_std_gamma_quantile(a, q) for a in shapes])
                 for q in ((1.0 - level) / 2.0, (1.0 + level) / 2.0))


def _wald(point: tuple[float, ...], sd: tuple[float, ...], level: float) -> Cells:
    z = normal_quantile((1.0 + level) / 2.0)
    return Cells(point, sd, sd, tuple([x - z * e for x, e in zip(point, sd)]),
                 tuple([x + z * e for x, e in zip(point, sd)]))


def _input_fault(counts, log_sums) -> str | None:
    """What is wrong with the counts and log sums, if anything: their lengths
    or the index and value of the first bad entry, never the whole input."""
    if len(counts) != len(log_sums):
        return f"{len(counts)} counts and {len(log_sums)} log sums differ in length"
    for name, values, whole in (("count", counts, True), ("log sum", log_sums, False)):
        for i, value in enumerate(values):
            try:  # the number rule; a count whole and >= 1, a log sum > 0
                check_real(value, name, low=1.0 if whole else 0.0, closed=whole)
                if not whole or float(value).is_integer():
                    continue
            except DomainError:
                pass
            return ("counts must be whole numbers >= 1 and log sums positive and finite; "
                    f"of {len(counts)} entries, the {name} at index {i} is {reprlib.repr(value)}")
    return None


def _parameter_names(p: int) -> list[str]:
    """The row labels of p causes: beta_1 .. beta_p, then alpha_1 .. alpha_p."""
    return [f"beta_{j}" for j in range(1, p + 1)] + [f"alpha_{j}" for j in range(1, p + 1)]


def _beta_cells(method: Method, n: tuple[float, ...], s: tuple[float, ...], level: float,
                convention: PointConvention) -> Cells:
    """The beta half of the fitting kernel, on inputs already checked: members
    of Method and PointConvention, a level in (0, 1), and float tuples of equal
    length with whole counts n >= 1 and finite log sums s > 0."""
    # The cmle point and the mode of the beta marginal Gamma(n, S): (n - 1) / S, 0 at n = 1.
    bayes = method in _ALPHA_SHAPE_OFFSET
    shift = 1.0 if method is Method.CMLE or (bayes and convention is PointConvention.MAP) else 0.0
    point = tuple([(x - shift) / y for x, y in zip(n, s)])
    if not bayes:
        return _wald(point, tuple([b / math.sqrt(x) for b, x in zip(point, n)]), level)
    sd = tuple([math.sqrt(x) / y for x, y in zip(n, s)])
    lo, hi = _std_quantiles(n, level)
    return Cells(point, sd, sd, tuple([q / y for q, y in zip(lo, s)]),
                 tuple([q / y for q, y in zip(hi, s)]))


def _alpha_cells(method: Method, n: tuple[float, ...], level: float) -> Cells:
    """The alpha half of the fitting kernel, on inputs checked as for `_beta_cells`."""
    root = tuple(map(math.sqrt, n))
    if method is Method.MLE or method is Method.CMLE:
        return _wald(n, root, level)
    shape = tuple([x + _ALPHA_SHAPE_OFFSET[method] for x in n])
    return Cells(n, tuple(map(math.sqrt, shape)), root, *_std_quantiles(shape, level))


def fit(method: Method, counts, log_sums, level: float,
        convention: PointConvention = PointConvention.MAP) -> tuple[Cells, Cells]:
    """(beta cells, alpha cells) of one method, entry by entry over lists or
    tuples of counts n >= 1 and log sums S > 0: the kernel behind its checks.

    mle/cmle: points n/S or (n-1)/S and n, Wald intervals with se point/sqrt(n)
    and sqrt(n), not truncated at 0.  jeffreys/reference: equal-tail credible
    intervals of Gamma(n, S) and Gamma(n + 1 or n + 1/2, 1), the posterior
    mode (map) or mean as the beta point and n as the alpha point.
    """
    method, convention = _as(Method, method), _as(PointConvention, convention)
    check_real(level, "level", high=1.0)
    check_sequence(counts, "counts")
    check_sequence(log_sums, "log sums")
    fault = _input_fault(counts, log_sums)
    if fault:
        raise DomainError(fault)
    n, s = tuple(map(float, counts)), tuple(map(float, log_sums))
    return _beta_cells(method, n, s, level, convention), _alpha_cells(method, n, level)


def build_estimate_table(stats: CauseStats,
                         methods: tuple[Method, ...] = ALL_METHODS,
                         model: Model = Model.DISTINCT,
                         level: float = 0.95,
                         convention: PointConvention = PointConvention.MAP,
                         ) -> EstimateTable:
    """Assemble the full per-parameter estimate table for the chosen methods.

    Causes that fail a method's existence condition (no failures, or a single
    failure for the bias-corrected method) are excluded from that method's
    rows and reported in the warnings instead of aborting the other causes,
    as is a MAP beta point of 0 (a single failure).  Raises EstimationError
    when nothing at all is estimable: no failures, or no row for any method.
    Rows run over betas then alphas, and within a parameter over the methods.
    """
    methods = _as_methods(methods)
    model, convention = _as(Model, model), _as(PointConvention, convention)
    check_real(level, "level", high=1.0)
    if not isinstance(stats, CauseStats):
        raise DomainError(f"stats must be a CauseStats, got {type(stats).__name__}")
    pooled = model is Model.SHARED
    try:  # a CauseStats has checked its entries, but not against the float range
        n, s = tuple(map(float, stats.counts)), tuple(map(float, stats.log_sums))
        total = (float(stats.n), stats.log_sum_total) if pooled else None
    except OverflowError:
        raise DomainError("a count or the pooled log sum is beyond the float range") from None
    p = len(n)
    usable = [j for j in range(p) if n[j]]
    if not usable:
        raise EstimationError("no failures observed")
    if pooled and Method.JEFFREYS in methods and set(methods) != set(ALL_METHODS):
        raise UnsupportedModelError("the shared-shape Jeffreys posterior has no closed form")
    warnings = [f"cause {j + 1}: no failures observed; excluded from estimation"
                for j in range(p) if not n[j]]
    names = _parameter_names(p)
    if pooled:
        names[0] = "beta"
    slots = [None] * (2 * p * len(methods))  # parameter-major; None where excluded
    bayes = False
    for m, method in enumerate(methods):
        keep = usable
        if method is Method.JEFFREYS and pooled:
            keep = []
            warnings.append("jeffreys: no closed-form posterior under the shared-shape "
                            "model; rows omitted")
        elif method is Method.CMLE and pooled and total[0] < 2.0:
            keep = []
            warnings.append("fewer than 2 failures in total; bias-corrected rows omitted")
        elif method is Method.CMLE and not pooled:
            keep = [j for j in usable if n[j] >= 2.0]
            warnings.extend(f"cause {j + 1}: single failure; bias-corrected estimate "
                            "degenerates at 0; excluded from cmle rows"
                            for j in usable if n[j] == 1.0)
        if not keep:
            continue
        bayes = bayes or method in _ALPHA_SHAPE_OFFSET
        counts = tuple([n[j] for j in keep])
        # The shared model fits one beta for all causes, on the pooled count and log sum.
        entries = (total[:1], total[1:]) if pooled else (counts, tuple([s[j] for j in keep]))
        beta = _beta_cells(method, *entries, level, convention)
        alpha = _alpha_cells(method, counts, level)
        at = ([0] if pooled else keep) + [p + j for j in keep]
        for j, row in zip(at, map(EstimateRow, [names[j] for j in at], repeat(method),
                                  *map(tuple.__add__, beta, alpha), repeat(level))):
            slots[j * len(methods) + m] = row
    if bayes and convention is PointConvention.MAP:
        if pooled:
            single = ["beta"] if total[0] == 1.0 else []
        else:
            single = [f"cause {j + 1}" for j in usable if n[j] == 1.0]
        warnings.extend(f"{label}: single failure; the MAP beta point is 0 (posterior mode "
                        "at the boundary); use --point mean for the posterior mean"
                        for label in single)
    rows = tuple(filter(None, slots))
    if not rows:
        raise EstimationError("nothing to estimate for the chosen methods: "
                              + "; ".join(warnings))
    return EstimateTable(rows, tuple(warnings))
