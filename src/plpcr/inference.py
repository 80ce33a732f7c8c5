"""Estimators for competing-risk power-law processes.

Every estimator depends on the data only through the per-cause counts n_j
and log sums S_j = sum log(T/t), and each has a closed form in them:

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
estimate table or a replication study comes from the same two elementwise
cell builders over arrays of counts and log sums: a study reaches them
through the kernel ``fit``, a table directly, with the pooled beta of the
shared-shape model as a one-element array.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .data import CauseStats, FailureHistory, cause_stats
from .errors import (
    DomainError,
    EstimationError,
    ImproperPosteriorError,
    UnsupportedModelError,
    ValidationError,
    check_real,
    check_sequence,
    check_whole,
)
from .model import SystemParams
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


@dataclass(frozen=True)
class EstimateRow:
    parameter: str
    method: Method
    point: float
    sd: float
    sd_paper_compat: float
    ci_lo: float
    ci_hi: float
    level: float


@dataclass(frozen=True)
class EstimateTable:
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
    """The members that a list or tuple of methods names; a bare string is refused."""
    return tuple(_as(Method, m) for m in check_sequence(methods, "methods"))


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


def log_likelihood(params: SystemParams, history: FailureHistory) -> float:
    """Exact log-likelihood of a parameter vector for one observed history.

    In the (beta, alpha) parameterization this is
    sum_j [n_j log beta_j - beta_j S_j + n_j log alpha_j - alpha_j] minus the
    sum of log failure times; the last term does not involve the parameters
    but keeps values comparable across parameterizations.
    """
    if params.num_causes != history.num_causes:
        raise ValidationError(
            f"parameter vector has {params.num_causes} causes, history has {history.num_causes}")
    if params.truncation_time != history.truncation_time:
        raise ValidationError(
            f"truncation time mismatch: params {params.truncation_time}, "
            f"history {history.truncation_time}")
    stats = cause_stats(history)
    total = 0.0
    for cause, n, s in zip(params.causes, stats.counts, stats.log_sums):
        total += n * math.log(cause.beta) - cause.beta * s
        total += n * math.log(cause.alpha) - cause.alpha
    total -= math.fsum(math.log(r.time) for r in history.records)
    return total


class Cells(NamedTuple):
    """Estimate cells of one parameter family, one entry per input element."""

    point: np.ndarray
    sd: np.ndarray
    sd_paper_compat: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _std_quantiles(shapes: np.ndarray, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Equal-tail quantiles of the unit-rate gammas of `shapes`, one cached
    lookup per element and tail; a study passes one element per distinct count."""
    flat = shapes.ravel().tolist()
    return tuple(np.array([_std_gamma_quantile(a, q) for a in flat]).reshape(shapes.shape)
                 for q in ((1.0 - level) / 2.0, (1.0 + level) / 2.0))


def _wald(point: np.ndarray, sd: np.ndarray, level: float) -> Cells:
    z = normal_quantile((1.0 + level) / 2.0)
    return Cells(point, sd, sd, point - z * sd, point + z * sd)


def _input_fault(n: np.ndarray, s: np.ndarray) -> str | None:
    """What is wrong with the counts and log sums, if anything: their shapes and
    the index and value of the first bad entry, never the whole arrays."""
    if n.shape != s.shape:
        return f"counts of shape {n.shape} and log sums of shape {s.shape} differ in shape"
    for name, values, ok in (("count", n, (n >= 1.0) & (n < math.inf) & (n == np.floor(n))),
                             ("log sum", s, (s > 0.0) & (s < math.inf))):
        if not ok.all():
            at = tuple(int(i) for i in np.unravel_index(np.argmin(ok), ok.shape))
            return ("counts must be whole numbers >= 1 and log sums positive and finite; in "
                    f"arrays of shape {n.shape}, the {name} at index {at} is {values[at].item()!r}")
    return None


def _beta_cells(method: Method, n: np.ndarray, s: np.ndarray, level: float,
                convention: PointConvention) -> Cells:
    fault = _input_fault(n, s)
    if fault:
        raise DomainError(fault)
    if method is Method.MLE or method is Method.CMLE:
        point = (n if method is Method.MLE else n - 1.0) / s
        return _wald(point, point / np.sqrt(n), level)
    # The beta marginal Gamma(n, S); its mode (n - 1) / S is 0 at n = 1.
    point = (n - 1.0 if convention is PointConvention.MAP else n) / s
    sd = np.sqrt(n) / s
    lo, hi = _std_quantiles(n, level)
    return Cells(point, sd, sd, lo / s, hi / s)


def _alpha_cells(method: Method, n: np.ndarray, level: float) -> Cells:
    if method is Method.MLE or method is Method.CMLE:
        return _wald(n, np.sqrt(n), level)
    shape = n + _ALPHA_SHAPE_OFFSET[method]
    return Cells(n, np.sqrt(shape), np.sqrt(n), *_std_quantiles(shape, level))


def fit(method: Method, counts, log_sums, level: float,
        convention: PointConvention = PointConvention.MAP) -> tuple[Cells, Cells]:
    """The fitting kernel: (beta cells, alpha cells) of one method, elementwise
    over equal-shape arrays of counts n >= 1 and positive log sums S.

    mle/cmle: points n/S or (n-1)/S and n, Wald intervals with se point/sqrt(n)
    and sqrt(n), not truncated at 0.  jeffreys/reference: equal-tail credible
    intervals of Gamma(n, S) and Gamma(n + 1 or n + 1/2, 1), the posterior
    mode (map) or mean as the beta point and n as the alpha point.
    """
    method, convention = _as(Method, method), _as(PointConvention, convention)
    check_real(level, "level", high=1.0)
    try:
        n, s = np.asarray(counts, dtype=float), np.asarray(log_sums, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"counts and log sums must be numeric arrays: {exc}") from None
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
    when nothing at all is estimable.
    """
    methods = _as_methods(methods)
    model, convention = _as(Model, model), _as(PointConvention, convention)
    check_real(level, "level", high=1.0)
    if stats.n == 0:
        raise EstimationError("no failures observed")
    pooled = model is Model.SHARED
    if pooled and Method.JEFFREYS in methods and set(methods) != set(ALL_METHODS):
        raise UnsupportedModelError("the shared-shape Jeffreys posterior has no closed form")
    usable = [j for j in range(1, stats.num_causes + 1) if stats.counts[j - 1] >= 1]
    warnings = [f"cause {j}: no failures observed; excluded from estimation"
                for j in range(1, stats.num_causes + 1) if stats.counts[j - 1] == 0]
    cells: dict[tuple[str, Method], tuple[float, ...]] = {}
    for method in methods:
        keep = usable
        if method is Method.JEFFREYS and pooled:
            keep = []
            warnings.append("jeffreys: no closed-form posterior under the shared-shape "
                            "model; rows omitted")
        elif method is Method.CMLE and pooled and stats.n < 2:
            keep = []
            warnings.append("fewer than 2 failures in total; bias-corrected rows omitted")
        elif method is Method.CMLE and not pooled:
            keep = [j for j in usable if stats.counts[j - 1] >= 2]
            warnings.extend(f"cause {j}: single failure; bias-corrected estimate "
                            "degenerates at 0; excluded from cmle rows"
                            for j in usable if j not in keep)
        if not keep:
            continue
        counts = np.array([stats.counts[j - 1] for j in keep], dtype=float)
        if pooled:
            beta_names = ["beta"]
            beta = _beta_cells(method, np.array([float(stats.n)]),
                               np.array([stats.log_sum_total]), level, convention)
        else:
            beta_names = [f"beta_{j}" for j in keep]
            beta = _beta_cells(method, counts, np.array([stats.log_sums[j - 1] for j in keep]),
                               level, convention)
        alpha = _alpha_cells(method, counts, level)
        for family_names, family in ((beta_names, beta), ([f"alpha_{j}" for j in keep], alpha)):
            # tolist() gives Python floats, whose repr the csv rendering relies on.
            for name, row in zip(family_names, zip(*(c.tolist() for c in family))):
                cells[name, method] = row
    if convention is PointConvention.MAP and any(m in _ALPHA_SHAPE_OFFSET for _, m in cells):
        if pooled:
            single = ["beta"] if stats.n == 1 else []
        else:
            single = [f"cause {j}" for j in usable if stats.counts[j - 1] == 1]
        warnings.extend(f"{label}: single failure; the MAP beta point is 0 (posterior mode "
                        "at the boundary); use --point mean for the posterior mean"
                        for label in single)
    names = ["beta"] if pooled else [f"beta_{j}" for j in usable]
    names += [f"alpha_{j}" for j in usable]
    rows = tuple(EstimateRow(name, method, *cells[name, method], level)
                 for name in names for method in methods if (name, method) in cells)
    return EstimateTable(rows, tuple(warnings))
