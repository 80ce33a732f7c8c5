"""Estimators for competing-risk power-law processes.

Four methods share one sufficient-statistics input (CauseStats):

* ``mle`` - closed-form maximum likelihood, beta_j = n_j / S_j, alpha_j = n_j;
* ``cmle`` - the bias-corrected point ((n_j - 1) / n_j) * beta_j with Wald
  intervals rebuilt around it;
* ``jeffreys`` / ``reference`` - closed-form objective-Bayes posteriors.  Both
  are products of independent gamma laws; they share the beta marginals
  Gamma(n_j, n_j / beta_hat_j) and differ only in the alpha shapes
  (n_j + 1 for Jeffreys, n_j + 1/2 for the overall-reference prior).

The gamma MAP of the shared beta marginal reproduces the bias-corrected point
exactly, so the Bayes and CMLE point estimates coincide for beta; for alpha
all methods use the unbiased count n_j.  Under the shared-shape model the
Jeffreys posterior has no closed form and is refused explicitly.

Each rule is decided once: ``Method`` names the two priors, whose only
difference is the alpha shape offset in ``_ALPHA_SHAPE_OFFSET``, and every
public entry accepts a ``Model``, ``Method`` or ``PointConvention`` member or
its value, refusing any other value with a DomainError.  Every cell of an
estimate table or a replication study comes from the same two elementwise
cell builders over arrays of counts and log sums: a study reaches them
through the kernel ``fit``, a table directly, with the pooled beta of the
shared-shape model as a one-element array.  The estimator functions are
their reference implementations.
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
)
from .model import SystemParams
from .numerics import GammaParams, _std_gamma_quantile, gamma_quantile, normal_quantile


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
class MlEstimates:
    """Point estimates per cause; beta has one entry per cause, or a single
    pooled entry under the shared-shape model."""

    model: Model
    beta: tuple[float, ...]
    alpha: tuple[float, ...]


@dataclass(frozen=True)
class PosteriorSpec:
    """Closed-form posterior: independent gamma laws, one per parameter."""

    method: Method
    model: Model
    beta_laws: tuple[GammaParams, ...]
    alpha_laws: tuple[GammaParams, ...]
    counts: tuple[int, ...]

    def law_for(self, parameter: str) -> GammaParams:
        kind, index = _resolve_parameter(parameter, len(self.alpha_laws),
                                         pooled_beta=self.model is Model.SHARED)
        if kind == "beta":
            return self.beta_laws[0 if self.model is Model.SHARED else index - 1]
        return self.alpha_laws[index - 1]


@dataclass(frozen=True)
class BayesPoints:
    """Bayes point estimates; beta_degenerate flags causes where the
    posterior mode sits at 0 (gamma shape <= 1, i.e. a single failure)."""

    convention: PointConvention
    beta: tuple[float, ...]
    alpha: tuple[float, ...]
    beta_degenerate: tuple[bool, ...]


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


def _check_level(level: float) -> None:
    if not (isinstance(level, (int, float)) and 0.0 < level < 1.0):
        raise DomainError(f"level must lie in (0, 1), got {level!r}")


def _resolve_parameter(parameter: str, p: int, *, pooled_beta: bool) -> tuple[str, int]:
    """Turn 'beta_2' / 'alpha_1' / pooled 'beta' into (kind, cause index)."""
    name = parameter.strip().lower()
    if pooled_beta and name == "beta":
        return "beta", 0
    for kind in ("beta", "alpha"):
        prefix = kind + "_"
        if name.startswith(prefix):
            try:
                index = int(name[len(prefix):])
            except ValueError:
                break
            if not 1 <= index <= p:
                raise DomainError(f"parameter {parameter!r} indexes a cause outside 1..{p}")
            if kind == "beta" and pooled_beta:
                raise DomainError("the shared-shape model has a single pooled 'beta'")
            return kind, index
    raise DomainError(f"unknown parameter name {parameter!r}")


def _require_counts(stats: CauseStats, minimum: int, what: str) -> None:
    bad = [j + 1 for j, n in enumerate(stats.counts) if n < minimum]
    if bad:
        plural = "s" if len(bad) > 1 else ""
        raise EstimationError(
            f"{what} requires at least {minimum} failure(s) per cause; "
            f"cause{plural} {', '.join(map(str, bad))} fall short")


def _require_log_sums(stats: CauseStats) -> None:
    # cause_stats always gives a positive finite S_j when n_j >= 1; a
    # hand-built CauseStats may not.
    bad = [j + 1 for j, (n, s) in enumerate(zip(stats.counts, stats.log_sums))
           if n >= 1 and not 0.0 < s < math.inf]
    if bad:
        raise DomainError(f"log sums must be positive and finite for causes with failures; "
                          f"got {stats.log_sums!r}, bad at cause(s) {', '.join(map(str, bad))}")


def mle_distinct(stats: CauseStats) -> MlEstimates:
    """Per-cause MLEs beta_j = n_j / S_j, alpha_j = n_j.

    Exists only when every cause has at least one failure.
    """
    _require_counts(stats, 1, "the distinct-shape MLE")
    _require_log_sums(stats)
    beta = tuple(n / s for n, s in zip(stats.counts, stats.log_sums))
    alpha = tuple(float(n) for n in stats.counts)
    return MlEstimates(Model.DISTINCT, beta, alpha)


def mle_shared_shape(stats: CauseStats) -> MlEstimates:
    """Pooled-shape MLE beta = n / S with per-cause alpha_j = n_j (0 for a
    cause without failures)."""
    if stats.n == 0:
        raise EstimationError("the shared-shape MLE requires at least one failure")
    _require_log_sums(stats)
    beta = stats.n / stats.log_sum_total
    alpha = tuple(float(n) for n in stats.counts)
    return MlEstimates(Model.SHARED, (beta,), alpha)


def cmle(stats: CauseStats, model: Model = Model.DISTINCT) -> MlEstimates:
    """Bias-corrected MLE: beta scaled by (n - 1) / n, alpha unchanged at n_j.

    The correction makes the beta estimator conditionally unbiased given the
    counts; it degenerates to 0 at a single failure, hence the n >= 2 floor.
    """
    model = _as(Model, model)
    if model is Model.DISTINCT:
        _require_counts(stats, 2, "the bias-corrected MLE")
        base = mle_distinct(stats)
        # (n - 1) / S rather than ((n - 1) / n) * (n / S): same estimator, and
        # bit-identical to the gamma posterior mode it coincides with.
        beta = tuple((n - 1) / s for n, s in zip(stats.counts, stats.log_sums))
    else:
        if stats.n < 2:
            raise EstimationError("the pooled bias-corrected MLE requires at least 2 failures")
        base = mle_shared_shape(stats)
        beta = ((stats.n - 1) / stats.log_sum_total,)
    return MlEstimates(model, beta, base.alpha)


def _posterior(method: Method, stats: CauseStats, model) -> PosteriorSpec:
    """The closed-form posterior of a Bayes method; see reference_posterior."""
    model = _as(Model, model)
    if method is Method.JEFFREYS and model is Model.SHARED:
        raise UnsupportedModelError(
            "the shared-shape Jeffreys posterior has no closed form; "
            "use the reference posterior for pooled-shape inference")
    bad = [j + 1 for j, n in enumerate(stats.counts) if n < 1]
    if bad:
        name = "Jeffreys" if method is Method.JEFFREYS else "reference"
        raise ImproperPosteriorError(
            f"the {name} posterior is improper: no failures for cause(s) "
            f"{', '.join(map(str, bad))}")
    # Gamma(n_j, n_j / beta_hat_j); the rate n_j / beta_hat_j is exactly S_j.
    if model is Model.SHARED:
        beta_laws = (GammaParams(float(stats.n), stats.log_sum_total),)
    else:
        beta_laws = tuple(GammaParams(float(n), s) for n, s in zip(stats.counts, stats.log_sums))
    offset = _ALPHA_SHAPE_OFFSET[method]
    alpha_laws = tuple(GammaParams(n + offset, 1.0) for n in stats.counts)
    return PosteriorSpec(method, model, beta_laws, alpha_laws, stats.counts)


def reference_posterior(stats: CauseStats, model: Model = Model.DISTINCT) -> PosteriorSpec:
    """Posterior under the overall reference prior.

    A product of independent gamma laws: Gamma(n_j, n_j / beta_hat_j) for each
    beta (pooled to Gamma(n, n / beta_hat) under the shared-shape model) and
    Gamma(n_j + 1/2, 1) for each alpha.  Proper whenever every cause has at
    least one failure.
    """
    return _posterior(Method.REFERENCE, stats, model)


def jeffreys_posterior(stats: CauseStats, model: Model = Model.DISTINCT) -> PosteriorSpec:
    """Posterior under the Jeffreys prior (distinct-shape model only).

    Shares the beta marginals with the reference posterior; the alpha laws are
    Gamma(n_j + 1, 1).  Under a shared shape the Jeffreys posterior is not a
    product of gamma laws, so that request is refused rather than approximated.
    """
    return _posterior(Method.JEFFREYS, stats, model)


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
    laws = []
    for j, n in enumerate(counts, start=1):
        if not (isinstance(n, int) and n >= 1):
            raise ImproperPosteriorError(f"cause {j}: count must be an integer >= 1, got {n!r}")
        laws.append(GammaParams(n + offset, 1.0))
    return tuple(laws)


def bayes_points(post: PosteriorSpec,
                 convention: PointConvention = PointConvention.MAP) -> BayesPoints:
    """Bayes point estimates from a closed-form posterior.

    beta uses the posterior mode (default) or mean of its gamma marginal; the
    mode is ((n_j - 1) / n_j) * beta_hat_j and hits 0 when n_j = 1, which is
    reported via the degeneracy flags.  alpha always uses the unbiased count
    n_j, which sits between the posterior mode and mean.
    """
    convention = _as(PointConvention, convention)
    if convention is PointConvention.MAP:
        beta = tuple(law.mode for law in post.beta_laws)
        degenerate = tuple(law.shape <= 1.0 for law in post.beta_laws)
    else:
        beta = tuple(law.mean for law in post.beta_laws)
        degenerate = tuple(False for _ in post.beta_laws)
    alpha = tuple(float(n) for n in post.counts)
    return BayesPoints(convention, beta, alpha, degenerate)


def credible_interval(post: PosteriorSpec, parameter: str, level: float) -> tuple[float, float]:
    """Equal-tail credible interval for one parameter of a posterior."""
    _check_level(level)
    law = post.law_for(parameter)
    lo = gamma_quantile(law, (1.0 - level) / 2.0)
    hi = gamma_quantile(law, (1.0 + level) / 2.0)
    return lo, hi


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


def _beta_cells(method: Method, n: np.ndarray, s: np.ndarray, level: float,
                convention: PointConvention) -> Cells:
    if not (n.shape == s.shape and np.all((n >= 1.0) & (n < math.inf) & (n == np.floor(n)))
            and np.all((s > 0.0) & (s < math.inf))):
        raise DomainError("beta cells need integral finite counts >= 1 and positive finite "
                          f"log sums of one shape, got counts {n.tolist()!r} and log sums "
                          f"{s.tolist()!r}")
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
    _check_level(level)
    try:
        n, s = np.asarray(counts, dtype=float), np.asarray(log_sums, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"counts and log sums must be numeric, got {counts!r} "
                          f"and {log_sums!r}") from None
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
    methods = tuple(_as(Method, m) for m in methods)
    model, convention = _as(Model, model), _as(PointConvention, convention)
    _check_level(level)
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
