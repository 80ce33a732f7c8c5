"""Replication studies: estimator comparison over simulated sufficient statistics.

A study's true parameters give each failure cause a shape beta and an
expected count alpha over the observation window (0, T], that is the
intensity (beta * alpha / T) * (t / T)^(beta - 1); this (beta, alpha) pair is
the only parameterization the package uses.  Every estimator depends on a
history only through the per-cause counts n_j and log sums
S_j = sum log(T/t).  Given n_j, the unit-rate gamma G_j = beta_j * S_j is
Gamma(n_j, 1), the exact law of the scaled log sum under the time-truncated
power-law process (the chi-square pivot of Crow 1974).  Replications with
some n_j < 2 are discarded.  No event history is built; the tests check the
sampler against one that is.

Every cell is a function of G and the count alone, beta entering only as the
scale of the squared error.  A beta point is c_n / S_j, with c_n the method's
point at unit log sum, so its relative error is c_n / G_j, and its interval
covers beta exactly when lo_n <= G_j <= hi_n; alpha cells depend on the
counts alone.  No cell reads how the causes of one replication pair up, so a
block of replications is drawn as per-(cause, count) tables, not as rows.
The counts are Poisson(alpha_j) and independent across causes, so the kept
count is Binomial(size, prod_j P(n_j >= 2)), and, given it, each cause's
row counts k_n are Multinomial(kept, the Poisson pmf truncated to n >= 2);
the gammas are then drawn in one contiguous slice per count.  Per table
entry, W_n = sum 1/G and the centred V_n = sum (1/G - W_n/k_n)^2 reduce a
slice each.  Per method, sum rel = sum_n c_n W_n and sum sq = beta^2 sum_n
[c_n^2 V_n + k_n (c_n W_n/k_n - 1)^2]; alpha points and hits are taken per
count and weighted by k_n, and beta hits compare each slice with lo_n and
hi_n.  Each beta family and each alpha family (``inference._FAMILY``) is
fitted once per block, at the block's distinct counts and unit log sums.

The truncated pmf is built once per study, over the counts whose tails each
hold more than 2^-60 of the mass.  A cause whose search span for those
counts would be wider than a block (alpha above about 7.44e6) draws its kept
counts from Poisson(alpha_j) instead, redrawing each count below 2, and
tables them; every later step is shared.

Determinism contract: replications are drawn in blocks of a fixed 65,536,
block b from the random stream keyed by (master_seed, b).  Within a block
the draws come in a fixed order: the kept count; each cause's table (or
its row counts), in cause order; then every gamma in one call, cause by
cause and each cause's counts in ascending order.  Each table entry adds
its slice with np.add.reduceat, and each report cell adds a cause's table
entries in ascending order of the count; block sums are added in block
order.  A report is therefore a pure function of the scenario and the
method set; there is one execution path, whatever the worker count.
"""
from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (DomainError, StudyError, ValidationError, check_real, check_sequence,
                     check_whole)
from .inference import (_FAMILY, ALL_METHODS, Method, PointConvention, _alpha_cells,
                        _as_methods, _beta_cells, _parameter_names)
from .numerics import _reg_gamma_p

_BLOCK = 65_536  # replications per random stream; part of the determinism contract


class PlpCauseParams(namedtuple("PlpCauseParams", "beta alpha")):
    """Parameters of one cause: shape beta, expected count alpha on (0, T]."""

    __slots__ = ()

    def __new__(cls, beta: float, alpha: float):
        self = super().__new__(cls, beta, alpha)
        check_real(self.beta, "beta")
        check_real(self.alpha, "alpha")
        return self

    # _replace builds through _make; this runs both through __new__'s checks.
    _make = classmethod(lambda cls, fields: cls(*fields))


class SystemParams(namedtuple("SystemParams", "causes truncation_time")):
    """A series system of causes observed on (0, truncation_time]; cause j is
    the j-th entry of `causes`."""

    __slots__ = ()

    def __new__(cls, causes: tuple[PlpCauseParams, ...], truncation_time: float):
        self = super().__new__(cls, causes, truncation_time)
        if len(check_sequence(self.causes, "causes")) < 1:
            raise DomainError("a system needs at least one cause")
        for j, cause in enumerate(self.causes, start=1):
            if not isinstance(cause, PlpCauseParams):
                raise DomainError(f"cause {j} must be a PlpCauseParams, got {type(cause).__name__}")
        check_real(self.truncation_time, "truncation_time")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def num_causes(self) -> int:
        return len(self.causes)


@dataclass(frozen=True)
class Scenario:
    """True parameters plus study size, master seed, and interval level."""

    params: SystemParams
    replications: int
    master_seed: int
    level: float = 0.95
    name: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.params, SystemParams):
            raise DomainError(f"params must be a SystemParams, got {type(self.params).__name__}")
        check_whole(self.replications, "replications")
        check_whole(self.master_seed, "master_seed", low=0, high=2**64 - 1)
        check_real(self.level, "level", high=1.0)
        if self.name is not None and not isinstance(self.name, str):
            raise DomainError(f"name must be a str or None, got {type(self.name).__name__}")


@dataclass(frozen=True)
class McRow:
    parameter: str
    method: Method
    mre: float
    mse: float
    cp: float


@dataclass(frozen=True)
class McReport:
    """Study results: one row per parameter and method, plus usage counters.

    Replications where any cause has fewer than two failures are discarded
    from every method's accumulators alike, keeping the comparison paired;
    the discard count is reported rather than hidden.
    """

    scenario_name: str
    master_seed: int
    replications: int
    replications_used: int
    replications_discarded: int
    level: float
    true_values: tuple[tuple[str, float], ...]
    rows: tuple[McRow, ...]

    def to_csv(self) -> str:
        lines = [
            f"# scenario={self.scenario_name}",
            f"# seed={self.master_seed}",
            f"# replications={self.replications}",
            f"# used={self.replications_used}",
            f"# discarded={self.replications_discarded}",
            f"# level={self.level!r}",
            "# true: " + " ".join(f"{k}={v!r}" for k, v in self.true_values),
            "parameter,method,mre,mse,cp",
        ]
        lines.extend(f"{r.parameter},{r.method.value},{r.mre!r},{r.mse!r},{r.cp!r}"
                     for r in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        import json  # here, not at load: a csv report does without it

        payload = {
            "scenario": self.scenario_name,
            "seed": self.master_seed,
            "replications": self.replications,
            "used": self.replications_used,
            "discarded": self.replications_discarded,
            "level": self.level,
            "true": {k: v for k, v in self.true_values},
            "rows": [
                {"parameter": r.parameter, "method": r.method.value,
                 "mre": r.mre, "mse": r.mse, "cp": r.cp}
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    def row(self, parameter: str, method: Method) -> McRow:
        for r in self.rows:
            if r.parameter == parameter and r.method == method:
                return r
        raise KeyError(f"no row for ({parameter}, {method})")


def _number(key: str, value, integral: bool = False):
    # Integral floats such as 1e4 pass as whole numbers; 3.7 is refused, not truncated.
    if integral:
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        return check_whole(value, key, low=0)
    return float(check_real(value, key))


def make_scenario(betas, alphas, T, replications=10_000, seed=42, level=0.95,
                  name=None) -> Scenario:
    """Convenience constructor from parallel beta/alpha sequences.  Every
    fault, of type or of domain, is a ValidationError."""
    try:
        check_sequence(betas, "beta")
        if len(check_sequence(alphas, "alpha")) != len(betas):
            raise ValidationError(f"alpha must be as long as beta, got {len(alphas)} "
                                  f"and {len(betas)} entries")
        causes = tuple(PlpCauseParams(_number("beta", b), _number("alpha", a))
                       for b, a in zip(betas, alphas))
        return Scenario(SystemParams(causes, _number("T", T)),
                        _number("replications", replications, integral=True),
                        _number("seed", seed, integral=True), _number("level", level), name)
    except DomainError as exc:
        raise ValidationError(str(exc)) from None


#: The five study presets exercised throughout the package's reports.
PRESET_SCENARIOS: dict[str, Scenario] = {
    "scenario1": make_scenario((1.5, 1.0), (6.45, 2.75), 5.5, name="scenario1"),
    "scenario2": make_scenario((1.75, 1.25), (26.46, 3.11), 6.5, name="scenario2"),
    "scenario3": make_scenario((1.5, 0.8), (5.59, 14.50), 5.0, name="scenario3"),
    "scenario4": make_scenario((1.6, 0.7), (6.59, 15.12), 5.0, name="scenario4"),
    "scenario5": make_scenario((0.25, 2.0), (8.46, 100.0), 20.0, name="scenario5"),
}


_SCENARIO_KEYS = ("beta", "alpha", "T", "replications", "seed", "level")


def parse_scenario(text: str, name: str | None = None) -> Scenario:
    """Parse the flat key-value scenario format.

    Keys: ``beta`` and ``alpha`` (bracketed lists), ``T``, and optional
    ``replications``, ``seed``, ``level``; any other key is refused.  Lines
    starting with ``#`` are comments.
    """
    import ast

    values: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, _, rhs = line.partition("=")
        key = key.strip()
        if key not in _SCENARIO_KEYS:
            raise ValidationError(f"line {line_no}: unknown key {key!r}; expected one of "
                                  f"{', '.join(_SCENARIO_KEYS)}")
        if key in values:
            raise ValidationError(f"line {line_no}: duplicate key {key!r}")
        try:
            values[key] = ast.literal_eval(rhs.strip())
        except (ValueError, SyntaxError, TypeError, RecursionError, MemoryError):
            # TypeError: an unhashable set member or dict key such as {[]: 1};
            # RecursionError: deep nesting such as 3,000 unary minus signs.
            raise ValidationError(f"line {line_no}: cannot parse value {rhs.strip()!r}") from None
    missing = [k for k in ("beta", "alpha", "T") if k not in values]
    if missing:
        raise ValidationError(f"scenario file is missing keys: {', '.join(missing)}")
    return make_scenario(values["beta"], values["alpha"], values["T"],
                         replications=values.get("replications", 10_000),
                         seed=values.get("seed", 42),
                         level=values.get("level", 0.95),
                         name=name)


def _true_vector(system: SystemParams) -> list[float]:
    return [c.beta for c in system.causes] + [c.alpha for c in system.causes]


_TAIL = 2.0 ** -60  # mass a count window may leave out on either side


def _count_window(alpha: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The law of a Poisson(alpha) count given that it is at least 2, as a
    (grid, pmf) pair over the ascending counts whose lower and upper tails
    each hold more than 2^-60 of the mass; None for a cause whose search span,
    max(2, floor(alpha) - h) .. floor(alpha) + h with h = 12 sqrt(alpha) + 40,
    is wider than a block.  The span holds every count outside those tails.

    The pmf is built relative to the span's first count, as running products
    of the ratios p(n)/p(n - 1) = alpha/n: no term underflows to a wrong value
    at a tiny alpha, and none cancels at a huge one.
    """
    half = math.ceil(12.0 * math.sqrt(alpha)) + 40
    low, high = max(2, math.floor(alpha) - half), math.floor(alpha) + half
    if high - low >= _BLOCK:
        return None
    span = np.arange(low, high + 1)
    pmf = alpha / span
    pmf[0] = 1.0
    np.multiply.accumulate(pmf, out=pmf)
    tail = _TAIL * pmf.sum()
    first = np.add.accumulate(pmf).searchsorted(tail, "right")
    stop = pmf.size - np.add.accumulate(pmf[::-1]).searchsorted(tail, "right")
    pmf = pmf[first:stop]
    return span[first:stop], pmf / pmf.sum()


def _count_laws(scenario: Scenario) -> tuple[float, list]:
    """P(every n_j >= 2), and each cause's `_count_window`: the laws a block
    draws from, built once per study.  P(n >= 2) is the regularized gamma
    P(2, alpha), which keeps its digits where 1 - e^-alpha (1 + alpha) cancels."""
    alphas = [c.alpha for c in scenario.params.causes]
    return math.prod(_reg_gamma_p(2.0, a) for a in alphas), list(map(_count_window, alphas))


def _draw_block(scenario: Scenario, laws: tuple[float, list], block: int, size: int):
    """Per-(cause, count) tables of `size` replications drawn from one stream.

    The draws, in this order: the kept count, Binomial(size, P(every
    n_j >= 2)); per cause, in cause order, how many kept replications have
    each count, Multinomial(kept, the count window's pmf); then, in one call,
    the unit-rate gammas G = beta_j * S_j ~ Gamma(n, 1), cause by cause and
    each cause's counts in ascending order.  A cause without a count window
    draws its kept counts from Poisson(alpha_j), each count below 2 redrawn.
    Returns per cause the counts present and their replication counts, the
    gammas shaped (causes, kept), each row in contiguous slices, one per
    count, and the discard count.
    """
    key = np.array([scenario.master_seed, block], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    keep, windows = laws
    kept = int(gen.binomial(size, keep))
    counts, sizes = [], []
    for cause, window in zip(scenario.params.causes, windows):
        if window is None:
            try:
                n = gen.poisson(cause.alpha, kept)
            except ValueError as exc:  # a mean past numpy's Poisson range, about 9.2e18
                raise DomainError(f"alpha = {[c.alpha for c in scenario.params.causes]} is "
                                  f"beyond the Poisson sampler's range ({exc})") from None
            while (low := n < 2).any():
                n[low] = gen.poisson(cause.alpha, np.count_nonzero(low))
            grid, k = np.unique(n, return_counts=True)
        else:
            k = gen.multinomial(kept, window[1])
            grid, k = window[0][k > 0], k[k > 0]
        counts.append(grid)
        sizes.append(k)
    gammas = gen.standard_gamma(np.repeat(np.concatenate(counts), np.concatenate(sizes)))
    return counts, sizes, gammas.reshape(len(counts), kept), size - kept


def _stack(cells: list, g: int) -> np.ndarray:
    """The (point, lo, hi) cells of each fitted family, shaped (3, families, g)."""
    return np.fromiter(chain.from_iterable(f for c in cells for f in (c.point, c.lo, c.hi)),
                       float, 3 * g * len(cells)).reshape(len(cells), 3, g).transpose(1, 0, 2)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """x added left to right along its last axis, in place."""
    return np.add.accumulate(x, axis=-1, out=x)[..., -1]


def _block_sums(scenario: Scenario, methods: tuple[Method, ...], counts: list,
                sizes: list, gammas: np.ndarray) -> np.ndarray:
    """Sums over rows of theta_hat/theta, (theta_hat - theta)^2 and coverage hits,
    shaped (3, methods, parameters), from `_draw_block`'s tables (see the module
    docstring).  Each table entry reduces its count's slice with np.add.reduceat,
    and each sum adds a cause's table entries in ascending order of the count."""
    p, truth = scenario.params.num_causes, np.array(_true_vector(scenario.params))
    sums = np.zeros((3, len(methods), 2 * p))
    if not gammas.size:  # every replication of the block was discarded
        return sums
    with np.errstate(under="raise"):  # beta^2 scales the beta MSE; 0 would hide it
        scale = truth[:p] * truth[:p]
    alphas = truth[p:, None]
    n, rows = np.concatenate(counts), np.concatenate(sizes)
    starts = rows.cumsum() - rows  # each count's slice of the flattened gammas
    flat = gammas.ravel()
    inv = 1.0 / flat
    w = np.add.reduceat(inv, starts)
    mean = w / rows
    v = np.add.reduceat(np.square(inv - np.repeat(mean, rows)), starts)
    # Dense (cause, distinct count) tables, 0 where a cause lacks a count.  The
    # distinct counts are few; Python sorts them without paging in numpy's sorts.
    grid = sorted(set(n.tolist()))
    g = len(grid)
    at = np.searchsorted(grid, n)
    table = np.zeros((4, p * g))
    table[:, at + g * np.repeat(np.arange(p), list(map(len, counts)))] = rows, w, mean, v
    k, w, mean, v = table.reshape(4, p, g)
    # Each beta and alpha family of the methods, fitted once at the distinct
    # counts and unit log sums (whole counts >= 2: valid by construction), and
    # its cells stacked along a leading family axis.
    beta_of, alpha_of = zip(*map(_FAMILY.get, methods))
    beta_fits, alpha_fits = list(dict.fromkeys(beta_of)), list(dict.fromkeys(alpha_of))
    fit_n, unit = tuple(map(float, grid)), (1.0,) * g
    beta = [_beta_cells(f, fit_n, unit, scenario.level, PointConvention.MAP) for f in beta_fits]
    alpha = [_alpha_cells(f, fit_n, scenario.level) for f in alpha_fits]
    c, lo, hi = _stack(beta, g)
    x, alpha_lo, alpha_hi = _stack(alpha, g)[:, :, None]
    c = c[:, None]
    sums[:, :, :p] = np.array([
        _row_sums(c * w), scale * _row_sums(c * c * v + k * (c * mean - 1.0) ** 2),
        # Each count's slice against its interval, every family at once.
        ((lo[:, at].repeat(rows, axis=1) <= flat) & (flat <= hi[:, at].repeat(rows, axis=1))
         ).reshape(len(beta), p, -1).sum(axis=-1),
    ])[:, [beta_fits.index(f) for f in beta_of]]
    sums[:, :, p:] = np.array([
        _row_sums(k * (x / alphas)), _row_sums(k * (x - alphas) ** 2),
        (k * ((alpha_lo <= alphas) & (alphas <= alpha_hi))).sum(axis=-1),
    ])[:, [alpha_fits.index(f) for f in alpha_of]]
    return sums


def run_study(scenario: Scenario, methods: tuple[Method, ...] = ALL_METHODS,
              workers: int = 1) -> McReport:
    """Run the full replication study and assemble the report.

    Raises StudyError when every replication was discarded, and DomainError
    when an alpha is past the Poisson sampler's range or a beta's square, or a
    beta MSE sum, leaves the float64 range (underflow included).  Results are a
    pure function of the scenario (including master_seed) and the method set
    (see the module docstring).  `workers` is validated and has no effect; it
    stays so that existing callers keep working.
    """
    methods = _as_methods(methods)
    check_whole(workers, "workers")
    M = scenario.replications
    p = scenario.params.num_causes
    sums = np.zeros((3, len(methods), 2 * p))
    used = discarded = 0
    laws = _count_laws(scenario)
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for block, start in enumerate(range(0, M, _BLOCK)):
                counts, sizes, gammas, block_discarded = _draw_block(scenario, laws, block,
                                                                     min(_BLOCK, M - start))
                sums += _block_sums(scenario, methods, counts, sizes, gammas)
                used += gammas.shape[1]
                discarded += block_discarded
    except FloatingPointError as exc:  # the draws are scale-free; only beta^2 scales a sum
        raise DomainError(f"beta = {[c.beta for c in scenario.params.causes]} takes the "
                          "squared errors of the beta estimates out of the float64 range "
                          f"({exc})") from None
    if used == 0:
        raise StudyError("every replication was discarded (some cause below 2 failures); "
                         "increase the expected counts or the replication budget")
    names = _parameter_names(p)
    truth = _true_vector(scenario.params)
    rel, sq, cover = (sums / used).tolist()
    rows = tuple(McRow(names[k], method, rel[m][k], sq[m][k], cover[m][k])
                 for k in range(2 * p) for m, method in enumerate(methods))
    return McReport(
        scenario_name=scenario.name or "custom",
        master_seed=scenario.master_seed,
        replications=M,
        replications_used=used,
        replications_discarded=discarded,
        level=scenario.level,
        true_values=tuple(zip(names, truth)),
        rows=rows,
    )
