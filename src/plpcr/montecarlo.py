"""Replication studies: estimator comparison over simulated sufficient statistics.

Every estimator depends on a history only through the per-cause counts n_j
and log sums S_j = sum log(T/t), so a replication draws those directly: a
Poisson(alpha_j) count per cause and, given it, S_j ~ Gamma(n_j, rate beta_j),
the exact law of the log sum under the time-truncated power-law process
(the chi-square pivot of Crow 1974).  Replications with some n_j < 2 are
discarded.  Each method is fitted once per distinct count in a block of
replications, at unit log sum: given n_j, beta_j * S_j ~ Gamma(n_j, 1), so a
row's beta cells are the cells at its counts scaled by 1/S_j, and its alpha
cells depend on the counts alone.  Points are scored by mean relative error
and mean squared error and intervals by coverage, each distinct cell set once
per block (cmle and map beta points, Bayes beta intervals, every alpha point,
mle and cmle alpha intervals); alpha hits are counted per distinct count.  No
event history is built; the tests check the sampler against one that is.

Determinism contract: replications are drawn in blocks of a fixed 65,536,
block b from the random stream keyed by (master_seed, b).  A block is held
cause-major, and each cause's float sums add its replications in block
order, for every number of causes; block sums are added in block order.  A
report is therefore a pure function of the scenario and the method set;
there is one execution path, whatever the worker count.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import (DomainError, StudyError, ValidationError, check_real, check_sequence,
                     check_whole)
from .inference import ALL_METHODS, Method, PointConvention, _as_methods, _fit
from .model import PlpCauseParams, SystemParams

_BLOCK = 65_536  # replications per random stream; part of the determinism contract


@dataclass(frozen=True)
class Scenario:
    """True parameters plus study size, master seed, and interval level."""

    params: SystemParams
    replications: int
    master_seed: int
    level: float = 0.95
    name: str | None = None

    def __post_init__(self) -> None:
        check_whole(self.replications, "replications")
        check_whole(self.master_seed, "master_seed", low=0, high=2**64 - 1)
        check_real(self.level, "level", high=1.0)


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
        causes = tuple(PlpCauseParams(_number("beta", b), _number("alpha", a), j)
                       for j, (b, a) in enumerate(zip(betas, alphas), start=1))
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


def _parameter_names(system: SystemParams) -> list[str]:
    p = system.num_causes
    return [f"beta_{j}" for j in range(1, p + 1)] + [f"alpha_{j}" for j in range(1, p + 1)]


def _true_vector(system: SystemParams) -> list[float]:
    return [c.beta for c in system.causes] + [c.alpha for c in system.causes]


def _draw_block(scenario: Scenario, block: int, size: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Sufficient statistics of `size` replications drawn from one stream.

    Per replication and cause a Poisson(alpha_j) count n_j; replications with
    some n_j < 2 are discarded; the kept rows then get their log sums
    S_j ~ Gamma(n_j, rate beta_j), which is the law of sum log(T/t) over the
    n_j times T * U^(1/beta_j).  Returns the kept (counts, log sums) rows, one
    column per cause, and the discard count.
    """
    causes = scenario.params.causes
    key = np.array([scenario.master_seed, block], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    alphas = [c.alpha for c in causes]
    try:
        counts = gen.poisson(alphas, (size, len(causes)))
    except ValueError as exc:  # a mean past numpy's Poisson range, about 9.2e18
        raise DomainError(f"alpha = {alphas} is beyond the Poisson sampler's range "
                          f"({exc})") from None
    counts = counts[np.logical_and.reduce([n >= 2 for n in counts.T])]
    # The log sums are stored cause-major and returned as a (rows, causes) view,
    # so that _block_sums reads each cause's column as contiguous memory.
    log_sums = np.empty((len(causes), len(counts)))
    np.divide(gen.standard_gamma(counts).T, np.array([[c.beta] for c in causes]), out=log_sums)
    return counts, log_sums.T, size - len(counts)


def _row_sums(x: np.ndarray) -> np.ndarray:
    """Each row of a (causes, rows) float array added left to right, in place."""
    return np.add.accumulate(x, axis=1, out=x)[:, -1]


def _block_sums(scenario: Scenario, methods: tuple[Method, ...],
                counts: np.ndarray, log_sums: np.ndarray) -> np.ndarray:
    """Sums over rows of theta_hat/theta, (theta_hat - theta)^2 and coverage hits,
    shaped (3, methods, parameters): one fit per distinct count, one reduction per
    distinct point or interval cell set of a family, alpha hits per distinct count.
    The block is held cause-major, and each cause's float sums add its rows in
    block order."""
    p, truth = scenario.params.num_causes, np.array(_true_vector(scenario.params))
    sums = np.zeros((3, len(methods), 2 * p))
    if not len(counts):  # every replication of the block was discarded
        return sums
    grid, index = np.unique(counts.T, return_inverse=True)
    index = index.reshape(p, -1)  # the inverse's shape differs across numpy 2.x
    log_sums = np.ascontiguousarray(log_sums.T)  # a no-op on _draw_block's layout
    mult = np.bincount((index + grid.size * np.arange(p)[:, None]).ravel(),  # rows per
                       minlength=p * grid.size).reshape(p, grid.size)  # (cause, count)
    # Whole counts >= 2 and unit log sums: the kernel's inputs, valid by construction.
    grid, unit = tuple(map(float, grid.tolist())), (1.0,) * grid.size

    @cache  # each distinct cell set of a family is reduced once
    def reduce(beta: bool, *cells):  # a point: (rel, sq) sums; an interval (lo, hi): hits
        theta = (truth[:p] if beta else truth[p:])[:, None]
        if not beta and len(cells) == 2:  # hits per distinct count, times its rows
            lo, hi = np.array(cells)
            return np.sum(mult * ((lo <= theta) & (theta <= hi)), axis=1)
        x = [np.array(c)[index] / log_sums if beta else np.array(c)[index] for c in cells]
        if len(x) == 2:
            return np.sum((x[0] <= theta) & (theta <= x[1]), axis=1)
        return _row_sums(x[0] / theta), _row_sums((x[0] - theta) ** 2)

    for m, method in enumerate(methods):
        beta, alpha = _fit(method, grid, unit, scenario.level, PointConvention.MAP)
        sums[:2, m, :p], sums[:2, m, p:] = reduce(True, beta.point), reduce(False, alpha.point)
        sums[2, m, :p] = reduce(True, beta.lo, beta.hi)
        sums[2, m, p:] = reduce(False, alpha.lo, alpha.hi)
    return sums


def run_study(scenario: Scenario, methods: tuple[Method, ...] = ALL_METHODS,
              workers: int = 1) -> McReport:
    """Run the full replication study and assemble the report.

    Raises StudyError when every replication was discarded, and DomainError
    when an alpha is past the Poisson sampler's range or a beta drives a log
    sum, a beta estimate or its squared error out of the float64 range.  Results are a
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
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for block, start in enumerate(range(0, M, _BLOCK)):
                counts, log_sums, block_discarded = _draw_block(scenario, block,
                                                                min(_BLOCK, M - start))
                sums += _block_sums(scenario, methods, counts, log_sums)
                used += len(counts)
                discarded += block_discarded
    except FloatingPointError as exc:  # only a beta scales the draws' floats
        raise DomainError(f"beta = {[c.beta for c in scenario.params.causes]} takes the "
                          "study's log sums, beta estimates or their squared errors out of "
                          f"the float64 range ({exc})") from None
    rel, sq, cover = sums
    if used == 0:
        raise StudyError("every replication was discarded (some cause below 2 failures); "
                         "increase the expected counts or the replication budget")
    names = _parameter_names(scenario.params)
    truth = _true_vector(scenario.params)
    rows = tuple(
        McRow(names[k], method, float(rel[m, k] / used), float(sq[m, k] / used),
              float(cover[m, k] / used))
        for k in range(2 * p)
        for m, method in enumerate(methods)
    )
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
