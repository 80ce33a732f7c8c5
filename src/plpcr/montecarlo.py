"""Replication studies: event-history generation and estimator comparison.

One replication draws a history from known true parameters (per-cause Poisson
counts, then times as T * U^(1/beta) with U uniform), fits every requested
method under the distinct-shape model, and scores points by mean relative
error and mean squared error and intervals by coverage.

Determinism contract: replication r always uses the random stream with
stream_index r, partial sums are accumulated over fixed-size chunks of
replications, and chunks are combined in index order.  Worker count therefore
changes wall-clock time only; reports are bit-identical for any parallelism.
"""
from __future__ import annotations

import concurrent.futures
import json
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .data import FailureHistory, FailureRecord, cause_stats
from .errors import DomainError, StudyError, ValidationError
from .inference import ALL_METHODS, Method, fit
from .model import PlpCauseParams, SystemParams
from .numerics import RandomSource, sample_poisson

_CHUNK = 512  # fixed accumulation granularity; part of the determinism contract


@dataclass(frozen=True)
class Scenario:
    """True parameters plus study size, master seed, and interval level."""

    params: SystemParams
    replications: int
    master_seed: int
    level: float = 0.95
    name: str | None = None

    def __post_init__(self) -> None:
        if not (isinstance(self.replications, int) and self.replications >= 1):
            raise DomainError(f"replications must be a positive integer, got {self.replications!r}")
        if not (isinstance(self.master_seed, int) and 0 <= self.master_seed < 2**64):
            raise DomainError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed!r}")
        if not (0.0 < self.level < 1.0):
            raise DomainError(f"level must lie in (0, 1), got {self.level!r}")


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
    if integral and isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, numbers.Integral if integral else numbers.Real):
        kind = "an integer" if integral else "a number"
        raise ValidationError(f"{key} must be {kind}, got {value!r}")
    return int(value) if integral else float(value)


def make_scenario(betas, alphas, T, replications=10_000, seed=42, level=0.95,
                  name=None) -> Scenario:
    """Convenience constructor from parallel beta/alpha sequences; a value of
    the wrong type, or a non-integral replication count or seed, is refused."""
    if len(betas) != len(alphas):
        raise DomainError("beta and alpha sequences must have equal length")
    causes = tuple(PlpCauseParams(_number("beta", b), _number("alpha", a), j)
                   for j, (b, a) in enumerate(zip(betas, alphas), start=1))
    return Scenario(SystemParams(causes, _number("T", T)),
                    _number("replications", replications, integral=True),
                    _number("seed", seed, integral=True), _number("level", level), name)


#: The five study presets exercised throughout the package's reports.
PRESET_SCENARIOS: dict[str, Scenario] = {
    "scenario1": make_scenario((1.5, 1.0), (6.45, 2.75), 5.5, name="scenario1"),
    "scenario2": make_scenario((1.75, 1.25), (26.46, 3.11), 6.5, name="scenario2"),
    "scenario3": make_scenario((1.5, 0.8), (5.59, 14.50), 5.0, name="scenario3"),
    "scenario4": make_scenario((1.6, 0.7), (6.59, 15.12), 5.0, name="scenario4"),
    "scenario5": make_scenario((0.25, 2.0), (8.46, 100.0), 20.0, name="scenario5"),
}


def parse_scenario(text: str, name: str | None = None) -> Scenario:
    """Parse the flat key-value scenario format.

    Keys: ``beta`` and ``alpha`` (bracketed lists), ``T``, and optional
    ``replications``, ``seed``, ``level``.  Lines starting with ``#`` are
    comments.
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
        try:
            values[key] = ast.literal_eval(rhs.strip())
        except (ValueError, SyntaxError):
            raise ValidationError(f"line {line_no}: cannot parse value {rhs.strip()!r}") from None
    missing = [k for k in ("beta", "alpha", "T") if k not in values]
    if missing:
        raise ValidationError(f"scenario file is missing keys: {', '.join(missing)}")
    betas, alphas = values["beta"], values["alpha"]
    if not isinstance(betas, (list, tuple)) or not isinstance(alphas, (list, tuple)):
        raise ValidationError("beta and alpha must be bracketed lists, e.g. beta = [1.5, 1.0]")
    return make_scenario(betas, alphas, values["T"],
                         replications=values.get("replications", 10_000),
                         seed=values.get("seed", 42),
                         level=values.get("level", 0.95),
                         name=name)


def simulate_history(scenario: Scenario, rng: RandomSource) -> FailureHistory:
    """Draw one failure history from the scenario's true parameters.

    Per cause: a Poisson(alpha_j) count, then that many times T * U^(1/beta_j)
    with U uniform on (0, 1); the merged, time-sorted record is returned.
    Empty histories are valid outputs.
    """
    system = scenario.params
    T = system.truncation_time
    all_times: list[np.ndarray] = []
    all_causes: list[np.ndarray] = []
    for cause in system.causes:
        count = sample_poisson(cause.alpha, rng)
        if count == 0:
            continue
        u = rng.uniforms(count)
        all_times.append(T * u ** (1.0 / cause.beta))
        all_causes.append(np.full(count, cause.cause_id, dtype=np.int64))
    if not all_times:
        return FailureHistory((), T, system.num_causes)
    times = np.concatenate(all_times)
    causes = np.concatenate(all_causes)
    order = np.argsort(times)
    records = tuple(FailureRecord(float(t), int(c))
                    for t, c in zip(times[order], causes[order]))
    return FailureHistory(records, T, system.num_causes)


def _parameter_names(system: SystemParams) -> list[str]:
    p = system.num_causes
    return [f"beta_{j}" for j in range(1, p + 1)] + [f"alpha_{j}" for j in range(1, p + 1)]


def _true_vector(system: SystemParams) -> list[float]:
    return [c.beta for c in system.causes] + [c.alpha for c in system.causes]


def _chunk_sums(scenario: Scenario, methods: tuple[Method, ...],
                start: int, stop: int):
    """Accumulate sums of theta_hat/theta, (theta_hat-theta)^2, and coverage
    hits for replications [start, stop), in replication order."""
    counts = np.empty((stop - start, scenario.params.num_causes))
    log_sums = np.empty_like(counts)
    used = discarded = 0
    for r in range(start, stop):
        stats = cause_stats(simulate_history(scenario, RandomSource(scenario.master_seed, r)))
        if min(stats.counts) < 2:
            discarded += 1
            continue
        counts[used], log_sums[used] = stats.counts, stats.log_sums
        used += 1
    truth = np.array(_true_vector(scenario.params))
    rel = np.zeros((len(methods), truth.size))
    sq = np.zeros_like(rel)
    cover = np.zeros_like(rel)
    if used:
        for m, method in enumerate(methods):
            beta, alpha = fit(method, counts[:used], log_sums[:used], scenario.level)
            point = np.hstack((beta.point, alpha.point))
            lo = np.hstack((beta.lo, alpha.lo))
            hi = np.hstack((beta.hi, alpha.hi))
            # Sums run in replication order (cumsum; np.sum may add pairwise),
            # and float_power calls the C pow per element as Python's ** does
            # (numpy's ** 2 multiplies): the reports' bits depend on both.
            rel[m] = np.cumsum(point / truth, axis=0)[-1]
            sq[m] = np.cumsum(np.float_power(point - truth, 2.0), axis=0)[-1]
            cover[m] = np.cumsum((lo <= truth) & (truth <= hi), axis=0)[-1]
    return rel, sq, cover, used, discarded


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_study(scenario: Scenario, methods: tuple[Method, ...] = ALL_METHODS,
              workers: int = 1) -> McReport:
    """Run the full replication study and assemble the report.

    Raises StudyError when every replication was discarded.  Results are a
    pure function of the scenario (including master_seed) and the method set;
    see the module docstring for why worker count cannot change them.  The
    pool gets at most one process per chunk and per usable CPU.
    """
    if not methods:
        raise DomainError("at least one method is required")
    if not (isinstance(workers, int) and workers >= 1):
        raise DomainError(f"workers must be a positive integer, got {workers!r}")
    methods = tuple(methods)
    M = scenario.replications
    chunks = [(start, min(start + _CHUNK, M)) for start in range(0, M, _CHUNK)]
    workers = min(workers, len(chunks), _usable_cpus())
    if workers == 1:
        partials = [_chunk_sums(scenario, methods, a, b) for a, b in chunks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_chunk_sums, scenario, methods, a, b) for a, b in chunks]
            partials = [f.result() for f in futures]
    p = scenario.params.num_causes
    rel = np.zeros((len(methods), 2 * p))
    sq = np.zeros_like(rel)
    cover = np.zeros_like(rel)
    used = 0
    discarded = 0
    for c_rel, c_sq, c_cover, c_used, c_discarded in partials:
        rel += c_rel
        sq += c_sq
        cover += c_cover
        used += c_used
        discarded += c_discarded
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
