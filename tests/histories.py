"""Event-level reference simulator for the tests.

The study engine never builds a failure history: it draws the sufficient
statistics (n_j, S_j) directly.  The tests check that sampler, the Duane
slope and the time transform against whole histories drawn here, event by
event, from streams keyed by (seed, index) on numpy's counter-based Philox
generator.
"""
from __future__ import annotations

import numpy as np

from plpcr.data import FailureHistory, FailureRecord


def stream(seed: int, index: int) -> np.random.Generator:
    """The random stream keyed by (seed, index); equal keys replay it."""
    return np.random.Generator(np.random.Philox(key=[seed, index]))


def uniforms(gen: np.random.Generator, n: int) -> np.ndarray:
    """n draws from the open interval (0, 1); exact zeros are redrawn."""
    out = gen.random(n)
    zeros = out == 0.0
    while zeros.any():
        out[zeros] = gen.random(int(zeros.sum()))
        zeros = out == 0.0
    return out


def simulate_history(scenario, gen: np.random.Generator) -> FailureHistory:
    """Draw one failure history from the scenario's true parameters.

    Per cause: a Poisson(alpha_j) count, then that many times T * U^(1/beta_j)
    with U uniform on (0, 1); the merged, time-sorted record is returned.
    Empty histories are valid outputs.
    """
    system = scenario.params
    T = system.truncation_time
    all_times: list[np.ndarray] = []
    all_causes: list[np.ndarray] = []
    for label, cause in enumerate(system.causes, start=1):
        count = int(gen.poisson(cause.alpha))
        if count == 0:
            continue
        u = uniforms(gen, count)
        all_times.append(T * u ** (1.0 / cause.beta))
        all_causes.append(np.full(count, label, dtype=np.int64))
    if not all_times:
        return FailureHistory((), T, system.num_causes)
    times = np.concatenate(all_times)
    causes = np.concatenate(all_causes)
    order = np.argsort(times)
    records = tuple(FailureRecord(float(t), int(c))
                    for t, c in zip(times[order], causes[order]))
    return FailureHistory(records, T, system.num_causes)
