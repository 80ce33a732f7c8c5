"""Per-layer metrics of a traced run.

Every metric comes from the spans and counters of the timed ops themselves.
Values are per op on the fit workloads and per replication on the study
workload, unless the name says otherwise.  A layer the workload's ops do not
call (the study never parses a CSV, the fits never run the replication
engine) reads 0 with source "not exercised", so a layer that leaves the path
shows as that switch.
"""
from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys
import time

import workloads
from spans import SpanTable

ESTIMATORS = ("inference.mle_distinct", "inference.cmle", "inference.jeffreys_posterior",
              "inference.reference_posterior", "inference.bayes_points")
STARTUP_PROBES = 5


def startup(root) -> dict:
    """Median interpreter start, numpy import and plpcr import in fresh processes."""
    env = workloads.child_env(root)
    interp, numpy_ms, plpcr_ms = [], [], []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        interp.append((time.perf_counter() - t0) * 1e3)
        numpy_ms.append(_import_ms(env, "numpy"))
        plpcr_ms.append(_import_ms(env, "plpcr"))
    return {"startup.interp_ms": statistics.median(interp),
            "startup.import_numpy_ms": statistics.median(numpy_ms),
            "startup.import_plpcr_ms": statistics.median(plpcr_ms)}


def _import_ms(env, module: str) -> float:
    """Cumulative ``-X importtime`` of one top-level import, in ms."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                          env=env, check=True, capture_output=True, text=True)
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e3
    return math.nan


def per_layer(tracer, wl, log) -> dict:
    is_study = isinstance(wl, workloads.StudyPresets)
    n_ops = len(log.op_ns)
    units = n_ops * log.reps_per_op
    table = SpanTable(tracer)
    out = {}

    def put(name, unit, value, source="path"):
        out[name] = {"value": float(value), "unit": unit, "source": source}

    def not_exercised(name, unit):
        put(name, unit, 0.0, "not exercised")

    for name, value in startup(wl.root).items():
        put(name, "ms", value, "subprocess probe")

    def span_metric(name, unit, span_names, self_time=False, outside=None, calls=False):
        """Total of the named spans per unit."""
        n_calls = table.calls(span_names, outside)
        if not n_calls:
            return not_exercised(name, unit)
        total = n_calls if calls else table.total_us(span_names, outside, self_time)
        put(name, unit, total / units)

    def per_call(name, counter, span_name):
        """A counter per call of `span_name`."""
        calls = table.calls([span_name])
        if not calls:
            return not_exercised(name, "count")
        put(name, "count", table.counters.get(counter, 0.0) / calls)

    span_metric("cli.parse_args_us", "us", ["cli.build_parser", "cli.parse_args"])
    span_metric("cli.render_us", "us", ["cli.render"])
    span_metric("cli.main_self_us", "us", ["cli.main"], self_time=True)
    span_metric("data.parse_history_us", "us", ["data.parse_history"])
    per_call("data.parse_history_rows", "data.parse_history_rows", "data.parse_history")
    span_metric("data.cause_stats_us", "us", ["data.cause_stats"])
    span_metric("inference.build_estimate_table_us", "us", ["inference.build_estimate_table"])
    span_metric("inference.estimators_us", "us", ESTIMATORS, outside="inference.")
    span_metric("inference.wald_interval_us", "us", ["inference.wald_interval"])
    span_metric("inference.wald_interval_calls", "count", ["inference.wald_interval"],
                calls=True)
    span_metric("inference.credible_interval_us", "us", ["inference.credible_interval"])
    span_metric("inference.credible_interval_calls", "count", ["inference.credible_interval"],
                calls=True)
    span_metric("numerics.random_source_us", "us", ["numerics.random_source"])
    span_metric("numerics.gamma_quantile_us", "us", ["numerics.gamma_quantile"], self_time=True)
    span_metric("numerics.gamma_quantile_calls", "count", ["numerics.gamma_quantile"],
                calls=True)
    hits, misses = log.cache_hits_misses
    if hits + misses:
        put("numerics.quantile_cache_hits", "count", hits / units)
        put("numerics.quantile_cache_misses", "count", misses / units)
        put("numerics.quantile_hit_ratio", "ratio", hits / (hits + misses))
    else:
        for name, unit in (("numerics.quantile_cache_hits", "count"),
                           ("numerics.quantile_cache_misses", "count"),
                           ("numerics.quantile_hit_ratio", "ratio")):
            not_exercised(name, unit)
    span_metric("montecarlo.simulate_history_us", "us", ["montecarlo.simulate_history"])
    per_call("montecarlo.events_per_rep", "montecarlo.events", "montecarlo.simulate_history")
    # The engine's own time: run_study and its accumulation chunks, less the
    # public functions they call.
    span_metric("montecarlo.engine_self_us_per_rep", "us",
                ["montecarlo.run_study", "montecarlo.chunk"], self_time=True)
    if is_study:
        # Every op of a preset repeats the same report; one per preset counts.
        reports = [json.loads(t) for t in wl.reference.values()]
        put("montecarlo.discard_ratio", "ratio",
            sum(r["discarded"] for r in reports) / sum(r["replications"] for r in reports))
        put("montecarlo.report_render_us", "us",
            table.total_us(["montecarlo.report_render"]) / n_ops)
        chunks = table.calls(["montecarlo.chunk"])
        if chunks:
            put("montecarlo.chunks", "count", chunks / n_ops)
        else:
            not_exercised("montecarlo.chunks", "count")
        put("montecarlo.pool_speedup", "ratio", wl.pool_speedup(), "check phase, untraced")
    else:
        for name, unit in (("montecarlo.discard_ratio", "ratio"),
                           ("montecarlo.report_render_us", "us"),
                           ("montecarlo.chunks", "count"),
                           ("montecarlo.pool_speedup", "ratio")):
            not_exercised(name, unit)
    return out
