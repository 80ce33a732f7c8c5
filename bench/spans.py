"""In-memory spans for traced benchmark runs.

A span has a name, a start, an end, a parent span and the op id it belongs
to.  Spans are appended to flat arrays while the run executes and are written
out once, when the run ends.  Self time is a span's duration minus the
durations of its direct children; calls within one op are single-threaded and
properly nested, so that equals the part of the interval no child covers.

Spans are recorded by wrappers that live in these benchmark files: while a
traced loop runs, each public plpcr function listed in ``BOUNDARIES`` is
replaced, in every ``plpcr`` module that binds it, by a wrapper that opens a
span around the call.  Nothing under ``src/`` is changed, and a layer that an
op no longer calls simply records no spans.
"""
from __future__ import annotations

import argparse
import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_clock = time.perf_counter_ns

# (module, attribute, span name).  Span names are "<layer>.<function>".
BOUNDARIES = (
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "_table_text", "cli.render"),
    ("cli", "_table_csv", "cli.render"),
    ("cli", "_table_json", "cli.render"),
    ("data", "parse_history", "data.parse_history"),
    ("data", "cause_stats", "data.cause_stats"),
    ("inference", "build_estimate_table", "inference.build_estimate_table"),
    ("inference", "mle_distinct", "inference.mle_distinct"),
    ("inference", "cmle", "inference.cmle"),
    ("inference", "jeffreys_posterior", "inference.jeffreys_posterior"),
    ("inference", "reference_posterior", "inference.reference_posterior"),
    ("inference", "bayes_points", "inference.bayes_points"),
    ("inference", "wald_interval", "inference.wald_interval"),
    ("inference", "credible_interval", "inference.credible_interval"),
    ("numerics", "gamma_quantile", "numerics.gamma_quantile"),
    ("numerics", "RandomSource", "numerics.random_source"),
    ("montecarlo", "simulate_history", "montecarlo.simulate_history"),
    ("montecarlo", "run_study", "montecarlo.run_study"),
    # The engine's accumulation chunk: private, but its calls are the chunks
    # a study actually runs.  Renamed or gone, it records no spans.
    ("montecarlo", "_chunk_sums", "montecarlo.chunk"),
)

# Spans whose result carries a size worth counting: name -> counter name.
_RESULT_COUNTERS = {
    "data.parse_history": "data.parse_history_rows",
    "montecarlo.simulate_history": "montecarlo.events",
}


class Tracer:
    """Flat span store; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.ops = 0
        self.counters: dict[str, float] = {}
        self._stack = [-1]

    def code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def new_op(self) -> None:
        """Start a new op id; later spans belong to it."""
        self.ops += 1

    def open(self, code: int) -> int:
        i = len(self.start)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.op.append(self.ops - 1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _clock()
        self._stack.pop()

    def add(self, name: str, dur_ns: int) -> None:
        """Record a span timed elsewhere, such as by the fit-cold client."""
        now = _clock()
        self.name.append(self.code(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.ops - 1)
        self.start.append(now - dur_ns)
        self.end.append(now)

    @contextmanager
    def span(self, name: str):
        i = self.open(self.code(name))
        try:
            yield
        finally:
            self.close(i)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def wrap(self, name: str, fn):
        code = self.code(name)
        counter = _RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(code)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if counter is not None:
                self.count(counter, len(result.records))
            return result

        return traced

    @contextmanager
    def instrument(self):
        """Wrap every boundary function in every loaded plpcr module."""
        import argparse as _argparse

        for mod_name in {b[0] for b in BOUNDARIES}:
            importlib.import_module(f"plpcr.{mod_name}")
        modules = [m for k, m in sys.modules.items() if k == "plpcr" or k.startswith("plpcr.")]
        restore = []
        for mod_name, attr, span_name in BOUNDARIES:
            owner = sys.modules.get(f"plpcr.{mod_name}")
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self.wrap(span_name, original)
            for mod in modules:
                for key in [k for k, v in vars(mod).items() if v is original]:
                    setattr(mod, key, wrapper)
                    restore.append((mod, key, original))
        parse_args = _argparse.ArgumentParser.parse_args
        _argparse.ArgumentParser.parse_args = self.wrap("cli.parse_args", parse_args)
        try:
            yield
        finally:
            _argparse.ArgumentParser.parse_args = parse_args
            for mod, key, original in restore:
                setattr(mod, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        op = np.frombuffer(self.op, dtype=np.int32)
        dur = (end - start).astype(np.float64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        return {"name": np.frombuffer(self.name, dtype=np.int32), "start": start, "end": end,
                "parent": parent, "op": op, "dur_ns": dur, "self_ns": dur - child}

    def write(self, path: Path) -> None:
        """Write every span to a compressed npz.

        Fields: ``name`` (index into ``names``), ``dur`` (ns), and, delta
        encoded so that they compress, ``start_delta`` (ns since the previous
        span's start), ``parent_back`` (own index minus the parent's, 0 for
        a root) and ``op_delta`` (op id minus the previous span's).
        """
        a = self.arrays()
        index = np.arange(a["parent"].size, dtype=np.int64)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names),
            name=a["name"].astype(np.int16), dur=a["end"] - a["start"],
            start_delta=np.diff(a["start"], prepend=a["start"][:1]),
            parent_back=np.where(a["parent"] >= 0, index - a["parent"], 0),
            op_delta=np.diff(a["op"], prepend=0))


class SpanTable:
    """Queries over a finished tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        arrays = tracer.arrays()
        self._names = tracer.names
        self._name = arrays["name"]
        self._parent_name = np.where(arrays["parent"] >= 0, self._name[arrays["parent"]], -1)
        self.dur_ns = arrays["dur_ns"]
        self.self_ns = arrays["self_ns"]
        self.counters = tracer.counters

    def _codes(self, predicate) -> list[int]:
        return [code for code, name in enumerate(self._names) if predicate(name)]

    def _select(self, names, entered_from_outside: str | None = None) -> np.ndarray:
        mask = np.isin(self._name, self._codes(lambda n: n in names))
        if entered_from_outside is not None:
            inside = self._codes(lambda n: n.startswith(entered_from_outside))
            mask &= ~np.isin(self._parent_name, inside)
        return mask

    def calls(self, names, entered_from_outside: str | None = None) -> int:
        return int(self._select(names, entered_from_outside).sum())

    def total_us(self, names, entered_from_outside: str | None = None, self_time=False) -> float:
        values = self.self_ns if self_time else self.dur_ns
        return float(values[self._select(names, entered_from_outside)].sum()) / 1e3


if __name__ == "__main__":
    # Print per-name span counts and total self time from a written trace.
    parser = argparse.ArgumentParser(description="summarize a trace written by run.py")
    parser.add_argument("trace", type=Path)
    ns = parser.parse_args()
    data = np.load(ns.trace)
    for code, name in enumerate(data["names"]):
        sel = data["name"] == code
        print(f"{name:36s} spans={int(sel.sum()):9d} total_ms={data['dur'][sel].sum() / 1e6:12.3f}")
