"""plpcr benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload fit-batch --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up the workload several times (the median is
``setup_s``), runs the closed timed loop for ``--seconds``, checks every
output against engine-independent closed forms outside the timed region, and
prints, as its last stdout line, ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the same loop under spans and reports the per-layer metrics.  A full
record with provenance goes to ``bench/out/``.

End-to-end times are reference-speed times (bench/calib.py): each wall time
scaled by a fixed loop's nominal time over its time measured next to it, so
that the drift of a shared machine's speed cancels.  The record keeps the
wall-clock figures too, under ``end_to_end_wall``.

Layers are the package modules numerics, data, inference, montecarlo and
cli, plus startup (the interpreter and imports).  Two modules are left
unmeasured on purpose: model runs on no hot path apart from mu_from_alpha
inside the MLE, and diagnostics has no performance item.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def _fail(message: str) -> int:
    sys.stderr.write(f"bench: {message}\n")
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plpcr" / "__init__.py").is_file():
        return _fail(f"no plpcr sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or not args.seconds > 0:
        return _fail("--seed must be >= 0 and --seconds > 0")

    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    setup_ns, setup_ref_ns = [], []
    for _ in range(workloads.SETUP_REPEATS):
        ref0 = calib.reference_median()
        t0 = time.perf_counter_ns()
        wl.setup()
        setup_ns.append(time.perf_counter_ns() - t0)
        setup_ref_ns.append((ref0 + calib.reference_median()) / 2)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
    log = wl.run(args.seconds, tracer)
    wl.check(log)
    e2e = end_to_end(log.op_ns, log.op_ref_ns, setup_ns, setup_ref_ns, log)
    wall = end_to_end(log.op_ns, None, setup_ns, None, log)
    record = {
        "workload": args.workload, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(wl),
        "setup_s_each": [ns / 1e9 for ns in setup_ns],
        "reference_ms_median": statistics.median(log.op_ref_ns) / 1e6,
        "reference_ms_nominal": calib.NOMINAL_NS / 1e6,
        "end_to_end": e2e,
        "end_to_end_wall": wall,
        "attempted": len(log.op_ns), "failed": len(log.bad_ops),
        "failed_frac": len(log.bad_ops) / max(len(log.op_ns), 1),
        "problems": log.problems[:50],
    }
    if args.trace:
        import layers
        record["per_layer"] = layers.per_layer(tracer, wl, log)
        trace_path = BENCH / "out" / f"trace-{args.workload}.npz"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        metrics = {k: {"value": v["value"], "unit": v["unit"]}
                   for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in e2e.items()}

    out = BENCH / "out" / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for problem in log.problems[:20]:
        sys.stderr.write(f"bench: check failed: {problem}\n")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": not log.bad_ops and len(log.op_ns) > 0,
                      "attempted": len(log.op_ns), "failed": len(log.bad_ops),
                      "metrics": metrics}))
    return 0


def end_to_end(op_ns, op_ref_ns, setup_ns, setup_ref_ns, log) -> dict:
    """The end-to-end metrics; reference-speed times when the reference
    times are given, wall-clock times when they are None."""
    def scaled(ns, ref):
        return ns if ref is None else [t * calib.NOMINAL_NS / r for t, r in zip(ns, ref)]

    ms = [ns / 1e6 for ns in scaled(op_ns, op_ref_ns)]
    setup_s = statistics.median(scaled(setup_ns, setup_ref_ns)) / 1e9
    n = len(ms)
    busy_s = sum(ms) / 1e3
    block = log.tail_block or n
    blocks = [sorted(ms[i:i + block]) for i in range(0, n - block + 1, block)] or [sorted(ms)]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_ms_p50": {"value": statistics.median(ms), "unit": "ms", "samples": n},
        "op_ms_tail": {"value": statistics.median(_tail(b) for b in blocks), "unit": "ms",
                       "samples": n, "block": len(blocks[0]), "blocks": len(blocks),
                       "percentile": 100.0 * (len(blocks[0]) - 10) / len(blocks[0])},
        "ops_per_s": {"value": n / busy_s, "unit": "1/s"},
        "reps_per_s": {"value": n * log.reps_per_op / busy_s, "unit": "1/s",
                       "reps_per_op": log.reps_per_op},
        "peak_rss_mb": {"value": log.peak_rss_mb, "unit": "MB"},
    }


def _tail(ordered: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it; with fewer
    than eleven samples there is none, and the maximum stands in."""
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def provenance(wl) -> dict:
    import numpy
    import plpcr
    src = sorted((ROOT / "src" / "plpcr").glob("*.py"))
    digest = hashlib.sha256()
    for path in src:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "plpcr": plpcr.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "sizes": wl.sizes(),
        "quantile_cache": wl.cache_note,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; source_sha256 identifies the code
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


if __name__ == "__main__":
    raise SystemExit(main())
