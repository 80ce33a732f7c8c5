"""Repeatability report: run the benchmark ten times and summarize.

    python3 bench/repeat.py --first-seed 1000 --out bench/out/repeat.json

Runs ``bench/run.py`` for ``run_seconds`` of BENCHMARK.json on every
workload, ten times, seeds ``--first-seed`` onward, workloads interleaved so
that drift of the machine spreads over all of them.  For every end-to-end
metric it reports the median, the quartiles (``statistics.quantiles(values,
n=4)``) and the spread (q3 - q1) / median, and flags a spread above the
metric's bound in BENCHMARK.json.  It adds one traced run per workload, its
per-layer metrics, and the tracing overhead: the traced run's end-to-end
values against the untraced medians (set-up, which runs before tracing
starts, excepted).  Exits 1 when a spread is flagged.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    record = ROOT / "bench" / "out" / f"record-{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record.read_text(encoding="utf-8"))
    return result


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            "bound": bound, "over_bound": spread > bound}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="repeatability report for bench/run.py")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out" / "repeat.json")
    args = parser.parse_args(argv)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in names}
    for k in range(RUNS):
        for w in names:
            r = run_once(w, args.first_seed + k, seconds, 0)
            runs[w].append(r)
            print(f"{w} seed {args.first_seed + k}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} wall={r['wall_s']:.1f}s "
                  + " ".join(f"{m}={v['value']:.4g}" for m, v in r["metrics"].items()),
                  flush=True)

    report = {"run_seconds": seconds, "runs": RUNS, "first_seed": args.first_seed,
              "provenance": runs[names[0]][0]["record"]["provenance"], "workloads": {}}
    flagged = []
    for w in names:
        entry = {"correct_runs": sum(r["correct"] for r in runs[w]),
                 "failed_frac": [r["failed"] / r["attempted"] for r in runs[w]],
                 "max_wall_s": max(r["wall_s"] for r in runs[w]),
                 "sizes": runs[w][0]["record"]["provenance"]["sizes"],
                 "end_to_end": {}}
        for m in bounds:
            values = [r["metrics"][m]["value"] for r in runs[w]]
            entry["end_to_end"][m] = summarize(values, bounds[m])
            if entry["end_to_end"][m]["over_bound"]:
                flagged.append(f"{w}/{m}")
        # The unscaled wall-clock figures, for reference; they carry the
        # machine's drift and have no bound.
        entry["wall_median"] = {
            m: statistics.median(r["record"]["end_to_end_wall"][m]["value"] for r in runs[w])
            for m in bounds}
        entry["reference_ms_median"] = [r["record"]["reference_ms_median"] for r in runs[w]]
        t = run_once(w, args.first_seed, seconds, 1)
        traced_e2e = t["record"]["end_to_end"]
        entry["traced"] = {
            "correct": t["correct"],
            "per_layer": t["record"]["per_layer"],
            "overhead": {m: traced_e2e[m]["value"] / entry["end_to_end"][m]["median"] - 1.0
                         for m in bounds if m != "setup_s"},
        }
        report["workloads"][w] = entry
    report["over_bound"] = flagged
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for w, entry in report["workloads"].items():
        for m, s in entry["end_to_end"].items():
            print(f"{w:15s} {m:12s} median={s['median']:<12.5g} spread={s['spread']:.4f} "
                  f"bound={s['bound']}{'  OVER' if s['over_bound'] else ''}")
        print(f"{w:15s} tracing overhead: "
              + " ".join(f"{m}={v:+.1%}" for m, v in entry["traced"]["overhead"].items()))
    print(f"report: {args.out}")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
