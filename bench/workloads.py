"""The benchmark's workloads: input generation, set-up, timed loop, checks.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned.  Inputs come from the harness's own numpy
Generator seeded by ``--seed``; plpcr receives only the generated inputs.
Where the cost of an op depends on the shape of its input (rows, causes,
methods), that shape comes from a fixed profile generator, so every seed runs
the same mix of work and differs only in the values.
"""
from __future__ import annotations

import dataclasses
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import calib
import oracle

_clock = time.perf_counter_ns
PROFILE_SEED = 20180417
SETUP_REPEATS = 5


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def fresh_import(root: Path) -> None:
    """Start a fresh interpreter that imports plpcr: the start-up a new
    in-process caller pays, counted in set-up."""
    subprocess.run([sys.executable, "-c", "import plpcr"], env=child_env(root), check=True)


def quantile_cache():
    """The gamma-quantile lru_cache, or None if the package has none."""
    from plpcr import numerics
    fn = getattr(numerics, "_std_gamma_quantile", None)
    return fn if hasattr(fn, "cache_info") else None


def cache_counts() -> tuple[int, int]:
    cache = quantile_cache()
    if cache is None:
        return 0, 0
    info = cache.cache_info()
    return info.hits, info.misses


def clear_quantile_cache() -> None:
    cache = quantile_cache()
    if cache is not None:
        cache.cache_clear()


def call_main(argv: list[str]):
    """Run ``plpcr.cli.main`` in process; returns (ns, rc, stdout, stderr).

    Only the call itself is timed.  An exception that escapes ``main`` is
    what a user would see as a traceback, so it is written to the captured
    stderr as one and checked as a failure.
    """
    from plpcr import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = _clock()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - recorded and checked as a failure
            rc = -1
            err.write(f"Traceback: {type(exc).__name__}: {exc}\n")
        t1 = _clock()
    return t1 - t0, rc, out.getvalue(), err.getvalue()


@dataclasses.dataclass
class RunLog:
    """What the timed loop produced; `bad_ops` fills in during checks."""

    op_ns: list[int] = dataclasses.field(default_factory=list)
    op_key: list = dataclasses.field(default_factory=list)
    # The calibration loop time that scales each op (bench/calib.py).
    op_ref_ns: list[float] = dataclasses.field(default_factory=list)
    calibrator: calib.Calibrator = dataclasses.field(default_factory=calib.Calibrator)
    reps_per_op: int = 1
    # op_ms_tail is taken per block of this many consecutive ops (the median
    # over whole blocks), or over all ops when None.
    tail_block: int | None = None
    bad_ops: set = dataclasses.field(default_factory=set)
    problems: list = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0
    cache_hits_misses: tuple = (0, 0)

    def add(self, ns: int, key) -> None:
        self.op_ns.append(ns)
        self.op_key.append(key)
        self.calibrator.op_done(ns)

    def finish(self) -> None:
        self.calibrator.close_block()
        self.op_ref_ns = self.calibrator.ref_ns

    def fail(self, key, problem: str) -> None:
        self.problems.append(f"{key}: {problem}")
        self.bad_ops.update(i for i, k in enumerate(self.op_key) if k == key)


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op_span(tracer):
    """Root span of one timed op (a no-op when tracing is off)."""
    if tracer is None:
        return nullcontext()
    tracer.new_op()
    return tracer.span("op")


class Workload:
    name = ""
    why = ""
    cache_note = ""

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.out = root / "bench" / "out" / self.name
        self.out.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer) -> RunLog:
        raise NotImplementedError

    def check(self, log: RunLog) -> None:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError


# --------------------------------------------------------------------- fit-cold

class FitCold(Workload):
    # A one-shot `plpcr fit` as a user types it: interpreter start and imports
    # dominate (about 95% of an op), so this is where lazy imports show.  The
    # replication engine is not on this path.
    name = "fit-cold"
    why = "one-shot plpcr fit subprocess; start-up and imports dominate"
    cache_note = "each op is a fresh process, so its quantile cache starts empty"
    VARIANTS = 8

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.argvs = []
        for _ in range(self.VARIANTS):
            argv = ["fit", "--fixtures", "harvester",
                    "--level", str(rng.choice(["0.8", "0.9", "0.95", "0.99"])),
                    "--format", str(rng.choice(["table", "csv", "json"]))]
            if rng.random() < 0.25:
                argv += ["--model", "shared"]
            self.argvs.append(argv)
        self._spawn_loop(seconds=60.0, max_ops=1)

    def _spawn_loop(self, seconds, max_ops=None):
        """Run the closed loop in bench/spawn.py; returns its result dict."""
        job = {"commands": [[sys.executable, "-m", "plpcr", *a] for a in self.argvs],
               "env": child_env(self.root), "out_dir": str(self.out), "seconds": seconds}
        if max_ops is not None:
            job["max_ops"] = max_ops
        job_path, result_path = self.out / "job.json", self.out / "result.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        subprocess.run([sys.executable, str(Path(__file__).with_name("spawn.py")),
                        str(job_path), str(result_path)], check=True)
        return json.loads(result_path.read_text(encoding="utf-8"))

    def run(self, seconds, tracer):
        log = RunLog()
        result = self._spawn_loop(seconds)
        self.n_ops = len(result["ops"])
        for key, ns, _, _, ref in result["ops"]:
            log.op_ns.append(ns)
            log.op_key.append(key)
            log.op_ref_ns.append(ref)
        for i in result["differs"]:
            log.fail(log.op_key[i], "output differs from the first run of the same command")
        self.first = {int(k): tuple(v) for k, v in result["first"].items()}
        log.peak_rss_mb = statistics.median(op[3] for op in result["ops"]) / 1024.0
        if tracer is not None:
            # Each op again in process, under spans, from an empty quantile
            # cache as in the child.  Op spans cover the child's wall time.
            hits = misses = 0
            for key, ns, _, _, _ in result["ops"]:
                tracer.new_op()
                tracer.add("op", ns)
                clear_quantile_cache()
                with tracer.instrument(), tracer.span("cli.main"):
                    call_main(self.argvs[key])
                h, m = cache_counts()
                hits, misses = hits + h, misses + m
            log.cache_hits_misses = (hits, misses)
        return log

    def check(self, log):
        from plpcr.data import harvester_fixture
        history = harvester_fixture()
        rows = [(r.time, r.cause) for r in history.records]
        T, p = history.truncation_time, history.num_causes
        counts, sums = oracle.sufficient_stats(rows, T, p)
        for key, (rc, out, err) in self.first.items():
            argv = self.argvs[key]
            opts = dict(zip(argv[3::2], argv[4::2]))
            model = opts.get("--model", "distinct")
            expected, degenerate = oracle.expected_fit(
                counts, sums, model, oracle.ALL_METHODS, float(opts["--level"]), "map")
            for problem in oracle.check_fit_output(
                    rc, out, err, expected, degenerate,
                    oracle.warning_causes(counts, model, oracle.ALL_METHODS), opts["--format"]):
                log.fail(key, problem)

    def sizes(self):
        return {"subprocess_variants": len(self.argvs), "subprocesses": self.n_ops}


# -------------------------------------------------------------------- fit-batch

_MALFORMED = ("header", "no_header", "time_text", "cause_text", "cause_zero", "order",
              "duplicate", "beyond_T", "negative", "fields", "label")


class FitBatch(Workload):
    # A long-lived caller that fits many datasets through plpcr.cli.main:
    # text ingestion, argument parsing and cold quantile solves on inputs of
    # every shape the fit command accepts, plus a few malformed files.  The
    # replication engine is not on this path, so an engine change should
    # leave it unchanged.
    name = "fit-batch"
    why = "in-process cli fit over many generated CSVs: parsing, argparse, cold quantiles"
    cache_note = ("cleared at the start of the timed run and of every pass over the "
                  "datasets, so each pass solves its quantiles cold")
    DATASETS = 400
    MALFORMED_SHARE = 0.05
    WARMUP_OPS = 16

    def setup(self) -> None:
        fresh_import(self.root)
        self.specs = self._profile()
        rng = np.random.default_rng([self.seed, 2])
        self.datasets = [self._generate(i, spec, rng) for i, spec in enumerate(self.specs)]
        self.order = [int(i) for i in rng.permutation(len(self.datasets))]
        # Warm up on fixed profile entries, so set-up does the same work for
        # every seed.
        valid = [i for i, d in enumerate(self.datasets) if d["malformed"] is None]
        for i in valid[:self.WARMUP_OPS]:
            call_main(self.datasets[i]["argv"])
        clear_quantile_cache()

    def _profile(self):
        prof = np.random.default_rng(PROFILE_SEED)
        n = self.DATASETS
        totals = prof.permutation(np.rint(np.geomspace(2, 1000, n)).astype(int))
        specs = []
        for i in range(n):
            p = 1 + i % 4
            total = int(totals[i])
            special = str(prof.choice(["none", "zero", "one"], p=[0.8, 0.1, 0.1])) if p > 1 \
                else ("one" if prof.random() < 0.05 else "none")
            model = "shared" if prof.random() < 0.25 else "distinct"
            allowed = ["mle", "cmle", "reference"] + ([] if model == "shared" else ["jeffreys"])
            u = prof.random()
            if u < 0.5:
                methods, flags = list(oracle.ALL_METHODS), []
            elif u < 0.75:
                prior = "reference" if model == "shared" else str(prof.choice(["reference", "jeffreys"]))
                methods, flags = [prior], ["--prior", prior]
            else:
                k = int(prof.integers(1, len(allowed) + 1))
                chosen = sorted(prof.choice(allowed, size=k, replace=False).tolist(),
                                key=oracle.ALL_METHODS.index)
                methods, flags = chosen, ["--methods", ",".join(chosen)]
            u = prof.random()
            point, point_flags = ("map", []) if u < 0.7 else \
                ("mean", ["--point", "mean"]) if u < 0.85 else ("mean", ["--paper-compat"])
            specs.append({
                "p": p, "total": total, "special": special, "model": model,
                "level": str(prof.choice(["0.8", "0.9", "0.95", "0.99"])),
                "format": str(prof.choice(["table", "csv", "json"])),
                "methods": methods, "flags": flags + point_flags, "point": point,
                "malformed": (str(prof.choice(_MALFORMED))
                              if prof.random() < self.MALFORMED_SHARE else None),
            })
        return specs

    def _generate(self, i, spec, rng):
        p, total = spec["p"], spec["total"]
        T = float(rng.uniform(10.0, 1000.0))
        betas = rng.uniform(0.4, 3.0, p)
        counts = np.zeros(p, dtype=int)
        free = list(range(p))
        if spec["special"] != "none":
            k = int(rng.integers(p))
            counts[k] = 0 if spec["special"] == "zero" else 1
            free.remove(k)
            total = max(total - counts[k], 1)
        if free:
            counts[free] = rng.multinomial(total, rng.dirichlet(np.full(len(free), 2.0)))
        while True:
            times = np.concatenate([T * rng.random(c) ** (1.0 / b) for c, b in zip(counts, betas)])
            causes = np.repeat(np.arange(1, p + 1), counts)
            order = np.argsort(times, kind="stable")
            times, causes = times[order], causes[order]
            if times.size == 0 or (times[0] > 0.0 and times[-1] < T and np.all(np.diff(times) > 0)):
                break
        rows = [(float(t), int(c)) for t, c in zip(times, causes)]
        lines = [f"# dataset {i} (seed {self.seed})", "time,cause"]
        lines += [f"{t!r},{c}" for t, c in rows]
        if spec["malformed"]:
            _corrupt(lines, spec["malformed"], T, p, rng)
        path = self.out / f"ds{i:03d}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["fit", "--input", str(path), "--truncation", repr(T), "--num-causes", str(p),
                "--model", spec["model"], "--level", spec["level"], "--format", spec["format"],
                *spec["flags"]]
        return {"argv": argv, "rows": rows, "T": T, "p": p, "malformed": spec["malformed"]}

    def run(self, seconds, tracer):
        # A pass over the datasets is one tail block: thousands of ops in a
        # run would otherwise put the tail at p99.9, where scheduler stalls of
        # the host, not plpcr, set the value.
        log = RunLog(tail_block=len(self.order))
        self.first = {}
        hits = misses = 0
        deadline = _clock() + int(seconds * 1e9)
        instrument = tracer.instrument() if tracer is not None else nullcontext()
        with instrument:
            while _clock() < deadline:
                clear_quantile_cache()
                for i in self.order:
                    if _clock() >= deadline:
                        break
                    with _op_span(tracer), (tracer.span("cli.main") if tracer else nullcontext()):
                        ns, rc, out, err = call_main(self.datasets[i]["argv"])
                    log.add(ns, i)
                    if i not in self.first:
                        self.first[i] = (rc, out, err)
                    elif (rc, out, err) != self.first[i]:
                        log.fail(i, "output differs from an earlier fit of the same file")
                h, m = cache_counts()
                hits, misses = hits + h, misses + m
        log.finish()
        log.peak_rss_mb = _self_peak_rss_mb()
        log.cache_hits_misses = (hits, misses)
        return log

    def check(self, log):
        for i, (rc, out, err) in self.first.items():
            ds, spec = self.datasets[i], self.specs[i]
            if ds["malformed"]:
                problems = oracle.check_error_output(rc, out, err)
            else:
                counts, sums = oracle.sufficient_stats(ds["rows"], ds["T"], ds["p"])
                expected, degenerate = oracle.expected_fit(
                    counts, sums, spec["model"], spec["methods"], float(spec["level"]),
                    spec["point"])
                problems = oracle.check_fit_output(
                    rc, out, err, expected, degenerate,
                    oracle.warning_causes(counts, spec["model"], spec["methods"]), spec["format"])
            for problem in problems:
                log.fail(i, problem)

    def sizes(self):
        return {"datasets": len(self.datasets),
                "malformed": sum(d["malformed"] is not None for d in self.datasets),
                "rows": sum(len(d["rows"]) for d in self.datasets)}


def _corrupt(lines, kind, T, p, rng):
    """Break one line of a generated CSV (lines[1] is the header, every
    dataset has at least one row)."""
    body = len(lines) - 2
    if kind in ("order", "duplicate") and body < 2:
        kind = "time_text"
    k = 2 + int(rng.integers(body - 1 if kind in ("order", "duplicate") else body))
    time_text, cause_text = lines[k].split(",")
    if kind == "header":
        lines[1] = "t,c"
    elif kind == "no_header":
        del lines[1]
    elif kind == "time_text":
        lines[k] = f"abc,{cause_text}"
    elif kind == "cause_text":
        lines[k] = f"{time_text},x"
    elif kind == "cause_zero":
        lines[k] = f"{time_text},0"
    elif kind == "order":
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    elif kind == "duplicate":
        lines[k + 1] = f"{time_text},{lines[k + 1].split(',')[1]}"
    elif kind == "beyond_T":
        lines[k] = f"{T * 1.5!r},{cause_text}"
    elif kind == "negative":
        lines[k] = f"-1.5,{cause_text}"
    elif kind == "fields":
        lines[k] = lines[k] + ",9"
    elif kind == "label":
        lines[k] = f"{time_text},{p + 1}"


# ---------------------------------------------------------------- study-presets

PRESETS = ("scenario1", "scenario2", "scenario3", "scenario4", "scenario5")
POOL_WORKERS = 2


class StudyPresets(Workload):
    # A replication study, serial: random streams, history generation, the
    # estimators and intervals and accumulation, with a warm quantile cache.
    # M is large enough that an engine 1e3 times faster still takes far longer
    # per op than the timer's resolution.  Ops cycle through the five presets
    # in whole cycles, so every run has the same mix.  The process-pool path
    # is not timed; the checks run it once per preset, next to an untraced
    # serial run, to hold it to the byte-identical determinism contract and
    # to give the pool's speed-up.
    name = "study-presets"
    why = "serial run_study over scenario1-5; the replication engine's hot loop"
    cache_note = "not cleared; warmed during set-up, as in a long study"
    M = 1024
    WARMUP_M = 128

    def setup(self) -> None:
        from plpcr.montecarlo import PRESET_SCENARIOS, run_study
        fresh_import(self.root)
        rng = np.random.default_rng([self.seed, 3])
        self.master_seed = int(rng.integers(0, 2**32))
        self.scenarios = {name: dataclasses.replace(PRESET_SCENARIOS[name], replications=self.M,
                                                    master_seed=self.master_seed)
                          for name in PRESETS}
        for sc in self.scenarios.values():
            run_study(dataclasses.replace(sc, replications=self.WARMUP_M))

    def run(self, seconds, tracer):
        from plpcr import montecarlo
        log = RunLog(reps_per_op=self.M)
        self.reference = {}
        hits0 = cache_counts()
        deadline = _clock() + int(seconds * 1e9)
        with tracer.instrument() if tracer is not None else nullcontext():
            while _clock() < deadline:
                for name in PRESETS:
                    with _op_span(tracer):
                        t0 = _clock()
                        report = montecarlo.run_study(self.scenarios[name])
                        t1 = _clock()
                        with tracer.span("montecarlo.report_render") if tracer else nullcontext():
                            text = report.to_json()
                    log.add(t1 - t0, name)
                    if name not in self.reference:
                        self.reference[name] = text
                    elif text != self.reference[name]:
                        log.fail(name, "report differs from an earlier run with the same seed")
        log.finish()
        log.peak_rss_mb = _self_peak_rss_mb()
        hits1 = cache_counts()
        log.cache_hits_misses = (hits1[0] - hits0[0], hits1[1] - hits0[1])
        return log

    def check(self, log):
        from plpcr.montecarlo import run_study
        self.serial_s, self.pool_s = 0.0, 0.0
        for name, text in self.reference.items():
            sc = self.scenarios[name]
            alphas = [c.alpha for c in sc.params.causes]
            for problem in oracle.check_study_report(json.loads(text), alphas, self.M):
                log.fail(name, problem)
            for workers in (1, POOL_WORKERS):
                t0 = time.perf_counter()
                again = run_study(sc, workers=workers).to_json()
                if workers == 1:
                    self.serial_s += time.perf_counter() - t0
                else:
                    self.pool_s += time.perf_counter() - t0
                if again != text:
                    log.fail(name, f"workers={workers} report differs from the timed run")
        reports = [json.loads(text) for text in self.reference.values()]
        for problem in oracle.check_pooled_coverage(reports):
            for name in self.reference:
                log.fail(name, problem)

    def pool_speedup(self) -> float:
        """Untraced serial time over the pool's, both from the checks and
        summed over the presets."""
        return self.serial_s / self.pool_s if self.pool_s > 0 else 0.0

    def sizes(self):
        return {"M_per_preset": {name: self.M for name in PRESETS},
                "pool_workers_in_checks": POOL_WORKERS, "master_seed": self.master_seed}


WORKLOADS = {cls.name: cls for cls in (FitCold, FitBatch, StudyPresets)}
