"""Engine-independent correctness checks for benchmark outputs.

Every estimator in plpcr depends on the data only through the per-cause
counts n_j and sums S_j = sum log(T/t).  The pivot of the time-truncated
power-law process, beta * S_j | n_j ~ Gamma(n_j, 1), gives closed forms for
every fit and exact coverage for the equal-tail beta intervals, so the checks
below need no part of plpcr.  scipy is the quantile oracle, as in the tests;
it is imported only when a check runs, after the timed loop, so that it adds
nothing to the harness's memory peak.  Each check returns a list of problems;
an empty list is a pass.
"""
from __future__ import annotations

import csv
import io
import json
import math
import re

ALL_METHODS = ("mle", "cmle", "jeffreys", "reference")
_ALPHA_OFFSET = {"jeffreys": 1.0, "reference": 0.5}


def sufficient_stats(rows, T: float, p: int):
    """(counts, log_sums) from (time, cause) rows, computed here, not by plpcr."""
    terms = [[] for _ in range(p)]
    for t, c in rows:
        terms[c - 1].append(math.log(T / t))
    return [len(x) for x in terms], [math.fsum(x) for x in terms]


def expected_fit(counts, log_sums, model: str, methods, level: float, point: str):
    """Closed-form table rows keyed by (parameter, method).

    Values are (point, sd, sd_paper_compat, lo, hi); ``degenerate`` holds the
    keys whose Bayes MAP beta sits at the boundary (a single failure), where
    a missing row or a non-numeric point is also accepted.
    """
    from scipy import stats as _st

    z = float(_st.norm.ppf((1.0 + level) / 2.0))
    q_lo, q_hi = (1.0 - level) / 2.0, (1.0 + level) / 2.0
    usable = [j for j, n in enumerate(counts, start=1) if n >= 1]
    rows, degenerate = {}, set()

    def gamma_ci(shape, rate):
        return (float(_st.gamma.ppf(q_lo, shape)) / rate,
                float(_st.gamma.ppf(q_hi, shape)) / rate)

    def beta_rows(name, n, s, method):
        if method in ("mle", "cmle"):
            pt = (n if method == "mle" else n - 1) / s
            sd = pt / math.sqrt(n)
            rows[(name, method)] = (pt, sd, sd, pt - z * sd, pt + z * sd)
        else:
            pt = (n / s) if point == "mean" else (n - 1) / s if n > 1 else 0.0
            sd = math.sqrt(n) / s
            rows[(name, method)] = (pt, sd, sd, *gamma_ci(n, s))
            if point == "map" and n <= 1:
                degenerate.add((name, method))

    def alpha_rows(j, method):
        n = counts[j - 1]
        if method in ("mle", "cmle"):
            sd = math.sqrt(n)
            rows[(f"alpha_{j}", method)] = (float(n), sd, sd, n - z * sd, n + z * sd)
        else:
            shape = n + _ALPHA_OFFSET[method]
            rows[(f"alpha_{j}", method)] = (float(n), math.sqrt(shape), math.sqrt(n),
                                            *gamma_ci(shape, 1.0))

    for method in methods:
        if model == "shared":
            if method == "jeffreys":
                continue  # no closed-form posterior; the table omits it
            n = sum(counts[j - 1] for j in usable)
            s = math.fsum(log_sums[j - 1] for j in usable)
            if method == "cmle" and n < 2:
                continue
            beta_rows("beta", n, s, method)
            for j in usable:
                alpha_rows(j, method)
        else:
            for j in usable:
                if method == "cmle" and counts[j - 1] < 2:
                    continue
                beta_rows(f"beta_{j}", counts[j - 1], log_sums[j - 1], method)
                alpha_rows(j, method)
    return rows, degenerate


def warning_causes(counts, model: str, methods):
    """Causes for which a warning must be emitted: no failures, or a single
    failure where the distinct-shape bias-corrected estimate degenerates."""
    causes = [j for j, n in enumerate(counts, start=1) if n == 0]
    if model == "distinct" and "cmle" in methods:
        causes += [j for j, n in enumerate(counts, start=1) if n == 1]
    return sorted(causes)


def parse_table(text: str, fmt: str):
    """Rows of a rendered fit table as {(parameter, method): (point, sd, compat, lo, hi)}."""
    out = {}
    if fmt == "json":
        for r in json.loads(text)["rows"]:
            out[(r["parameter"], r["method"])] = tuple(
                _num(r[k]) for k in ("point", "sd", "sd_paper_compat", "ci_lo", "ci_hi"))
        return out
    if fmt == "csv":
        lines = list(csv.reader(io.StringIO(text)))[1:]
    else:
        lines = [line.split() for line in text.splitlines()[1:]]
    for cells in lines:
        if cells:
            out[(cells[0], cells[1])] = tuple(_num(c) for c in cells[2:7])
    return out


def _num(value) -> float:
    return math.nan if value is None else float(value)


def check_fit_output(rc: int, out: str, err: str, expected, degenerate, warn_causes,
                     fmt: str):
    """Compare one successful fit's stdout/stderr with its closed forms."""
    problems = []
    if rc != 0:
        return [f"exit status {rc}, expected 0; stderr={err[:200]!r}"]
    warnings, err_problems = _stderr_records(err)
    problems += err_problems
    if any("error" in rec for rec in warnings):
        problems.append("error record on a valid input")
    texts = [rec.get("warning", "") for rec in warnings]
    for j in warn_causes:
        if not any(re.search(rf"\bcause {j}\b", t) for t in texts):
            problems.append(f"no warning for cause {j}")
    try:
        got = parse_table(out, fmt)
    except (ValueError, KeyError, IndexError, json.JSONDecodeError) as exc:
        return problems + [f"unparseable {fmt} output: {exc}"]
    if fmt == "table":
        close = lambda a, b: abs(a - b) <= 5.0005e-4 + 1e-9 * abs(b)
    else:
        close = lambda a, b: math.isclose(a, b, rel_tol=1e-8, abs_tol=1e-10)
    for key in got.keys() - expected.keys():
        problems.append(f"unexpected row {key}")
    for key, want in expected.items():
        if key not in got:
            if key not in degenerate:
                problems.append(f"missing row {key}")
            continue
        for field, g, w in zip(("point", "sd", "compat", "lo", "hi"), got[key], want):
            if field == "point" and key in degenerate and not math.isfinite(g):
                continue
            if not close(g, w):
                problems.append(f"{key} {field}: got {g!r}, closed form {w!r}")
    return problems


def check_error_output(rc: int, out: str, err: str):
    """A malformed input must end in status 1 and exactly one JSON error line."""
    problems = []
    if rc != 1:
        problems.append(f"exit status {rc}, expected 1")
    if out:
        problems.append("report written for a malformed input")
    records, err_problems = _stderr_records(err)
    problems += err_problems
    errors = [r for r in records if "error" in r]
    if len(err.splitlines()) != 1 or len(errors) != 1:
        problems.append(f"expected exactly one JSON error line, got {err[:200]!r}")
    elif not isinstance(errors[0]["error"], dict) or "type" not in errors[0]["error"]:
        problems.append("error record has no type")
    return problems


def _stderr_records(err: str):
    records, problems = [], []
    for line in err.splitlines():
        if "Traceback" in line:
            problems.append("traceback on stderr")
            break
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            problems.append(f"non-JSON stderr line {line[:120]!r}")
            continue
        if isinstance(rec, dict):
            records.append(rec)
        else:
            problems.append(f"stderr line is not a JSON object: {line[:120]!r}")
    return records, problems


def discard_probability(alphas) -> float:
    """P(some cause has fewer than two failures), n_j ~ Poisson(alpha_j)."""
    keep = 1.0
    for a in alphas:
        keep *= 1.0 - math.exp(-a) * (1.0 + a)
    return 1.0 - keep


def check_study_report(report: dict, alphas, M: int):
    """Checks on one study report (the parsed ``McReport.to_json`` payload)."""
    problems = []
    used, discarded = report["used"], report["discarded"]
    if used + discarded != M or report["replications"] != M:
        problems.append(f"used {used} + discarded {discarded} != M {M}")
    p = discard_probability(alphas)
    se = math.sqrt(p * (1.0 - p) / M)
    if abs(discarded / M - p) > 5.0 * se:
        problems.append(f"discard fraction {discarded / M:.4f} outside 5 SE of {p:.4f}")
    level = report["level"]
    # Given n_j, beta * S_j ~ Gamma(n_j, 1), and the discard rule depends on
    # the counts only, so equal-tail beta coverage is exactly `level`.
    se = math.sqrt(level * (1.0 - level) / max(used, 1))
    for row in report["rows"]:
        if row["method"] in ("jeffreys", "reference") and row["parameter"].startswith("beta"):
            if abs(row["cp"] - level) > 5.0 * se:
                problems.append(f"{row['parameter']}/{row['method']} coverage {row['cp']:.4f} "
                                f"outside 5 SE of {level}")
    return problems


def check_pooled_coverage(reports):
    """Beta coverage pooled over every cause of every report, per Bayes method.

    Given the counts the coverage events of distinct causes and replications
    are independent with probability `level`, so the pooled count is exactly
    binomial, and its 5 SE band is narrow enough to catch interval errors a
    single cell cannot resolve.
    """
    problems = []
    for method in ("jeffreys", "reference"):
        hits = trials = 0.0
        for report in reports:
            for row in report["rows"]:
                if row["method"] == method and row["parameter"].startswith("beta"):
                    hits += row["cp"] * report["used"]
                    trials += report["used"]
        level = reports[0]["level"]
        se = math.sqrt(level * (1.0 - level) / max(trials, 1.0))
        if abs(hits / max(trials, 1.0) - level) > 5.0 * se:
            problems.append(f"pooled {method} beta coverage {hits / trials:.4f} over "
                            f"{trials:.0f} intervals outside 5 SE of {level}")
    return problems
