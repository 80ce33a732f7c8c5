"""Command-line front end: fit, simulate, duane, and fixtures commands.

Reports go to stdout (or ``--output``); warnings and machine-readable error
records go to stderr as single JSON lines.  Numbers in the default table
rendering are rounded to three decimals; the csv and json formats carry full
precision and contain identical values.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .data import cause_stats, harvester_fixture, parse_history, serialize_history
from .diagnostics import duane_csv, duane_points
from .errors import PlpcrError, ValidationError
from .inference import (
    ALL_METHODS,
    EstimateTable,
    Method,
    Model,
    PointConvention,
    build_estimate_table,
)
from .montecarlo import PRESET_SCENARIOS, Scenario, parse_scenario, run_study

_FIXTURES = {"harvester": harvester_fixture}


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _error_record(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def _warn_records(warnings) -> None:
    for message in warnings:
        sys.stderr.write(json.dumps({"warning": message}) + "\n")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
                              ) from None


def _load_history(args):
    if args.fixtures:
        return _FIXTURES[args.fixtures]()
    if not args.input:
        raise PlpcrError("either --input with --truncation or --fixtures is required")
    if args.truncation is None:
        raise PlpcrError("--truncation is required with --input (it is never "
                         "inferred from the data)")
    return parse_history(_read_text(args.input), args.truncation, args.num_causes)


def _table_text(table: EstimateTable, digits: int = 3) -> str:
    header = ("parameter", "method", "point", "sd", "sd_paper_compat", "ci_lo", "ci_hi", "level")
    body = [
        (r.parameter, r.method.value, f"{r.point:.{digits}f}", f"{r.sd:.{digits}f}",
         f"{r.sd_paper_compat:.{digits}f}", f"{r.ci_lo:.{digits}f}", f"{r.ci_hi:.{digits}f}",
         f"{r.level:g}")
        for r in table.rows
    ]
    widths = [max(len(header[i]), *(len(row[i]) for row in body)) if body else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.extend("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)) for row in body)
    return "\n".join(lines) + "\n"


def _table_csv(table: EstimateTable) -> str:
    lines = ["parameter,method,point,sd,sd_paper_compat,ci_lo,ci_hi,level"]
    lines.extend(
        f"{r.parameter},{r.method.value},{r.point!r},{r.sd!r},{r.sd_paper_compat!r},"
        f"{r.ci_lo!r},{r.ci_hi!r},{r.level!r}"
        for r in table.rows
    )
    return "\n".join(lines) + "\n"


def _table_json(table: EstimateTable) -> str:
    payload = {
        "columns": ["parameter", "method", "point", "sd", "sd_paper_compat",
                    "ci_lo", "ci_hi", "level"],
        "rows": [
            {"parameter": r.parameter, "method": r.method.value, "point": r.point,
             "sd": r.sd, "sd_paper_compat": r.sd_paper_compat,
             "ci_lo": r.ci_lo, "ci_hi": r.ci_hi, "level": r.level}
            for r in table.rows
        ],
        "warnings": list(table.warnings),
    }
    return json.dumps(payload, indent=2) + "\n"


def _parse_methods(text: str) -> tuple[Method, ...]:
    if text.strip().lower() == "all":
        return ALL_METHODS
    chosen = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            chosen.append(Method(token))
        except ValueError:
            raise PlpcrError(f"unknown method {token!r}; expected mle, cmle, "
                             "jeffreys, reference, or all") from None
    if not chosen:
        raise PlpcrError("no methods selected")
    return tuple(dict.fromkeys(chosen))


def _cmd_fit(args) -> int:
    history = _load_history(args)
    stats = cause_stats(history)
    if args.methods:
        methods = _parse_methods(args.methods)
    elif args.prior:
        methods = (args.prior,)
    else:
        methods = ALL_METHODS
    convention = PointConvention.MEAN if args.paper_compat else args.point
    table = build_estimate_table(stats, methods=methods, model=args.model,
                                 level=args.level, convention=convention)
    _warn_records(table.warnings)
    if args.format == "csv":
        _emit(_table_csv(table), args.output)
    elif args.format == "json":
        _emit(_table_json(table), args.output)
    else:
        _emit(_table_text(table), args.output)
    return 0


def _resolve_scenario(args) -> Scenario:
    label = args.scenario
    if label in PRESET_SCENARIOS:
        base = PRESET_SCENARIOS[label]
    else:
        path = Path(label)
        if not path.exists():
            raise PlpcrError(f"scenario {label!r} is neither a preset "
                             f"({', '.join(PRESET_SCENARIOS)}) nor a file")
        base = parse_scenario(_read_text(path), name=path.stem)
    return Scenario(
        params=base.params,
        replications=args.replications if args.replications is not None else base.replications,
        master_seed=args.seed if args.seed is not None else base.master_seed,
        level=args.level if args.level is not None else base.level,
        name=base.name,
    )


def _cmd_simulate(args) -> int:
    scenario = _resolve_scenario(args)
    methods = _parse_methods(args.methods) if args.methods else ALL_METHODS
    report = run_study(scenario, methods=methods, workers=args.workers)
    if args.format == "json":
        _emit(report.to_json(), args.output)
    else:
        _emit(report.to_csv(), args.output)
    return 0


def _cmd_duane(args) -> int:
    history = _load_history(args)
    if args.cause is not None:
        series = [duane_points(history, args.cause)]
    else:
        series = [duane_points(history, j) for j in range(1, history.num_causes + 1)
                  if history.times_for_cause(j)]
        if not series:
            raise PlpcrError("no failures observed; no Duane points to emit")
    _emit(duane_csv(series), args.output)
    return 0


def _cmd_fixtures(args) -> int:
    _emit(serialize_history(_FIXTURES[args.name]()), args.output)
    return 0


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="CSV file with header time,cause")
    parser.add_argument("--truncation", type=float,
                        help="observation window end T (required with --input)")
    parser.add_argument("--num-causes", type=int, default=None,
                        help="number of causes when it exceeds the largest observed label")
    parser.add_argument("--fixtures", choices=sorted(_FIXTURES),
                        help="analyze a bundled dataset instead of --input")
    parser.add_argument("--output", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plpcr",
        description="Inference and simulation for repairable systems with "
                    "competing risks under power-law failure intensities.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate parameters from a failure history")
    _add_input_options(fit)
    fit.add_argument("--model", choices=[m.value for m in Model], default="distinct")
    fit.add_argument("--prior", choices=["reference", "jeffreys"], default=None,
                     help="restrict the table to one Bayes method")
    fit.add_argument("--methods", default=None,
                     help="comma list of mle,cmle,jeffreys,reference (or 'all')")
    fit.add_argument("--point", choices=[c.value for c in PointConvention], default="map",
                     help="Bayes point rule for beta")
    fit.add_argument("--level", type=float, default=0.95)
    fit.add_argument("--format", choices=["table", "csv", "json"], default="table")
    fit.add_argument("--paper-compat", action="store_true",
                     help="use the posterior-mean beta point, the convention that "
                          "reproduces the published case-study table")
    fit.set_defaults(func=_cmd_fit)

    sim = sub.add_parser("simulate", help="run a replication study for a scenario")
    sim.add_argument("--scenario", required=True,
                     help="preset name (scenario1..scenario5) or scenario file path")
    sim.add_argument("--replications", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--level", type=float, default=None)
    sim.add_argument("--workers", type=int, default=1,
                     help="accepted for compatibility; reports and run time do not depend on it")
    sim.add_argument("--methods", default=None,
                     help="comma list of mle,cmle,jeffreys,reference (or 'all')")
    sim.add_argument("--format", choices=["csv", "json"], default="csv")
    sim.add_argument("--output", help="write the report here instead of stdout")
    sim.set_defaults(func=_cmd_simulate)

    duane = sub.add_parser("duane", help="emit Duane plot points as CSV")
    _add_input_options(duane)
    duane.add_argument("--cause", type=int, default=None,
                       help="emit a single cause instead of all")
    duane.set_defaults(func=_cmd_duane)

    fixtures = sub.add_parser("fixtures", help="materialize a bundled dataset as CSV")
    fixtures.add_argument("--name", default="harvester", choices=sorted(_FIXTURES))
    fixtures.add_argument("--output", help="write the CSV here instead of stdout")
    fixtures.set_defaults(func=_cmd_fixtures)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Parsing keeps no state in the parser, so one instance serves every call.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except PlpcrError as exc:
        _error_record(type(exc).__name__, str(exc))
        return 1
    except OSError as exc:
        _error_record("OSError", str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
