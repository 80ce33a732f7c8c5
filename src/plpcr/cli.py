"""Command-line front end: fit, simulate, duane, and fixtures commands.

Reports go to stdout (or ``--output``); warnings and machine-readable error
records go to stderr as single JSON lines.  Numbers in the default table
rendering are rounded to three decimals; the csv and json formats carry full
precision and contain identical values.  The json output is the layout of
``json.dumps(payload, indent=2)``.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from codecs import BOM_UTF8
from pathlib import Path

from .data import cause_stats, harvester_fixture, parse_history, serialize_history
from .diagnostics import duane_csv, duane_points
from .errors import (DiagnosticError, DomainError, PlpcrError, ValidationError, check_real,
                     check_whole)
from .inference import (
    ALL_METHODS,
    EstimateRow,
    EstimateTable,
    Method,
    Model,
    PointConvention,
    _as_methods,
    build_estimate_table,
)

_FIXTURES = {"harvester": harvester_fixture}


def _io_fault(path, action: str, exc: OSError | ValueError) -> ValidationError:
    """A read or write fault as a ValidationError naming the path and the reason: the
    operating system's, or a ValueError's (a NUL byte in a path, an unencodable name)."""
    return ValidationError(f"{path}: cannot {action} ({getattr(exc, 'strerror', None) or exc})")


def _emit(text: str, output: str | None) -> None:
    if not output and sys.stdout is None:  # Python's stdout when descriptor 1 is closed
        raise ValidationError("stdout: cannot write (standard output is closed)")
    try:
        if output:
            Path(output).write_text(text, encoding="utf-8")
        else:  # flushed here, so that a full disk or a closed pipe is reported too
            sys.stdout.write(text)
            sys.stdout.flush()
    except (OSError, ValueError) as exc:
        if not output:
            _drop_stdout()
        raise _io_fault(output or "stdout", "write", exc) from None


def _drop_stdout() -> None:
    """Point standard output's descriptor at the null device.  The bytes that
    failed stay in stdout's buffer, and the flush at interpreter exit would
    otherwise fail on them again: a second message and exit status 120."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):  # an in-memory or closed stream: nothing to flush later
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _error_record(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": {"type": kind, "message": message}}) + "\n")


def _warn_records(warnings) -> None:
    for message in warnings:
        sys.stderr.write(json.dumps({"warning": message}) + "\n")


def _read_text(path) -> str:
    """The file's UTF-8 text, without a leading byte-order mark (Excel and Notepad write one)."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        with open(path, "rb") as f:  # the codec counts bytes from after a leading mark
            start = exc.start + (len(BOM_UTF8) if f.read(len(BOM_UTF8)) == BOM_UTF8 else 0)
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason} at byte {start})") from None
    except (OSError, ValueError) as exc:
        raise _io_fault(path, "read", exc) from None


def _load_history(args):
    if args.fixtures:  # the parser admits exactly one of --input and --fixtures
        if args.truncation is not None or args.num_causes is not None:
            raise ValidationError("--truncation and --num-causes describe an --input "
                                  "file; a fixture carries its own")
        return _FIXTURES[args.fixtures]()
    if args.truncation is None:
        raise ValidationError("--truncation is required with --input (it is never "
                              "inferred from the data)")
    return parse_history(_read_text(args.input), args.truncation, args.num_causes)


def _table_text(table: EstimateTable, digits: int = 3) -> str:
    body = [(r.parameter, r.method.value,
             *(f"{x:.{digits}f}" for x in (r.point, r.sd, r.sd_paper_compat, r.ci_lo, r.ci_hi)),
             f"{r.level:g}") for r in table.rows]
    widths = [max(map(len, column)) for column in zip(EstimateRow._fields, *body)]
    lines = ("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
             for row in (EstimateRow._fields, *body))
    return "\n".join(lines) + "\n"


def _table_csv(table: EstimateTable) -> str:
    lines = [",".join(EstimateRow._fields)]
    lines.extend(",".join([r.parameter, r.method.value, *map(repr, r[2:])]) for r in table.rows)
    return "\n".join(lines) + "\n"


def _json_strings(items) -> str:
    # A list of strings one level deep in json.dumps(payload, indent=2).
    text = json.dumps(items, separators=(",\n    ", ": "))
    return f"[\n    {text[1:-1]}\n  ]" if items else "[]"


def _table_json(table: EstimateTable) -> str:
    # json.dumps(payload, indent=2) + "\n" from json's C encoder (its indented one is
    # pure Python): a list's separator carries its items' newline and indent.  Only
    # separators hold a raw newline, so "},\n      {" splits exactly the row objects.
    rows = json.dumps([dict(zip(EstimateRow._fields, r)) for r in table.rows],
                      separators=(",\n      ", ": "))  # a Method encodes as its value
    if table.rows:
        rows = ("[\n    {\n      " + rows[2:-2].replace("},\n      {", "\n    },\n    {\n      ")
                + "\n    }\n  ]")
    return (f'{{\n  "columns": {_json_strings(EstimateRow._fields)},\n  "rows": {rows},\n'
            f'  "warnings": {_json_strings(table.warnings)}\n}}\n')


def _parse_methods(text: str) -> tuple[Method, ...]:
    # Blanks and case aside, the library reads the names and names any fault.
    if text.strip().lower() == "all":
        return ALL_METHODS
    try:
        return _as_methods(list(filter(None, map(str.strip, text.lower().split(",")))))
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_prior(text: str) -> tuple[Method, ...]:
    if text not in ("reference", "jeffreys"):
        raise argparse.ArgumentTypeError(f"invalid choice: {text!r} (choose from "
                                         "'reference', 'jeffreys')")
    return (Method(text),)


def _number(parse, **bounds):
    """An argparse type: the text read by `parse` (int or float), held to the
    package's number rule within `bounds`; argparse names the option."""
    check = check_whole if parse is int else check_real
    def convert(text: str):
        return check(parse(text), "value", argparse.ArgumentTypeError, **bounds)
    convert.__name__ = parse.__name__  # argparse's "invalid int value: '1e4'"
    return convert


def _cmd_fit(args) -> int:
    table = build_estimate_table(cause_stats(_load_history(args)), methods=args.methods,
                                 model=args.model, level=args.level, convention=args.point)
    _warn_records(table.warnings)
    render = {"table": _table_text, "csv": _table_csv, "json": _table_json}[args.format]
    _emit(render(table), args.output)
    return 0


def _cmd_simulate(args) -> int:
    import dataclasses  # here, not at load: fit, duane and fixtures do without it
    from .montecarlo import PRESET_SCENARIOS, parse_scenario, run_study  # numpy loads here

    label = args.scenario
    if label in PRESET_SCENARIOS:
        base = PRESET_SCENARIOS[label]
    else:
        path = Path(label)
        if not path.exists():
            raise ValidationError(f"scenario {label!r} is neither a preset "
                                  f"({', '.join(PRESET_SCENARIOS)}) nor a file")
        base = parse_scenario(_read_text(path), name=path.stem)
    given = {"replications": args.replications, "master_seed": args.seed, "level": args.level}
    scenario = dataclasses.replace(base, **{k: v for k, v in given.items() if v is not None})
    report = run_study(scenario, methods=args.methods)
    _emit(report.to_json() if args.format == "json" else report.to_csv(), args.output)
    return 0


def _cmd_duane(args) -> int:
    history = _load_history(args)
    if args.cause is not None:
        series = [duane_points(history, args.cause)]
    else:
        series = [duane_points(history, j) for j in range(1, history.num_causes + 1)
                  if history.times_for_cause(j)]
        if not series:
            raise DiagnosticError("no failures observed; no Duane points to emit")
    _emit(duane_csv(series), args.output)
    return 0


def _cmd_fixtures(args) -> int:
    _emit(serialize_history(_FIXTURES[args.name]()), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage faults raise ValidationError, which main reports like any other."""

    def error(self, message: str):
        raise ValidationError(message)


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="CSV file with header time,cause")
    source.add_argument("--fixtures", choices=sorted(_FIXTURES),
                        help="analyze a bundled dataset instead of --input")
    parser.add_argument("--truncation", type=_number(float),
                        help="observation window end T (required with --input)")
    parser.add_argument("--num-causes", type=_number(int), default=None,
                        help="number of causes when it exceeds the largest observed label")
    parser.add_argument("--output", help="write the report here instead of stdout")


def _add_methods_option(parser) -> None:
    # A string default, so that --methods all counts as given in a conflict check.
    parser.add_argument("--methods", type=_parse_methods, default="all",
                        help="comma list of mle,cmle,jeffreys,reference (or 'all')")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="plpcr",
        description="Inference and simulation for repairable systems with "
                    "competing risks under power-law failure intensities.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="estimate parameters from a failure history")
    _add_input_options(fit)
    fit.add_argument("--model", choices=[m.value for m in Model], default="distinct")
    # Each alias shares its option's dest and group, so giving both is refused.
    methods = fit.add_mutually_exclusive_group()
    _add_methods_option(methods)
    methods.add_argument("--prior", dest="methods", type=_parse_prior,
                         metavar="{reference,jeffreys}",
                         help="alias of --methods with one Bayes method")
    point = fit.add_mutually_exclusive_group()
    # A string default, so that an explicit --point map conflicts with --paper-compat.
    point.add_argument("--point", type=PointConvention, default="map",
                       metavar="{map,mean}",
                       help="Bayes point rule for beta")
    point.add_argument("--paper-compat", dest="point", action="store_const",
                       const=PointConvention.MEAN,
                       help="alias of --point mean, the convention that reproduces the "
                            "published case-study table")
    fit.add_argument("--level", type=_number(float, high=1.0), default=0.95)
    fit.add_argument("--format", choices=["table", "csv", "json"], default="table")
    fit.set_defaults(func=_cmd_fit)

    sim = sub.add_parser("simulate", help="run a replication study for a scenario")
    sim.add_argument("--scenario", required=True,
                     help="preset name (scenario1..scenario5) or scenario file path")
    sim.add_argument("--replications", type=_number(int), default=None)
    # The range of the study's stream key, as Scenario checks it.
    sim.add_argument("--seed", type=_number(int, low=0, high=2**64 - 1), default=None)
    sim.add_argument("--level", type=_number(float, high=1.0), default=None)
    _add_methods_option(sim)
    sim.add_argument("--format", choices=["csv", "json"], default="csv")
    sim.add_argument("--output", help="write the report here instead of stdout")
    sim.set_defaults(func=_cmd_simulate)

    duane = sub.add_parser("duane", help="emit Duane plot points as CSV")
    _add_input_options(duane)
    # The upper bound, the history's cause count, is duane_points' to check.
    duane.add_argument("--cause", type=_number(int), default=None,
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
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except PlpcrError as exc:
        _error_record(type(exc).__name__, str(exc))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
