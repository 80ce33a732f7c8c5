"""Failure-history data model, CSV ingestion, and sufficient statistics.

The on-disk format is a two-column CSV (header ``time,cause``) holding one
failure per line, times strictly ascending.  The truncation time is never
inferred from the data; it always arrives out-of-band (CLI flag or scenario
field).  Lines starting with ``#`` are ignored so files can carry their own
provenance notes.
"""
from __future__ import annotations

import csv
import io
import math
from collections import namedtuple
from typing import NamedTuple

from .errors import DomainError, ValidationError, check_real, check_sequence, check_whole


class FailureRecord(NamedTuple):
    """One failure: the event time and the cause label that produced it."""

    time: float
    cause: int


def _check_records(records, T: float, p: int, where=lambda i: f"record {i}") -> None:
    """The record rule of a history: each record a FailureRecord whose time is
    in (0, T), strictly above the one before, and whose cause is in 1..p.  A
    fault names its record by `where` (the 1-based record index to a label)."""
    previous = 0.0
    for i, rec in enumerate(check_sequence(records, "records", ValidationError), start=1):
        try:
            time, cause = rec.time, rec.cause
        except AttributeError:
            raise ValidationError(f"{where(i)}: expected a FailureRecord, "
                                  f"got {type(rec).__name__}") from None
        # Exact classes first: a parsed record always passes this test, and
        # only a record that fails it pays for the checks that name the fault.
        if not (time.__class__ is float and cause.__class__ is int
                and previous < time < T and 1 <= cause <= p):
            check_real(time, f"{where(i)}: time", ValidationError, high=T)
            check_whole(cause, f"{where(i)}: cause", ValidationError, high=p)
            if time == previous:
                raise ValidationError(f"{where(i)}: duplicate failure time {time!r}")
            if time < previous:
                raise ValidationError(f"{where(i)}: time {time!r} breaks ascending order")
        previous = time


class FailureHistory(namedtuple("FailureHistory", "records truncation_time num_causes")):
    """Ordered failure record of one system observed on (0, truncation_time].

    Times are strictly increasing and strictly inside the observation window;
    every cause label lies in 1..num_causes.  Instances are immutable and safe
    to share.
    """

    __slots__ = ()

    def __new__(cls, records: tuple[FailureRecord, ...], truncation_time: float, num_causes: int):
        self = super().__new__(cls, records, truncation_time, num_causes)
        T = check_real(self.truncation_time, "truncation_time", ValidationError)
        p = check_whole(self.num_causes, "num_causes", ValidationError)
        _check_records(self.records, T, p)
        return self

    # _replace builds through _make; this runs both through __new__'s checks.
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def n(self) -> int:
        return len(self.records)

    def times_for_cause(self, cause: int) -> tuple[float, ...]:
        return tuple(r.time for r in self.records if r.cause == cause)


class CauseStats(namedtuple("CauseStats", "counts log_sums truncation_time")):
    """Per-cause sufficient statistics: counts n_j and sums of log(T / t)."""

    __slots__ = ()

    def __new__(cls, counts: tuple[int, ...], log_sums: tuple[float, ...], truncation_time: float):
        self = super().__new__(cls, counts, log_sums, truncation_time)
        # As cause_stats builds them: S_j > 0 with failures and S_j = 0 without.
        check_sequence(self.counts, "counts")
        check_sequence(self.log_sums, "log sums")
        if len(self.counts) != len(self.log_sums):
            raise DomainError(f"{len(self.counts)} counts but {len(self.log_sums)} log sums")
        check_real(self.truncation_time, "truncation_time")
        for j, (n, s) in enumerate(zip(self.counts, self.log_sums), start=1):
            check_whole(n, f"cause {j} count", low=0)
            check_real(s, f"cause {j} log sum", closed=n == 0)
            if n == 0 and s != 0.0:
                raise DomainError(f"cause {j} log sum must be 0 with no failures, got {s!r}")
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def log_sum_total(self) -> float:
        return math.fsum(self.log_sums)


def parse_history(text: str, truncation_time: float,
                  num_causes: int | None = None) -> FailureHistory:
    """Parse ``time,cause`` CSV text into a validated FailureHistory.

    The text decides the comments, the header, two fields per row, a float
    time and an integer cause; the records are then held to the one record
    rule of FailureHistory, and a fault names its line.  num_causes defaults
    to the largest cause label seen; pass it explicitly to represent trailing
    causes with zero observed failures, and a label above it is refused.
    """
    if not isinstance(text, str):
        raise ValidationError(f"history text must be a str, got {type(text).__name__}")
    check_real(truncation_time, "truncation_time", ValidationError)
    if num_causes is not None:
        check_whole(num_causes, "num_causes", ValidationError)
    reader = csv.reader(io.StringIO(text))
    try:
        rows = list(reader)
    except csv.Error as exc:  # e.g. a field beyond the csv module's size limit
        raise ValidationError(f"line {reader.line_num}: {exc}") from None
    records: list[FailureRecord] = []
    line_nos: list[int] = []
    header_seen = False
    for line_no, row in enumerate(rows, start=1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].lstrip().startswith("#"):
            continue
        if not header_seen:
            if [c.strip().lower() for c in row] != ["time", "cause"]:
                raise ValidationError(f"line {line_no}: expected header 'time,cause', got {row!r}")
            header_seen = True
            continue
        if len(row) != 2:
            raise ValidationError(f"line {line_no}: expected two fields, got {row!r}")
        time_text, cause_text = row[0].strip(), row[1].strip()
        try:
            time = float(time_text)
        except ValueError:
            raise ValidationError(f"line {line_no}: non-numeric time {time_text!r}") from None
        try:
            cause = int(cause_text)
        except ValueError:
            raise ValidationError(f"line {line_no}: non-integer cause {cause_text!r}") from None
        records.append(FailureRecord(time, cause))
        line_nos.append(line_no)
    if not header_seen:
        raise ValidationError("missing header line 'time,cause'")
    if num_causes is None:  # at least 1, so that a label of 0 is left to the record rule
        num_causes = max([1, *(r.cause for r in records)])
    try:
        return FailureHistory(tuple(records), float(truncation_time), num_causes)
    except ValidationError:
        # The same rule again, on a refused history only, to name the line.
        _check_records(records, truncation_time, num_causes, lambda i: f"line {line_nos[i - 1]}")
        raise


def serialize_history(history: FailureHistory) -> str:
    """Render a history back to CSV, with full-precision times.

    The truncation time and cause count travel as comment lines; parse_history
    ignores them, so round-tripping needs both passed back explicitly.
    """
    lines = [
        f"# truncation_time={history.truncation_time!r}",
        f"# num_causes={history.num_causes}",
        "time,cause",
    ]
    lines.extend(f"{r.time!r},{r.cause}" for r in history.records)
    return "\n".join(lines) + "\n"


def cause_stats(history: FailureHistory) -> CauseStats:
    """Sufficient statistics (n_j, S_j = sum of log(T/t) over cause j)."""
    T = history.truncation_time
    log_terms: list[list[float]] = [[] for _ in range(history.num_causes)]
    for rec in history.records:
        log_terms[rec.cause - 1].append(math.log(T / rec.time))
    counts = tuple(len(terms) for terms in log_terms)
    log_sums = tuple(math.fsum(terms) for terms in log_terms)
    return CauseStats(counts, log_sums, T)


# Recurrent failures of a sugarcane harvester over one 254-day harvest,
# classified as electrical (1), engine (2), or elevator (3) failures.
# 48 failures in total: 10, 24, and 14 per cause.
_HARVESTER_ROWS: tuple[tuple[float, int], ...] = (
    (4.987, 1), (7.374, 1), (15.716, 1), (15.850, 2),
    (20.776, 2), (27.476, 3), (29.913, 1), (42.747, 1),
    (47.774, 2), (52.722, 2), (58.501, 2), (65.258, 1),
    (71.590, 2), (79.108, 2), (79.688, 1), (79.794, 3),
    (80.886, 3), (85.526, 2), (91.878, 2), (93.541, 3),
    (94.209, 3), (96.234, 2), (101.606, 3), (103.567, 2),
    (117.981, 2), (120.442, 1), (120.769, 3), (123.322, 3),
    (124.158, 2), (126.097, 2), (137.071, 2), (142.037, 3),
    (150.342, 2), (150.467, 2), (161.743, 2), (161.950, 2),
    (162.399, 3), (185.381, 1), (193.435, 3), (205.935, 1),
    (206.310, 2), (210.767, 3), (212.982, 2), (216.284, 2),
    (219.019, 2), (222.831, 2), (233.826, 3), (234.641, 3),
)

HARVESTER_TRUNCATION_TIME = 254.0

# Automotive warranty claims classified into three causes; only the per-cause
# claim counts are available (the raw mileages were never published), so just
# count-based quantities can be reproduced for this dataset.
WARRANTY_CLAIM_COUNTS: tuple[int, ...] = (99, 118, 155)


def harvester_fixture() -> FailureHistory:
    """The bundled sugarcane-harvester dataset (48 failures, T=254, p=3)."""
    records = tuple(FailureRecord(t, c) for t, c in _HARVESTER_ROWS)
    return FailureHistory(records, HARVESTER_TRUNCATION_TIME, 3)
