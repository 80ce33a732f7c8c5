"""Ingestion, validation, sufficient statistics, and the bundled dataset."""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import plpcr
from plpcr.data import (
    FailureHistory,
    FailureRecord,
    HARVESTER_TRUNCATION_TIME,
    WARRANTY_CLAIM_COUNTS,
    cause_stats,
    harvester_fixture,
    parse_history,
    serialize_history,
)
from plpcr.errors import ValidationError
import reference

E = math.e


def _csv(rows: list[tuple[float, int]]) -> str:
    return "time,cause\n" + "\n".join(f"{t},{c}" for t, c in rows) + "\n"


class TestParseHistory:
    def test_harvester_shape(self):
        text = serialize_history(harvester_fixture())
        history = parse_history(text, 254.0)
        assert history.n == 48
        stats = cause_stats(history)
        assert stats.counts == (10, 24, 14)

    def test_empty_body_is_valid(self):
        history = parse_history("time,cause\n", 10.0)
        assert history.n == 0
        assert history.num_causes == 1

    def test_time_at_or_above_truncation_rejected(self):
        with pytest.raises(ValidationError, match="line 2"):
            parse_history(_csv([(300.0, 1)]), 254.0)
        with pytest.raises(ValidationError, match=r"time must be a real in \(0\.0, 10\.0\)"):
            parse_history(_csv([(10.0, 1)]), 10.0)

    def test_unsorted_rejected_with_row(self):
        with pytest.raises(ValidationError, match="line 3"):
            parse_history(_csv([(2.0, 1), (1.0, 2)]), 10.0)

    def test_duplicate_time_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_history(_csv([(2.0, 1), (2.0, 2)]), 10.0)

    def test_bad_cause_rejected(self):
        with pytest.raises(ValidationError, match="cause"):
            parse_history("time,cause\n1.0,0\n", 10.0)
        with pytest.raises(ValidationError, match="cause"):
            parse_history("time,cause\n1.0,1.5\n", 10.0)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(ValidationError, match="line 2: time must be a real in"):
            parse_history(_csv([(-3.0, 1)]), 10.0)
        for text in ("1e400", "inf", "nan"):
            with pytest.raises(ValidationError, match="line 2: time must be a real in"):
                parse_history(f"time,cause\n{text},1\n", 10.0)

    def test_missing_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            parse_history("1.0,1\n", 10.0)

    def test_num_causes_override(self):
        history = parse_history(_csv([(1.0, 1)]), 10.0, num_causes=3)
        assert history.num_causes == 3
        assert cause_stats(history).counts == (1, 0, 0)

    def test_num_causes_override_below_observed(self):
        with pytest.raises(ValidationError, match=r"^line 2: cause must be an integer in 1\.\.1"):
            parse_history(_csv([(1.0, 2)]), 10.0, num_causes=1)

    @pytest.mark.parametrize("row, num_causes, prefix", [
        ("2.0,0", None, "line 5: cause must be an integer in 1..1, got 0"),
        ("-2.0,0", 2, "line 5: time must be a real in (0.0, 10.0), got -2.0"),
        ("4.0,3", 2, "line 5: cause must be an integer in 1..2, got 3"),
        ("0.0,1", None, "line 5: time must be a real in (0.0, 10.0), got 0.0"),
        ("-1.5,1", None, "line 5: time must be a real in (0.0, 10.0), got -1.5"),
        ("inf,1", None, "line 5: time must be a real in (0.0, 10.0), got inf"),
        ("nan,1", None, "line 5: time must be a real in (0.0, 10.0), got nan"),
        ("1e400,1", None, "line 5: time must be a real in (0.0, 10.0), got inf"),
        ("10.0,1", None, "line 5: time must be a real in (0.0, 10.0), got 10.0"),
        ("12.5,1", None, "line 5: time must be a real in (0.0, 10.0), got 12.5"),
        ("3.0,2", 2, "line 5: duplicate failure time 3.0"),
        ("2.0,1", None, "line 5: time 2.0 breaks ascending order"),
    ])
    def test_record_fault_names_its_line(self, row, num_causes, prefix):
        # The bad row is record 2 on line 5: a comment and a blank line make
        # the two numbers differ, and a good row follows it.
        text = f"# note\ntime,cause\n3.0,1\n\n{row}\n5.0,1\n"
        with pytest.raises(ValidationError, match="^" + re.escape(prefix)):
            parse_history(text, 10.0, num_causes)

    def test_constructor_names_the_record(self):
        # The same rule as parse_history's, naming the record index, not a line.
        records = (FailureRecord(3.0, 1), FailureRecord(2.0, 1))
        with pytest.raises(ValidationError, match="^record 2: time 2.0 breaks ascending order"):
            FailureHistory(records, 10.0, 1)

    def test_record_rule_is_spelled_once(self):
        package = Path(plpcr.__file__).parent
        source = "".join(p.read_text(encoding="utf-8") for p in package.glob("*.py"))
        for phrase in ("breaks ascending order", "duplicate failure time"):
            assert source.count(phrase) == 1, phrase

    def test_comments_ignored(self):
        text = "# provenance note\ntime,cause\n# interior note\n1.5,1\n"
        assert parse_history(text, 10.0).n == 1

    def test_roundtrip_identity(self):
        original = harvester_fixture()
        text = serialize_history(original)
        parsed = parse_history(text, original.truncation_time, original.num_causes)
        assert parsed == original
        assert serialize_history(parsed) == text

    def test_oversized_field_names_line(self):
        # Beyond the csv module's field size limit (131,072 characters).
        text = "time,cause\n1.0,1\n" + "1" * 140_000 + ",1\n"
        with pytest.raises(ValidationError, match="^line 3: field larger than field limit"):
            parse_history(text, 10.0)

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(),
        st.lists(st.one_of(st.sampled_from(["time,cause", "# note", "", "1.5,1", "2.5,2"]),
                           st.text(alphabet="0123456789.,-+eE#\"\r\n nafi", max_size=12)),
                 max_size=8).map("\n".join)),
        T=st.floats(0.5, 10.0), num_causes=st.one_of(st.none(), st.integers(1, 4)))
    def test_arbitrary_text_parses_or_is_refused(self, text, T, num_causes):
        try:
            history = parse_history(text, T, num_causes)
        except ValidationError:
            return
        assert isinstance(history, FailureHistory)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), T=st.floats(1e-3, 1e6), p=st.integers(1, 4))
    def test_roundtrip_generated_histories(self, data, T, p):
        times = data.draw(st.lists(st.floats(0.0, T, exclude_min=True, exclude_max=True),
                                   unique=True, max_size=30))
        causes = data.draw(st.lists(st.integers(1, p), min_size=len(times),
                                    max_size=len(times)))
        history = FailureHistory(tuple(FailureRecord(t, c) for t, c in zip(sorted(times), causes)),
                                 T, p)
        assert parse_history(serialize_history(history), T, p) == history


# Texts for the reader's property test: a history of generated records, each
# field spelt as a user's file may spell it, with other lines put in anywhere.
_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
_ODD_TIMES = ["nan", "inf", "-inf", "1e400", "1_000", "1_0.5", "٣.٥", "３", "abc", "", "-1.5",
              "0", "0.0", "10.0", "2.0", "time"]
_ODD_CAUSES = ["0", "1", "2", "5", "1_0", "١", "٢", "1.5", "x", "", "-1", "+2", "cause"]
_EXTRA_LINES = ["# note", "  # indented, with a comma", "#", "", "   ", "\t", ",", "time,cause",
                " Time , CAUSE ", "t,c", "1.5", "1.5,1,9", "# 1.0,1"]
# The corruptions of the benchmark's generated fit-batch files (bench/workloads.py).
MALFORMED = ("header", "no_header", "time_text", "cause_text", "cause_zero", "order",
             "duplicate", "beyond_T", "negative", "fields", "label")


@st.composite
def _spelt(draw, text):
    """The field's text with blanks around it, quoted, or with non-ASCII digits."""
    way = draw(st.sampled_from(["plain", "plain", "blanks", "quoted", "quoted blanks", "digits"]))
    if way == "digits":
        return text.translate(_ARABIC_INDIC)
    if "blanks" in way:
        text = draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", " ", "  "]))
    return f'"{text}"' if "quoted" in way else text


@st.composite
def _history_rows(draw, max_size=12):
    """(T, p, rows): ascending times in (0, T) with causes in 1..p, as text pairs."""
    T = draw(st.sampled_from([5.0, 10.0, 254.0, 2000.0]))
    p = draw(st.integers(1, 4))
    times = sorted(draw(st.lists(st.floats(0.0, T, exclude_min=True, exclude_max=True),
                                 unique=True, max_size=max_size)))
    return T, p, [[repr(t), str(draw(st.integers(1, p)))] for t in times]


@st.composite
def _history_texts(draw):
    T, p, rows = draw(_history_rows())
    lines = [draw(st.sampled_from(["time,cause", "time,cause", " Time,CAUSE ", '"time","cause"',
                                   "# no header"]))]
    for time_text, cause_text in rows:
        if draw(st.integers(0, 9)) == 0:
            time_text = draw(st.sampled_from(_ODD_TIMES))
        if draw(st.integers(0, 9)) == 0:
            cause_text = draw(st.sampled_from(_ODD_CAUSES))
        extra = ",9" if draw(st.integers(0, 19)) == 0 else ""  # a third field
        lines.append(f"{draw(_spelt(time_text))},{draw(_spelt(cause_text))}{extra}")
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(_EXTRA_LINES)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end])), T


def _corrupt(lines, kind, k, T, p):
    """One of the benchmark's corruptions of a file whose lines[1] is its
    header and lines[k] one of its rows (with a row after it for 'order' and
    'duplicate')."""
    time_text, cause_text = lines[k].split(",")
    lines[k] = {"time_text": f"abc,{cause_text}", "cause_text": f"{time_text},x",
                "cause_zero": f"{time_text},0", "beyond_T": f"{T * 1.5!r},{cause_text}",
                "negative": f"-1.5,{cause_text}", "fields": lines[k] + ",9",
                "label": f"{time_text},{p + 1}"}.get(kind, lines[k])
    if kind == "header":
        lines[1] = "t,c"
    elif kind == "no_header":
        del lines[1]
    elif kind == "order":
        lines[k], lines[k + 1] = lines[k + 1], lines[k]
    elif kind == "duplicate":
        lines[k + 1] = f"{time_text},{lines[k + 1].split(',')[1]}"


def _outcome(parse, text, T, num_causes):
    """What a reader makes of a text: the history's repr, or the error's type and message."""
    try:
        return repr(parse(text, T, num_causes))
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
        return type(exc).__name__, str(exc)


class TestBulkReader:
    """parse_history reads a body of number pairs in bulk and anything else
    line by line; either way it must give what the per-line reader gave."""

    @settings(max_examples=600, deadline=None)
    @given(case=_history_texts(), num_causes=st.one_of(st.none(), st.integers(1, 5)))
    def test_matches_the_per_line_reader(self, case, num_causes):
        text, T = case
        assert _outcome(parse_history, text, T, num_causes) == \
            _outcome(reference.parse_history, text, T, num_causes)

    @pytest.mark.parametrize("kind", MALFORMED)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_on_the_benchmark_corruptions(self, kind, data):
        T, p, rows = data.draw(_history_rows().filter(lambda case: len(case[2]) >= 2))
        num_causes = data.draw(st.sampled_from([None, p]))  # the benchmark passes p
        lines = ["# generated", "time,cause", *(",".join(row) for row in rows)]
        k = data.draw(st.integers(2, len(lines) - 2 if kind in ("order", "duplicate")
                                  else len(lines) - 1))
        _corrupt(lines, kind, k, T, p)
        text = "\n".join(lines) + "\n"
        outcome = _outcome(parse_history, text, T, num_causes)
        assert outcome == _outcome(reference.parse_history, text, T, num_causes)
        assert outcome[0] == "ValidationError" or kind == "label" and num_causes is None

    @pytest.mark.parametrize("text", [
        'time,cause\r\n"3.5",1\r\n4.5,"2"\r\n',
        " time , cause \n 3.5 ,\t1 \n\t4.5 , 2\n",
        "# a note\n\ntime,cause\n3.5,1\n\n# between rows\n   \n4.5,2\n# at the end\n",
    ], ids=["quoted-crlf", "blanks", "comments-and-blank-lines"])
    def test_forms_the_readme_names(self, text):
        history = parse_history(text, 10.0)
        assert history.records == (FailureRecord(3.5, 1), FailureRecord(4.5, 2))
        assert repr(history) == repr(reference.parse_history(text, 10.0))


class TestFailureHistoryValidation:
    def test_rejects_time_at_truncation(self):
        with pytest.raises(ValidationError):
            FailureHistory((FailureRecord(10.0, 1),), 10.0, 1)
        # bool is an int subclass; a flag is never a window end or a count.
        for T in (True, "10", None):
            with pytest.raises(ValidationError, match="truncation_time"):
                FailureHistory((), T, 1)
            with pytest.raises(ValidationError, match="truncation_time"):
                parse_history(_csv([(0.5, 1)]), T)
        with pytest.raises(ValidationError, match="num_causes"):
            FailureHistory((), 10.0, True)
        with pytest.raises(ValidationError, match="num_causes"):
            parse_history(_csv([(0.5, 1)]), 10.0, num_causes="3")

    def test_rejects_record_of_wrong_type(self):
        # Each record is held to the number rule: a flag is neither a time
        # nor a cause, and text is not a time.
        for record, match in ((FailureRecord(True, 1), "record 1: time"),
                              (FailureRecord(1.0, True), "record 1: cause"),
                              (FailureRecord("1.0", 1), "record 1: time"),
                              (FailureRecord(1.0, np.int64(1)), "record 1: cause")):
            with pytest.raises(ValidationError, match=match):
                FailureHistory((record,), 10.0, 1)
        # numpy's float64 is a float.
        assert FailureHistory((FailureRecord(np.float64(1.0), 1),), 10.0, 1).n == 1

    def test_rejects_cause_above_p(self):
        with pytest.raises(ValidationError):
            FailureHistory((FailureRecord(1.0, 2),), 10.0, 1)

    def test_rejects_unsorted(self):
        records = (FailureRecord(2.0, 1), FailureRecord(1.0, 1))
        with pytest.raises(ValidationError):
            FailureHistory(records, 10.0, 1)


class TestCauseStats:
    def test_single_record_unit_log(self):
        T = 10.0
        history = FailureHistory((FailureRecord(T / E, 1),), T, 1)
        stats = cause_stats(history)
        assert stats.counts == (1,)
        assert abs(stats.log_sums[0] - 1.0) < 1e-14

    def test_two_records_sum(self):
        T = 10.0
        records = (FailureRecord(T / E**2, 1), FailureRecord(T / E, 1))
        stats = cause_stats(FailureHistory(records, T, 1))
        assert stats.counts == (2,)
        assert abs(stats.log_sums[0] - 3.0) < 1e-13

    def test_totals_consistent(self):
        stats = cause_stats(harvester_fixture())
        assert stats.n == 48
        assert abs(stats.log_sum_total - sum(stats.log_sums)) < 1e-12
        assert all(s > 0 for s in stats.log_sums)

    def test_relabel_equivariance(self):
        # Swapping cause labels permutes (n_j, S_j) identically.
        original = harvester_fixture()
        perm = {1: 3, 2: 1, 3: 2}
        relabeled = FailureHistory(
            tuple(FailureRecord(r.time, perm[r.cause]) for r in original.records),
            original.truncation_time, original.num_causes)
        s0, s1 = cause_stats(original), cause_stats(relabeled)
        for old, new in perm.items():
            assert s1.counts[new - 1] == s0.counts[old - 1]
            assert s1.log_sums[new - 1] == s0.log_sums[old - 1]


class TestHarvesterFixture:
    def test_counts_per_cause(self):
        stats = cause_stats(harvester_fixture())
        assert stats.counts == (10, 24, 14)

    def test_first_and_last_records(self):
        history = harvester_fixture()
        assert history.records[0] == FailureRecord(4.987, 1)
        assert history.records[-1] == FailureRecord(234.641, 3)
        assert history.truncation_time == HARVESTER_TRUNCATION_TIME == 254.0
        assert history.num_causes == 3

    def test_warranty_counts(self):
        assert WARRANTY_CLAIM_COUNTS == (99, 118, 155)
        assert sum(WARRANTY_CLAIM_COUNTS) == 372
