"""Ingestion, validation, sufficient statistics, and the bundled dataset."""
from __future__ import annotations

import math

import pytest

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
        with pytest.raises(ValidationError, match="truncation"):
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
        with pytest.raises(ValidationError, match="positive"):
            parse_history(_csv([(-3.0, 1)]), 10.0)
        for text in ("1e400", "inf", "nan"):
            with pytest.raises(ValidationError, match="line 2: time must be finite"):
                parse_history(f"time,cause\n{text},1\n", 10.0)

    def test_missing_header_rejected(self):
        with pytest.raises(ValidationError, match="header"):
            parse_history("1.0,1\n", 10.0)

    def test_num_causes_override(self):
        history = parse_history(_csv([(1.0, 1)]), 10.0, num_causes=3)
        assert history.num_causes == 3
        assert cause_stats(history).counts == (1, 0, 0)

    def test_num_causes_override_below_observed(self):
        with pytest.raises(ValidationError, match="num_causes"):
            parse_history(_csv([(1.0, 2)]), 10.0, num_causes=1)

    def test_comments_ignored(self):
        text = "# provenance note\ntime,cause\n# interior note\n1.5,1\n"
        assert parse_history(text, 10.0).n == 1

    def test_roundtrip_identity(self):
        original = harvester_fixture()
        text = serialize_history(original)
        parsed = parse_history(text, original.truncation_time, original.num_causes)
        assert parsed == original
        assert serialize_history(parsed) == text


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
