"""Estimator tests: closed-form MLEs, bias correction, posterior laws,
intervals, and the MLE as the log-likelihood's stationary point, each through
the kernel `fit` or the estimate table and checked against an independent
computation."""
from __future__ import annotations

import itertools
import math
import re
import reprlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from histories import stream, uniforms
from plpcr import inference
from plpcr.data import CauseStats, FailureHistory, FailureRecord, cause_stats, harvester_fixture
from plpcr.errors import (
    DomainError,
    EstimationError,
    ImproperPosteriorError,
    UnsupportedModelError,
)
from plpcr.inference import (
    ALL_METHODS,
    EstimateRow,
    EstimateTable,
    Method,
    Model,
    PointConvention,
    alpha_laws_from_counts,
    build_estimate_table,
    fit,
)
from plpcr.numerics import GammaParams, gamma_quantile, reg_gamma_p
from reference import log_likelihood, scalar_cells

E = math.e


def _history(rows: list[tuple[float, int]], T: float, p: int | None = None) -> FailureHistory:
    records = tuple(FailureRecord(t, c) for t, c in sorted(rows))
    return FailureHistory(records, T, p or max(c for _, c in rows))


def _harvester_stats():
    return cause_stats(harvester_fixture())


# Sums of log(T/t) per cause recomputed independently (numpy arithmetic over
# the raw dataset), frozen here as regression anchors.
HARVESTER_LOG_SUMS = (17.962666641192005, 21.968109437053258, 10.548708582328636)
HARVESTER_BETA_HAT = (0.5567102145662488, 1.0924927367450012, 1.3271766767216435)


def test_frozen_anchors_match_recomputation():
    history = harvester_fixture()
    T = history.truncation_time
    for j in range(1, 4):
        times = np.array(history.times_for_cause(j))
        s = float(np.sum(np.log(T / times)))
        assert abs(s - HARVESTER_LOG_SUMS[j - 1]) < 1e-10
        assert abs(len(times) / s - HARVESTER_BETA_HAT[j - 1]) < 1e-12


def _cells(stats, method: Method, level: float = 0.95,
           convention: PointConvention = PointConvention.MAP):
    """fit's (beta, alpha) cells over the causes of `stats`."""
    return fit(method, stats.counts, stats.log_sums, level, convention)


def _table_rows(stats, method: Method, model: Model = Model.DISTINCT) -> dict:
    """One method's estimate-table rows by parameter name."""
    return {r.parameter: r for r in build_estimate_table(stats, (method,), model).rows}


class TestMleDistinct:
    def test_single_unit_log_record(self):
        T = 7.0
        stats = cause_stats(_history([(T / E, 1)], T))
        beta, alpha = _cells(stats, Method.MLE)
        assert abs(beta.point[0] - 1.0) < 1e-14
        assert alpha.point == (1.0,)

    def test_two_records(self):
        T = 7.0
        stats = cause_stats(_history([(T / E, 1), (T / math.sqrt(E), 1)], T))
        assert abs(stats.log_sums[0] - 1.5) < 1e-13
        beta, _ = _cells(stats, Method.MLE)
        assert abs(beta.point[0] - 4.0 / 3.0) < 1e-13

    def test_harvester(self):
        beta, alpha = _cells(_harvester_stats(), Method.MLE)
        np.testing.assert_allclose(beta.point, HARVESTER_BETA_HAT, rtol=1e-12)
        assert alpha.point == (10.0, 24.0, 14.0)

    def test_requires_failures_everywhere(self):
        # The kernel refuses a cause without failures; the table leaves it out.
        stats = cause_stats(_history([(1.0, 1)], 10.0, p=2))
        with pytest.raises(DomainError, match=r"the count at index 1 is 0$"):
            _cells(stats, Method.MLE)
        table = build_estimate_table(stats, (Method.MLE,))
        assert [r.parameter for r in table.rows] == ["beta_1", "alpha_1"]
        assert table.warnings == ("cause 2: no failures observed; excluded from estimation",)


class TestMleSharedShape:
    def test_two_causes_one_record_each(self):
        T = 5.0
        stats = cause_stats(_history([(T / E, 1), (T / E * 1.0000001, 2)], T))
        rows = _table_rows(stats, Method.MLE, Model.SHARED)
        assert abs(rows["beta"].point - 1.0) < 1e-6
        assert (rows["alpha_1"].point, rows["alpha_2"].point) == (1.0, 1.0)

    def test_pooled_sum(self):
        T = 5.0
        stats = cause_stats(_history([(T / E, 1), (T / E**3, 2)], T))
        assert abs(_table_rows(stats, Method.MLE, Model.SHARED)["beta"].point - 0.5) < 1e-13

    def test_harvester_pooled(self):
        stats = _harvester_stats()
        rows = _table_rows(stats, Method.MLE, Model.SHARED)
        assert abs(rows["beta"].point - 48.0 / stats.log_sum_total) < 1e-14
        assert [rows[f"alpha_{j}"].point for j in (1, 2, 3)] == [10.0, 24.0, 14.0]

    def test_requires_any_failure(self):
        stats = cause_stats(FailureHistory((), 10.0, 2))
        with pytest.raises(EstimationError):
            build_estimate_table(stats, (Method.MLE,), Model.SHARED)


class TestCmle:
    def test_correction_factor(self):
        # n=10 at beta_hat=1 gives 0.9; synthesize S = 10 so n/S = 1.
        T = 100.0
        rows = [(T / math.exp(1.0 + 0.001 * i), 1) for i in range(10)]
        stats = cause_stats(_history(rows, T))
        scale = 10.0 / stats.log_sums[0]
        beta, _ = _cells(stats, Method.CMLE)
        assert abs(beta.point[0] - 0.9 * scale) < 1e-12

    def test_two_records(self):
        T = 7.0
        stats = cause_stats(_history([(T / E, 1), (T / math.sqrt(E), 1)], T))
        beta, _ = _cells(stats, Method.CMLE)
        assert abs(beta.point[0] - 2.0 / 3.0) < 1e-13

    def test_equals_reference_map(self):
        stats = _harvester_stats()
        corrected = _cells(stats, Method.CMLE)[0].point
        assert corrected == _cells(stats, Method.REFERENCE)[0].point
        for b, n, bhat in zip(corrected, stats.counts, HARVESTER_BETA_HAT):
            assert abs(b - (n - 1) / n * bhat) < 1e-12

    def test_requires_two_failures(self):
        # At n = 1 the corrected point (n - 1) / S is 0, so the table leaves
        # the cause out of the cmle rows and says why.
        stats = cause_stats(_history([(1.0, 1), (2.0, 2), (3.0, 2)], 10.0))
        assert _cells(stats, Method.CMLE)[0].point[0] == 0.0
        table = build_estimate_table(stats, (Method.CMLE,))
        assert [r.parameter for r in table.rows] == ["beta_2", "alpha_2"]
        assert table.warnings == ("cause 1: single failure; bias-corrected estimate "
                                  "degenerates at 0; excluded from cmle rows",)

    def test_shared_requires_two_total(self):
        stats = cause_stats(_history([(1.0, 1)], 10.0))
        table = build_estimate_table(stats, (Method.MLE, Method.CMLE), Model.SHARED)
        assert {r.method for r in table.rows} == {Method.MLE}
        assert "fewer than 2 failures in total; bias-corrected rows omitted" in table.warnings


# The tail masses of a 95% equal-tail interval, as the kernel computes them.
_TAILS = ((1.0 - 0.95) / 2.0, (1.0 + 0.95) / 2.0)


class TestPosteriors:
    def test_reference_laws(self):
        # Gamma(n_j, S_j) for each beta and Gamma(n_j + 1/2, 1) for each alpha.
        stats = _harvester_stats()
        beta, alpha = _cells(stats, Method.REFERENCE)
        for j, (n, s) in enumerate(zip(stats.counts, stats.log_sums)):
            for cells, law in ((beta, GammaParams(float(n), s)),
                               (alpha, GammaParams(n + 0.5, 1.0))):
                assert cells.sd[j] == math.sqrt(law.shape) / law.rate
                assert (cells.lo[j], cells.hi[j]) == tuple(gamma_quantile(law, q) for q in _TAILS)

    def test_jeffreys_alpha_shift(self):
        stats = _harvester_stats()
        ref_beta, ref_alpha = _cells(stats, Method.REFERENCE)
        jef_beta, jef_alpha = _cells(stats, Method.JEFFREYS)
        assert jef_beta == ref_beta
        for n, j_sd, r_sd, lo in zip(stats.counts, jef_alpha.sd, ref_alpha.sd, jef_alpha.lo):
            assert abs(j_sd**2 - r_sd**2 - 0.5) < 1e-12
            assert lo == gamma_quantile(GammaParams(n + 1.0, 1.0), _TAILS[0])

    def test_single_failure_exponential_beta_law(self):
        # At n = 1 the beta law is the exponential of rate S = 1: mean and sd 1.
        T = 7.0
        stats = cause_stats(_history([(T / E, 1)], T))
        beta, _ = _cells(stats, Method.REFERENCE, convention=PointConvention.MEAN)
        assert abs(beta.point[0] - 1.0) < 1e-14
        assert abs(beta.sd[0] - 1.0) < 1e-14

    def test_shared_reference_pools_beta(self):
        stats = _harvester_stats()
        table = build_estimate_table(stats, (Method.REFERENCE,), Model.SHARED)
        assert [r.parameter for r in table.rows] == ["beta", "alpha_1", "alpha_2", "alpha_3"]
        pooled, law = table.rows[0], GammaParams(48.0, stats.log_sum_total)
        assert pooled.sd == math.sqrt(48.0) / stats.log_sum_total
        assert (pooled.ci_lo, pooled.ci_hi) == tuple(gamma_quantile(law, q) for q in _TAILS)

    def test_shared_jeffreys_refused(self):
        with pytest.raises(UnsupportedModelError):
            build_estimate_table(_harvester_stats(), (Method.REFERENCE, Method.JEFFREYS),
                                 Model.SHARED)

    def test_improper_on_empty_cause(self):
        # Without failures a cause's alpha posterior is improper: the count-only
        # laws refuse it, and the table leaves the cause out.
        with pytest.raises(ImproperPosteriorError, match="cause 2"):
            alpha_laws_from_counts((1, 0))
        stats = cause_stats(_history([(1.0, 1)], 10.0, p=2))
        for method in (Method.JEFFREYS, Method.REFERENCE):
            assert list(_table_rows(stats, method)) == ["beta_1", "alpha_1"]

    def test_warranty_count_laws(self):
        laws = alpha_laws_from_counts((99, 118, 155))
        assert [law.shape for law in laws] == [99.5, 118.5, 155.5]
        jeff = alpha_laws_from_counts((99, 118, 155), Method.JEFFREYS)
        assert [law.shape for law in jeff] == [100.0, 119.0, 156.0]

    def test_scale_equivariance(self):
        # Doubling all times and T leaves every estimate unchanged (exactly
        # so, since binary scaling preserves the time ratios).
        original = harvester_fixture()
        doubled = FailureHistory(
            tuple(FailureRecord(2.0 * r.time, r.cause) for r in original.records),
            2.0 * original.truncation_time, original.num_causes)
        assert (build_estimate_table(cause_stats(original))
                == build_estimate_table(cause_stats(doubled)))

    def test_scale_equivariance_nonbinary(self):
        original = harvester_fixture()
        c = 3.7
        scaled = FailureHistory(
            tuple(FailureRecord(c * r.time, r.cause) for r in original.records),
            c * original.truncation_time, original.num_causes)
        rows_a = build_estimate_table(cause_stats(original)).rows
        rows_b = build_estimate_table(cause_stats(scaled)).rows
        for a, b in zip(rows_a, rows_b, strict=True):
            assert (a.parameter, a.method) == (b.parameter, b.method)
            for field in ("point", "sd", "sd_paper_compat", "ci_lo", "ci_hi"):
                assert getattr(b, field) == pytest.approx(getattr(a, field), rel=1e-12, abs=1e-12)


class TestBayesPoints:
    def test_map_tracks_bias_correction(self):
        # (9/10) * 0.6144 = 0.553 to three decimals.
        T = 100.0
        rows = [(T / math.exp(1.0 / 0.6144 + 0.0001 * i), 1) for i in range(10)]
        stats = cause_stats(_history(rows, T))
        point = _cells(stats, Method.REFERENCE)[0].point[0]
        assert abs(point - 0.9 * (10.0 / stats.log_sums[0])) < 1e-12
        assert round(point, 3) == 0.553

    def test_alpha_points_are_counts(self):
        for method, convention in itertools.product(ALL_METHODS, PointConvention):
            alpha = _cells(_harvester_stats(), method, convention=convention)[1]
            assert alpha.point == (10.0, 24.0, 14.0)

    def test_mean_convention(self):
        stats = _harvester_stats()
        beta, _ = _cells(stats, Method.REFERENCE, convention=PointConvention.MEAN)
        np.testing.assert_allclose(beta.point, HARVESTER_BETA_HAT, rtol=1e-12)
        assert build_estimate_table(stats, convention=PointConvention.MEAN).warnings == ()

    def test_degenerate_map_at_single_failure(self):
        T = 7.0
        stats = cause_stats(_history([(T / E, 1)], T))
        assert _cells(stats, Method.REFERENCE)[0].point == (0.0,)
        warnings = build_estimate_table(stats, (Method.REFERENCE,)).warnings
        assert warnings == ("cause 1: single failure; the MAP beta point is 0 (posterior mode "
                            "at the boundary); use --point mean for the posterior mean",)


class TestCredibleInterval:
    def test_harvester_alpha1(self):
        alpha = _cells(_harvester_stats(), Method.REFERENCE)[1]
        assert abs(alpha.lo[0] - 5.141) < 1e-3
        assert abs(alpha.hi[0] - 17.739) < 1e-3

    def test_warranty_alpha3(self):
        # Direct quantile check on the count-only law.
        laws = alpha_laws_from_counts((99, 118, 155))
        lo = gamma_quantile(laws[2], 0.025)
        hi = gamma_quantile(laws[2], 0.975)
        assert abs(lo - 132.020) < 1e-3
        assert abs(hi - 180.874) < 1e-3

    def test_exponential_law_closed_form(self):
        # Gamma(1,1) equal-tail bounds are -log(1 -/+ tail mass).
        T = 7.0
        stats = cause_stats(_history([(T / E, 1)], T))
        beta, _ = _cells(stats, Method.REFERENCE)
        lo, hi = beta.lo[0], beta.hi[0]
        assert abs(lo - (-math.log(0.975))) < 1e-4
        assert abs(hi - (-math.log(0.025))) < 1e-4
        assert abs(lo - 0.02532) < 1e-4
        assert abs(hi - 3.68888) < 1e-4

    def test_mass_matches_level(self):
        stats = _harvester_stats()
        for method, level in itertools.product((Method.JEFFREYS, Method.REFERENCE), (0.5, 0.95)):
            beta, alpha = _cells(stats, method, level)
            offset = 1.0 if method is Method.JEFFREYS else 0.5
            for j, (n, s) in enumerate(zip(stats.counts, stats.log_sums)):
                for cells, shape, rate in ((beta, n, s), (alpha, n + offset, 1.0)):
                    mass = (reg_gamma_p(shape, rate * cells.hi[j])
                            - reg_gamma_p(shape, rate * cells.lo[j]))
                    assert abs(mass - level) < 1e-8

    def test_level_domain(self):
        stats = _harvester_stats()
        for level in (0.0, 1.0):
            with pytest.raises(DomainError):
                _cells(stats, Method.REFERENCE, level)
            with pytest.raises(DomainError):
                build_estimate_table(stats, (Method.REFERENCE,), level=level)


class TestIntervalProperties:
    """Order properties of every method's intervals, over (n, S) and levels."""

    _levels = st.lists(st.integers(1, 99), min_size=2, max_size=2, unique=True).map(
        lambda pair: tuple(sorted(k / 100.0 for k in pair)))

    @staticmethod
    def _methods(n: int) -> tuple[Method, ...]:
        # At n = 1 the cmle point and its Wald interval collapse to 0.
        return ALL_METHODS if n >= 2 else (Method.MLE, Method.JEFFREYS, Method.REFERENCE)

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 10_000), s=st.floats(1e-3, 1e4), levels=_levels)
    def test_intervals_nest_as_level_grows(self, n, s, levels):
        for method in self._methods(n):
            inner, outer = (fit(method, [n], [s], level) for level in levels)
            for small, large in zip(inner, outer):
                assert large.lo[0] < small.lo[0] and small.hi[0] < large.hi[0]

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 10_000), s=st.floats(1e-3, 1e4),
           level=st.floats(0.01, 0.99), convention=st.sampled_from(list(PointConvention)))
    def test_lower_below_upper(self, n, s, level, convention):
        for method in self._methods(n):
            for cells in fit(method, [n], [s], level, convention):
                assert cells.lo[0] < cells.hi[0]

    @settings(max_examples=150, deadline=None)
    @given(shape=st.floats(0.5, 1e4), rate=st.floats(1e-3, 1e3),
           qs=st.lists(st.integers(1, 999), min_size=2, max_size=2, unique=True))
    def test_gamma_quantile_increases(self, shape, rate, qs):
        lo, hi = sorted(k / 1000.0 for k in qs)
        law = GammaParams(shape, rate)
        assert gamma_quantile(law, lo) < gamma_quantile(law, hi)


class TestWaldInterval:
    """The kernel's Wald cells for mle and cmle."""

    @staticmethod
    def _stats_with(n: int, beta_hat: float, T: float = 100.0):
        # n records engineered so that S = n / beta_hat.
        target = n / beta_hat
        base = target / n
        offsets = np.linspace(-0.001, 0.001, n)
        rows = [(T / math.exp(base + o), 1) for o in offsets]
        stats = cause_stats(_history(rows, T))
        np.testing.assert_allclose(stats.log_sums[0], target, rtol=1e-6)
        return stats

    @staticmethod
    def _interval(stats, method: Method, family: int, level: float):
        cells = fit(method, stats.counts, stats.log_sums, level)[family]
        return cells.lo[0], cells.hi[0]

    def test_mle_beta_interval(self):
        stats = self._stats_with(100, 1.0)
        lo, hi = self._interval(stats, Method.MLE, 0, 0.95)
        bhat = 100.0 / stats.log_sums[0]
        z = 1.959963984540054  # standard normal 97.5% point
        assert abs(lo - (bhat - z * bhat / 10.0)) < 1e-9
        assert abs(hi - (bhat + z * bhat / 10.0)) < 1e-9
        assert abs(lo - 0.804) < 1e-3
        assert abs(hi - 1.196) < 1e-3

    def test_mle_alpha_interval(self):
        T = 10.0
        rows = [(T * (i + 1) / 26.0, 1) for i in range(25)]
        stats = cause_stats(_history(rows, T))
        lo, hi = self._interval(stats, Method.MLE, 1, 0.95)
        assert abs(lo - (25.0 - 1.959963984540054 * 5.0)) < 1e-9
        assert abs(hi - (25.0 + 1.959963984540054 * 5.0)) < 1e-9
        assert abs(lo - 15.2) < 0.1
        assert abs(hi - 34.8) < 0.1

    def test_cmle_interval_recenters(self):
        stats = self._stats_with(10, 1.0)
        bhat = 10.0 / stats.log_sums[0]
        corrected = 0.9 * bhat
        lo, hi = self._interval(stats, Method.CMLE, 0, 0.95)
        z = 1.959963984540054
        assert abs((lo + hi) / 2.0 - corrected) < 1e-9
        assert abs((hi - lo) / 2.0 - z * corrected / math.sqrt(10.0)) < 1e-9

    def test_interval_not_truncated_at_zero(self):
        T = 10.0
        stats = cause_stats(_history([(T / E, 1), (T / E**2, 1)], T))
        lo, _ = self._interval(stats, Method.MLE, 1, 0.99)
        assert lo < 0.0


class TestFitKernel:
    @settings(max_examples=60, deadline=None)
    @given(causes=st.lists(st.tuples(st.integers(1, 300), st.floats(1e-3, 1e4)),
                           min_size=1, max_size=4),
           level=st.sampled_from([0.5, 0.9, 0.95]),
           convention=st.sampled_from(list(PointConvention)))
    def test_cell_families_share_their_cells(self, causes, level, convention):
        # Methods of one family (inference._FAMILY) give equal cells, and methods
        # of different families do not, so a study may fit each family once
        # through the method that names it.
        counts = tuple(float(n) for n, _ in causes)
        log_sums = tuple(s for _, s in causes)
        halves = (lambda m: inference._beta_cells(m, counts, log_sums, level, convention),
                  lambda m: inference._alpha_cells(m, counts, level))
        for half, cells in enumerate(halves):
            for a, b in itertools.combinations(ALL_METHODS, 2):
                same = inference._FAMILY[a][half] == inference._FAMILY[b][half]
                assert (cells(a) == cells(b)) == same, (half, a, b)
            for method in ALL_METHODS:
                family = inference._FAMILY[method][half]
                assert inference._FAMILY[family][half] == family

    @settings(max_examples=150, deadline=None)
    @given(causes=st.lists(st.tuples(st.integers(1, 300), st.floats(1e-3, 1e4)),
                           min_size=1, max_size=4),
           level=st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
           convention=st.sampled_from(list(PointConvention)))
    def test_cells_equal_library_estimators(self, causes, level, convention):
        # Same arithmetic as the scalar reference, so equal to the bit.
        counts = tuple(n for n, _ in causes)
        log_sums = tuple(s for _, s in causes)
        for method in ALL_METHODS:
            got = [list(zip(*family))
                   for family in fit(method, counts, log_sums, level, convention)]
            want = [scalar_cells(method, n, s, level, convention) for n, s in causes]
            assert got == [[beta for beta, _ in want], [alpha for _, alpha in want]]

    @settings(max_examples=150, deadline=None)
    @given(causes=st.lists(st.tuples(st.integers(0, 300), st.floats(1e-3, 1e4)),
                           min_size=1, max_size=4),
           level=st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
           convention=st.sampled_from(list(PointConvention)))
    def test_pooled_cells_equal_library_estimators(self, causes, level, convention):
        # A cause without failures has S_j = 0, as cause_stats gives it, and
        # adds only that 0 to the pooled sum.
        counts = tuple(n for n, _ in causes)
        assume(sum(counts) >= 1)
        log_sums = tuple(s if n else 0.0 for n, s in causes)
        stats = CauseStats(counts, log_sums, 1.0)
        table = build_estimate_table(stats, model=Model.SHARED, level=level,
                                     convention=convention)
        got = {(r.parameter, r.method): (r.point, r.sd, r.sd_paper_compat, r.ci_lo, r.ci_hi)
               for r in table.rows}
        assert all(r.level == level for r in table.rows)
        methods = [Method.MLE, Method.REFERENCE] + ([Method.CMLE] if sum(counts) >= 2 else [])
        want = {}
        for method in methods:
            want["beta", method] = scalar_cells(method, sum(counts), math.fsum(log_sums), level,
                                                convention)[0]
            for j, (n, s) in enumerate(zip(counts, log_sums), start=1):
                if n:
                    want[f"alpha_{j}", method] = scalar_cells(method, n, s, level, convention)[1]
        assert got == want

    def test_elementwise_over_replications(self):
        # A long input gives the cells of each entry alone, for a short input
        # and for a larger seeded one with repeated counts.
        rng = np.random.default_rng(8)
        inputs = [([2, 5, 7, 3, 2, 2], [0.5, 4.0, 3.5, 1.25, 9.0, 0.1]),
                  ((rng.poisson(6.0, 300) + 1).tolist(), rng.gamma(5.0, 1.0, 300).tolist())]
        for (counts, log_sums), method in itertools.product(inputs, ALL_METHODS):
            whole = fit(method, counts, log_sums, 0.9)
            for i, (n, s) in enumerate(zip(counts, log_sums)):
                single = fit(method, [n], [s], 0.9)
                assert [[c[i] for c in family] for family in whole] == [
                    [c[0] for c in family] for family in single]

    @pytest.mark.parametrize("log_sum", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive_log_sum(self, log_sum):
        # A library caller can build CauseStats by hand; S_j <= 0 with
        # failures counted is outside every estimator's domain, so the
        # statistics refuse it when they are built.
        with pytest.raises(DomainError, match=r"^cause 1 log sum must be"):
            CauseStats((1, 2), (log_sum, 1.0), 10.0)
        with pytest.raises(DomainError):
            fit(Method.MLE, (1, 2), (log_sum, 1.0), 0.95)
        # At -1 the pooled total would be 0, at 0 it would be positive.
        with pytest.raises(DomainError, match=r"^cause 1 log sum must be"):
            CauseStats((2, 3), (log_sum, 1.0), 10.0)

    def test_pooled_mles_accept_empty_cause(self):
        # A cause without failures has S_j = 0, which the pooled model accepts.
        stats = CauseStats((2, 3, 0), (0.5, 1.0, 0.0), 10.0)
        assert _table_rows(stats, Method.MLE, Model.SHARED)["beta"].point == 5.0 / 1.5
        assert _table_rows(stats, Method.CMLE, Model.SHARED)["beta"].point == 4.0 / 1.5

    def test_method_spellings(self):
        # A method or convention named by its value gives the cells of the
        # enum member.
        for method, convention in itertools.product(ALL_METHODS, PointConvention):
            spelled = fit(method.value, (3, 7), (1.5, 4.0), 0.9, convention.value)
            for got, want in zip(spelled, fit(method, (3, 7), (1.5, 4.0), 0.9, convention)):
                assert got == want
        assert fit("reference", [3], [1.0], 0.95, "map")[0].point == (2.0,)
        assert fit("reference", [3], [1.0], 0.95, "mean")[0].point == (3.0,)
        assert alpha_laws_from_counts((3,), "reference") == (GammaParams(3.5, 1.0),)
        assert alpha_laws_from_counts((3,), "jeffreys") == (GammaParams(4.0, 1.0),)
        # An unknown value is refused with the valid ones listed.
        for call, expected in (
                (lambda: fit("mle", (2,), (1.0,), 0.95, "median"), "map, mean"),
                (lambda: fit("bogus", (2,), (1.0,), 0.95), "mle, cmle, jeffreys, reference"),
                (lambda: alpha_laws_from_counts((3,), "bogus"), "mle, cmle, jeffreys, reference"),
        ):
            with pytest.raises(DomainError, match=f"expected one of {expected}"):
                call()
        for method in ("mle", Method.CMLE):
            with pytest.raises(DomainError, match="Bayes method"):
                alpha_laws_from_counts((3,), method)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError, match="expected one of mle, cmle, jeffreys, reference"):
            fit("wald", (2,), (1.0,), 0.95)
        with pytest.raises(DomainError):
            fit(Method.REFERENCE, (0,), (1.0,), 0.95)
        with pytest.raises(DomainError):
            fit(Method.MLE, (2,), (1.0,), 1.0)
        # Counts and log sums must be lists or tuples of numbers of one length,
        # the counts finite whole numbers; each fault is refused for every method.
        for counts, log_sums in (([2.5], [1.0]), ([math.inf], [1.0]), ([math.nan], [1.0]),
                                 ([1, 2], [1.0]), ([[2, 3]], [1.0, 2.0]), (["a"], [1.0]),
                                 ([2], ["a"]), ([[2], [3, 4]], [1.0]), ([10**400], [1.0]),
                                 (np.array([2, 3]), [1.0, 2.0]), ("23", [1.0, 2.0]),
                                 # float() reads a numeric string and a bool; neither is a number.
                                 (["3", True], [1.0, 2.0]), (["3"], [1.0]), ([True], [1.0]),
                                 ([2], ["1.5"]), ([2], [True]), ([np.int64(2)], [1.0])):
            for method in ALL_METHODS:
                with pytest.raises(DomainError):
                    fit(method, counts, log_sums, 0.95)
        # numpy's float64 is a float, so it passes as a count and as a log sum.
        assert (fit(Method.MLE, [np.float64(3.0)], [np.float64(1.5)], 0.95)
                == fit(Method.MLE, [3], [1.5], 0.95))

    def test_fault_message_names_the_entry(self):
        # One bad entry in a study-sized input: the message gives the length and
        # the first bad entry's index and value, not the whole input.
        counts, log_sums = [3.0] * 131_072, [1.0] * 131_072
        counts[777], log_sums[1400] = 2.5, math.nan
        for method in ALL_METHODS:
            with pytest.raises(DomainError) as caught:
                fit(method, counts, log_sums, 0.95)
            message = str(caught.value)
            assert "of 131072 entries" in message and "count at index 777 is 2.5" in message
            assert len(message) < 200
        counts[777] = 3.0
        with pytest.raises(DomainError, match=r"log sum at index 1400 is nan"):
            fit(Method.MLE, counts, log_sums, 0.95)
        with pytest.raises(DomainError, match=r"^131072 counts and 65536 log sums differ "
                                              r"in length$"):
            fit(Method.MLE, counts, log_sums[:65_536], 0.95)
        # An entry that is not a number is named by its index and a shortened repr.
        for bad in ("a", "a" * 131_072, 10**400, [2, 3], "3", True):
            with pytest.raises(DomainError, match=r"of 131072 entries, the count at index 5 is "
                                                  + re.escape(reprlib.repr(bad))) as caught:
                fit(Method.MLE, [2] * 5 + [bad] * 131_067, [1.0] * 131_072, 0.95)
            assert len(str(caught.value)) < 200


class TestLogLikelihood:
    def test_empty_history_is_minus_alpha(self):
        history = FailureHistory((), 10.0, 1)
        assert log_likelihood([1.3], [2.5], history) == -2.5

    def test_single_record_closed_form(self):
        T = 10.0
        history = _history([(T / E, 1)], T)
        # log intensity at the failure minus the expected total count.
        expected = -math.log(T) - 1.0
        assert abs(log_likelihood([1.0], [1.0], history) - expected) < 1e-12

    def test_agrees_with_pointwise_construction(self):
        # Independent oracle: sum of the log cause-specific intensities
        # (beta * alpha / T) * (t / T)^(beta - 1) at the failures minus the
        # expected counts on (0, T], alpha * (T / T)^beta = alpha.
        history = harvester_fixture()
        T = history.truncation_time
        beta, alpha = (0.6, 1.1, 1.4), (9.0, 25.0, 13.0)
        direct = sum(math.log(beta[r.cause - 1] * alpha[r.cause - 1] / T
                              * (r.time / T) ** (beta[r.cause - 1] - 1.0))
                     for r in history.records)
        direct -= sum(alpha)
        assert abs(log_likelihood(beta, alpha, history) - direct) < 1e-9

    def test_maximized_at_mle(self):
        history = harvester_fixture()
        stats = cause_stats(history)
        beta, alpha = (list(cells.point) for cells in _cells(stats, Method.MLE))
        at_mle = log_likelihood(beta, alpha, history)
        for db in (-0.01, 0.01):
            for da in (-0.1, 0.1):
                assert log_likelihood([b + db for b in beta], [a + da for a in alpha],
                                      history) <= at_mle

    def test_gradient_zero_at_mle(self):
        history = harvester_fixture()
        stats = cause_stats(history)
        mle = [cells.point for cells in _cells(stats, Method.MLE)]
        h = 1e-6
        for j in range(3):
            for family, step in ((0, h), (1, 10 * h)):
                def value(eps: float) -> float:
                    beta, alpha = (list(points) for points in mle)
                    (beta, alpha)[family][j] += eps
                    return log_likelihood(beta, alpha, history)

                gradient = (value(step) - value(-step)) / (2.0 * step)
                assert abs(gradient) < 1e-6


class TestConditionalUnbiasedness:
    def test_corrected_estimator_mean(self):
        # With the count held fixed, times are independent draws with CDF
        # (t/T)^beta, so log(T/t) is exponential with rate beta.  The mean of
        # the corrected estimator over resampled times must sit within three
        # standard errors of the true beta.
        beta_true = 1.4
        n = 5
        M = 100_000
        u = uniforms(stream(77, 0), M * n).reshape(M, n)
        log_terms = -np.log(u) / beta_true  # log(T/t) draws
        s = log_terms.sum(axis=1)
        corrected = (n - 1) / s
        se = corrected.std(ddof=1) / math.sqrt(M)
        assert abs(corrected.mean() - beta_true) < 3.0 * se


class TestEstimateTable:
    def test_reference_rows_match_published_alpha_summary(self):
        table = build_estimate_table(_harvester_stats(), methods=(Method.REFERENCE,))
        rows = {r.parameter: r for r in table.rows}
        assert rows["alpha_1"].point == 10.0
        np.testing.assert_allclose(
            (rows["alpha_1"].ci_lo, rows["alpha_1"].ci_hi), (5.141, 17.739), atol=1e-3)
        np.testing.assert_allclose(
            (rows["alpha_2"].ci_lo, rows["alpha_2"].ci_hi), (15.777, 35.111), atol=1e-3)
        np.testing.assert_allclose(
            (rows["alpha_3"].ci_lo, rows["alpha_3"].ci_hi), (8.024, 22.861), atol=1e-3)
        assert abs(rows["alpha_1"].sd - math.sqrt(10.5)) < 1e-12
        assert abs(rows["alpha_1"].sd_paper_compat - math.sqrt(10.0)) < 1e-12

    def test_all_methods_schema(self):
        table = build_estimate_table(_harvester_stats())
        assert len(table.rows) == 6 * 4  # 6 parameters x 4 methods
        assert table.warnings == ()
        for row in table.rows:
            assert row.ci_lo < row.ci_hi
            assert row.level == 0.95

    def test_zero_count_cause_warns(self):
        stats = cause_stats(_history([(1.0, 1), (2.0, 1), (3.0, 1)], 10.0, p=2))
        table = build_estimate_table(stats)
        assert any("cause 2" in w for w in table.warnings)
        assert all("_2" not in r.parameter for r in table.rows)

    def test_single_count_cause_excluded_from_cmle(self):
        stats = cause_stats(_history([(1.0, 1), (2.0, 1), (3.0, 2)], 10.0))
        table = build_estimate_table(stats)
        cmle_params = {r.parameter for r in table.rows if r.method is Method.CMLE}
        assert "beta_2" not in cmle_params
        assert "beta_1" in cmle_params
        assert any("cause 2" in w for w in table.warnings)

    def test_no_failures_raises(self):
        stats = cause_stats(FailureHistory((), 10.0, 1))
        with pytest.raises(EstimationError, match="no failures"):
            build_estimate_table(stats)

    def test_empty_table_raises(self):
        # Every cause is excluded from every method chosen: an error that
        # names why, not a table of no rows.
        two = cause_stats(_history([(1.0, 1), (2.0, 2)], 5.0))
        with pytest.raises(EstimationError, match=r"^nothing to estimate for the chosen "
                                                  r"methods: cause 1: single failure.*; cause 2: "):
            build_estimate_table(two, methods=(Method.CMLE,))
        one = cause_stats(_history([(1.0, 1)], 5.0, p=2))
        with pytest.raises(EstimationError, match="fewer than 2 failures in total"):
            build_estimate_table(one, methods=(Method.CMLE,), model=Model.SHARED)
        # One other method is enough for a table.
        assert build_estimate_table(two, methods=(Method.CMLE, Method.MLE)).rows

    def test_refuses_what_cause_stats_leaves_open(self):
        # The table relies on a CauseStats having checked itself; a CauseStats
        # bounds neither a count nor the pooled log sum by the float range.
        with pytest.raises(DomainError, match="^stats must be a CauseStats, got tuple$"):
            build_estimate_table(((3,), (1.0,), 10.0))
        with pytest.raises(DomainError, match="beyond the float range"):
            build_estimate_table(CauseStats((10**400,), (1.0,), 10.0))
        with pytest.raises(DomainError, match="beyond the float range"):
            build_estimate_table(CauseStats((2, 2), (1e308, 1e308), 10.0), model=Model.SHARED)

    def test_shared_model_table(self):
        table = build_estimate_table(_harvester_stats(), model=Model.SHARED)
        params = {r.parameter for r in table.rows}
        assert "beta" in params
        assert "beta_1" not in params
        assert any("jeffreys" in w for w in table.warnings)
        methods_used = {r.method for r in table.rows}
        assert Method.JEFFREYS not in methods_used

    def test_map_beta_of_zero_warns(self):
        single = cause_stats(_history([(1.0, 1), (2.0, 2), (3.0, 2)], 10.0))
        flagged = [w for w in build_estimate_table(single).warnings if "MAP" in w]
        assert len(flagged) == 1
        assert flagged[0].startswith("cause 1:") and "--point mean" in flagged[0]
        one = cause_stats(_history([(1.0, 1)], 10.0, p=2))
        pooled = build_estimate_table(one, model=Model.SHARED).warnings
        assert any(w.startswith("beta:") and "--point mean" in w for w in pooled)
        for quiet in (build_estimate_table(single, methods=(Method.MLE, Method.CMLE)),
                      build_estimate_table(single, convention=PointConvention.MEAN),
                      build_estimate_table(_harvester_stats(), model=Model.SHARED)):
            assert not any("MAP" in w for w in quiet.warnings)

    def test_shared_model_explicit_jeffreys_rejected(self):
        with pytest.raises(UnsupportedModelError):
            build_estimate_table(_harvester_stats(), methods=(Method.JEFFREYS,),
                                 model=Model.SHARED)

    def test_method_spellings(self):
        stats = _harvester_stats()
        for model in Model:
            spelled = build_estimate_table(stats, tuple(m.value for m in ALL_METHODS), model)
            assert spelled == build_estimate_table(stats, ALL_METHODS, model)
        assert (build_estimate_table(stats, ("reference", "mle"))
                == build_estimate_table(stats, (Method.REFERENCE, Method.MLE)))
        with pytest.raises(DomainError, match="'bogus'"):
            build_estimate_table(stats, ("mle", "bogus"))
        # A repeated method adds no rows; the first-seen order stands.
        for repeated, once in ((("mle", "mle"), (Method.MLE,)),
                               (("reference", Method.REFERENCE), (Method.REFERENCE,)),
                               (("cmle", "mle", Method.CMLE), (Method.CMLE, Method.MLE))):
            table = build_estimate_table(stats, repeated)
            assert len(table.rows) == 6 * len(once)
            assert table == build_estimate_table(stats, once)
        # A model or convention named by its value gives the enum's table.
        for model, convention in itertools.product(Model, PointConvention):
            assert (build_estimate_table(stats, model=model.value, convention=convention.value)
                    == build_estimate_table(stats, model=model, convention=convention))
        assert {r.parameter for r in build_estimate_table(stats, model="shared").rows} == {
            "beta", "alpha_1", "alpha_2", "alpha_3"}
        with pytest.raises(UnsupportedModelError):
            build_estimate_table(stats, ("jeffreys",), "shared")
        with pytest.raises(DomainError, match="'bogus'; expected one of distinct, shared"):
            build_estimate_table(stats, model="bogus")
        with pytest.raises(DomainError, match="'median'; expected one of map, mean"):
            build_estimate_table(stats, convention="median")


@st.composite
def _histories(draw, min_causes=1):
    """A history of 1 to 30 failures over 1 to 4 causes, any of them empty."""
    p = draw(st.integers(min_causes, 4))
    T = draw(st.floats(1.0, 1000.0))
    fractions = draw(st.lists(st.floats(1e-6, 1.0, exclude_max=True), min_size=1, max_size=30))
    times = sorted({T * f for f in fractions} - {T})
    causes = draw(st.lists(st.integers(1, p), min_size=len(times), max_size=len(times)))
    return FailureHistory(tuple(map(FailureRecord, times, causes)), T, p)


def _relabel(history: FailureHistory, label: dict[int, int], p: int) -> FailureHistory:
    """The history with cause j renamed label[j]; causes missing from label are dropped."""
    records = tuple(FailureRecord(r.time, label[r.cause])
                    for r in history.records if r.cause in label)
    return FailureHistory(records, history.truncation_time, p)


def _renamer(label: dict[int, int]):
    """Renames the cause indices in parameter names and warnings."""
    pattern = re.compile(r"\b(beta_|alpha_|cause )(\d+)\b")
    return lambda text: pattern.sub(lambda m: m[1] + str(label[int(m[2])]), text)


def _rows(table: EstimateTable, rename=lambda name: name) -> dict:
    return {(rename(r.parameter), r.method): r._replace(parameter=rename(r.parameter))
            for r in table.rows}


class TestLabelInvariance:
    """Causes enter the likelihood as independent factors, so estimates do not
    depend on how the causes are numbered or on which other causes are kept."""

    @settings(max_examples=100, deadline=None)
    @given(history=_histories(), data=st.data(), model=st.sampled_from(list(Model)),
           convention=st.sampled_from(list(PointConvention)))
    def test_relabelling_permutes_rows(self, history, data, model, convention):
        p = history.num_causes
        label = dict(zip(range(1, p + 1), data.draw(st.permutations(range(1, p + 1)))))
        rename = _renamer(label)
        original = build_estimate_table(cause_stats(history), model=model,
                                        convention=convention)
        permuted = build_estimate_table(cause_stats(_relabel(history, label, p)), model=model,
                                        convention=convention)
        assert _rows(permuted) == _rows(original, rename)
        assert sorted(permuted.warnings) == sorted(map(rename, original.warnings))

    @settings(max_examples=100, deadline=None)
    @given(history=_histories(min_causes=2), data=st.data(),
           convention=st.sampled_from(list(PointConvention)))
    def test_marginalization(self, history, data, convention):
        # The larger history is the smaller one with cause k added, so this
        # checks dropping a cause and adding one alike.
        p = history.num_causes
        k = data.draw(st.integers(1, p))
        label = {j: i for i, j in enumerate((j for j in range(1, p + 1) if j != k), start=1)}
        reduced = _relabel(history, label, p - 1)
        assume(reduced.n > 0)
        full = build_estimate_table(cause_stats(history), convention=convention)
        part = build_estimate_table(cause_stats(reduced), convention=convention)
        rename = _renamer({**label, k: 0})
        others = {key: row for key, row in _rows(full, rename).items()
                  if not key[0].endswith("_0")}
        assert _rows(part) == others


_METHOD_NAMES = [*ALL_METHODS, *(m.value for m in ALL_METHODS)]


@st.composite
def _cause_stats(draw):
    """1 to 4 causes with 0 to 60 failures each, 0 and 1 often."""
    counts = draw(st.lists(st.one_of(st.sampled_from([0, 1]), st.integers(0, 60)),
                           min_size=1, max_size=4))
    log_sums = [draw(st.floats(1e-3, 1e3)) if n else 0.0 for n in counts]
    return CauseStats(tuple(counts), tuple(log_sums), 1.0)


def _rebuilt_table(stats, methods, model, level, convention):
    """The estimate table rebuilt cause by cause from scalar_cells, by the
    rules in build_estimate_table's docstring."""
    methods = list(dict.fromkeys(Method(m) for m in methods))
    pooled = model is Model.SHARED
    total = sum(stats.counts)
    if total == 0:
        raise EstimationError("no failures observed")
    if pooled and Method.JEFFREYS in methods and len(methods) < len(ALL_METHODS):
        raise UnsupportedModelError("the shared-shape Jeffreys posterior has no closed form")
    causes = [(j, n, s) for j, (n, s) in enumerate(zip(stats.counts, stats.log_sums), start=1)]
    warnings = [f"cause {j}: no failures observed; excluded from estimation"
                for j, n, _ in causes if n == 0]
    cells = {}
    for method in methods:
        if pooled and method is Method.JEFFREYS:
            warnings.append("jeffreys: no closed-form posterior under the shared-shape "
                            "model; rows omitted")
            continue
        if pooled and method is Method.CMLE and total < 2:
            warnings.append("fewer than 2 failures in total; bias-corrected rows omitted")
            continue
        if pooled:
            cells["beta", method] = scalar_cells(method, total, math.fsum(stats.log_sums),
                                                 level, convention)[0]
        for j, n, s in causes:
            if n == 1 and method is Method.CMLE and not pooled:
                warnings.append(f"cause {j}: single failure; bias-corrected estimate "
                                "degenerates at 0; excluded from cmle rows")
            elif n:
                beta, cells[f"alpha_{j}", method] = scalar_cells(method, n, s, level, convention)
                if not pooled:
                    cells[f"beta_{j}", method] = beta
    if convention is PointConvention.MAP and any(
            method in (Method.JEFFREYS, Method.REFERENCE) for _, method in cells):
        single = (["beta"] if total == 1 else []) if pooled else [
            f"cause {j}" for j, n, _ in causes if n == 1]
        warnings.extend(f"{label}: single failure; the MAP beta point is 0 (posterior mode "
                        "at the boundary); use --point mean for the posterior mean"
                        for label in single)
    names = ["beta"] if pooled else [f"beta_{j}" for j, _, _ in causes]
    names += [f"alpha_{j}" for j, _, _ in causes]
    rows = tuple(EstimateRow(name, method, *cells[name, method], level)
                 for name in names for method in methods if (name, method) in cells)
    if not rows:
        raise EstimationError("nothing to estimate for the chosen methods: "
                              + "; ".join(warnings))
    return EstimateTable(rows, tuple(warnings))


class TestTableAssembly:
    @settings(max_examples=300, deadline=None)
    @given(stats=_cause_stats(), methods=st.lists(st.sampled_from(_METHOD_NAMES), min_size=1,
                                                  max_size=6),
           model=st.sampled_from(list(Model)), level=st.sampled_from([0.5, 0.8, 0.95, 0.99]),
           convention=st.sampled_from(list(PointConvention)))
    def test_matches_scalar_rebuild(self, stats, methods, model, level, convention):
        # Row order and membership, every float to the bit (repr round-trips a
        # float and tells -0.0 and an int apart), the warnings, and the errors.
        try:
            want = _rebuilt_table(stats, methods, model, level, convention)
        except EstimationError as exc:
            with pytest.raises(EstimationError) as caught:
                build_estimate_table(stats, methods, model, level, convention)
            assert (type(caught.value), str(caught.value)) == (type(exc), str(exc))
            return
        got = build_estimate_table(stats, methods, model, level, convention)
        assert repr(got) == repr(want)
