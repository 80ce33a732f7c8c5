"""Estimator tests: closed-form MLEs, bias correction, posterior laws,
intervals, and the log-likelihood, each against an independent computation."""
from __future__ import annotations

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from histories import stream, uniforms
from plpcr.data import CauseStats, FailureHistory, FailureRecord, cause_stats, harvester_fixture
from plpcr.errors import (
    DomainError,
    EstimationError,
    ImproperPosteriorError,
    UnsupportedModelError,
    ValidationError,
)
from plpcr.inference import (
    ALL_METHODS,
    EstimateTable,
    Method,
    Model,
    PointConvention,
    alpha_laws_from_counts,
    bayes_points,
    build_estimate_table,
    cmle,
    credible_interval,
    fit,
    jeffreys_posterior,
    log_likelihood,
    mle_distinct,
    mle_shared_shape,
    reference_posterior,
)
from plpcr.model import PlpCauseParams, SystemParams, cumulative_intensity, intensity
from plpcr.numerics import GammaParams, normal_quantile

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


class TestMleDistinct:
    def test_single_unit_log_record(self):
        T = 7.0
        stats = cause_stats(_history([(T / E, 1)], T))
        est = mle_distinct(stats)
        assert abs(est.beta[0] - 1.0) < 1e-14
        assert est.alpha == (1.0,)

    def test_two_records(self):
        T = 7.0
        stats = cause_stats(_history([(T / E, 1), (T / math.sqrt(E), 1)], T))
        assert abs(stats.log_sums[0] - 1.5) < 1e-13
        est = mle_distinct(stats)
        assert abs(est.beta[0] - 4.0 / 3.0) < 1e-13

    def test_harvester(self):
        est = mle_distinct(_harvester_stats())
        np.testing.assert_allclose(est.beta, HARVESTER_BETA_HAT, rtol=1e-12)
        assert est.alpha == (10.0, 24.0, 14.0)

    def test_requires_failures_everywhere(self):
        stats = cause_stats(_history([(1.0, 1)], 10.0, p=2))
        with pytest.raises(EstimationError, match="cause 2"):
            mle_distinct(stats)


class TestMleSharedShape:
    def test_two_causes_one_record_each(self):
        T = 5.0
        stats = cause_stats(_history([(T / E, 1), (T / E * 1.0000001, 2)], T))
        est = mle_shared_shape(stats)
        assert abs(est.beta[0] - 1.0) < 1e-6
        assert est.alpha == (1.0, 1.0)

    def test_pooled_sum(self):
        T = 5.0
        stats = cause_stats(_history([(T / E, 1), (T / E**3, 2)], T))
        est = mle_shared_shape(stats)
        assert abs(est.beta[0] - 0.5) < 1e-13

    def test_harvester_pooled(self):
        stats = _harvester_stats()
        est = mle_shared_shape(stats)
        assert abs(est.beta[0] - 48.0 / stats.log_sum_total) < 1e-14
        assert est.alpha == (10.0, 24.0, 14.0)

    def test_requires_any_failure(self):
        stats = cause_stats(FailureHistory((), 10.0, 2))
        with pytest.raises(EstimationError):
            mle_shared_shape(stats)


class TestCmle:
    def test_correction_factor(self):
        # n=10 at beta_hat=1 gives 0.9; synthesize S = 10 so n/S = 1.
        T = 100.0
        rows = [(T / math.exp(1.0 + 0.001 * i), 1) for i in range(10)]
        stats = cause_stats(_history(rows, T))
        scale = 10.0 / stats.log_sums[0]
        est = cmle(stats)
        assert abs(est.beta[0] - 0.9 * scale) < 1e-12

    def test_two_records(self):
        T = 7.0
        stats = cause_stats(_history([(T / E, 1), (T / math.sqrt(E), 1)], T))
        est = cmle(stats)
        assert abs(est.beta[0] - 2.0 / 3.0) < 1e-13

    def test_equals_reference_map(self):
        stats = _harvester_stats()
        corrected = cmle(stats)
        mapped = bayes_points(reference_posterior(stats))
        assert corrected.beta == mapped.beta
        for b, n, bhat in zip(corrected.beta, stats.counts, HARVESTER_BETA_HAT):
            assert abs(b - (n - 1) / n * bhat) < 1e-12

    def test_requires_two_failures(self):
        stats = cause_stats(_history([(1.0, 1), (2.0, 2), (3.0, 2)], 10.0))
        with pytest.raises(EstimationError, match="cause 1"):
            cmle(stats)

    def test_shared_requires_two_total(self):
        stats = cause_stats(_history([(1.0, 1)], 10.0))
        with pytest.raises(EstimationError):
            cmle(stats, Model.SHARED)


class TestPosteriors:
    def test_reference_laws(self):
        stats = _harvester_stats()
        post = reference_posterior(stats)
        assert post.method is Method.REFERENCE
        for law, n, s in zip(post.beta_laws, stats.counts, stats.log_sums):
            assert law.shape == float(n)
            assert law.rate == s  # n / beta_hat collapses to the log sum
        for law, n in zip(post.alpha_laws, stats.counts):
            assert law.shape == n + 0.5
            assert law.rate == 1.0

    def test_jeffreys_alpha_shift(self):
        stats = _harvester_stats()
        ref = reference_posterior(stats)
        jef = jeffreys_posterior(stats)
        assert jef.beta_laws == ref.beta_laws
        for j_law, r_law in zip(jef.alpha_laws, ref.alpha_laws):
            assert j_law.shape - r_law.shape == 0.5
            assert j_law.rate == r_law.rate == 1.0

    def test_single_failure_exponential_beta_law(self):
        T = 7.0
        stats = cause_stats(_history([(T / E, 1)], T))
        post = reference_posterior(stats)
        assert post.beta_laws[0].shape == 1.0
        assert abs(post.beta_laws[0].rate - 1.0) < 1e-14

    def test_shared_reference_pools_beta(self):
        stats = _harvester_stats()
        post = reference_posterior(stats, Model.SHARED)
        assert len(post.beta_laws) == 1
        assert post.beta_laws[0].shape == 48.0
        assert abs(post.beta_laws[0].rate - stats.log_sum_total) < 1e-12
        assert len(post.alpha_laws) == 3

    def test_shared_jeffreys_refused(self):
        with pytest.raises(UnsupportedModelError):
            jeffreys_posterior(_harvester_stats(), Model.SHARED)

    def test_improper_on_empty_cause(self):
        stats = cause_stats(_history([(1.0, 1)], 10.0, p=2))
        with pytest.raises(ImproperPosteriorError, match="cause"):
            reference_posterior(stats)
        with pytest.raises(ImproperPosteriorError):
            jeffreys_posterior(stats)

    def test_warranty_count_laws(self):
        laws = alpha_laws_from_counts((99, 118, 155))
        assert [law.shape for law in laws] == [99.5, 118.5, 155.5]
        jeff = alpha_laws_from_counts((99, 118, 155), Method.JEFFREYS)
        assert [law.shape for law in jeff] == [100.0, 119.0, 156.0]

    def test_scale_equivariance(self):
        # Doubling all times and T leaves every posterior law unchanged
        # (exactly so, since binary scaling preserves the time ratios).
        original = harvester_fixture()
        doubled = FailureHistory(
            tuple(FailureRecord(2.0 * r.time, r.cause) for r in original.records),
            2.0 * original.truncation_time, original.num_causes)
        post_a = reference_posterior(cause_stats(original))
        post_b = reference_posterior(cause_stats(doubled))
        assert post_a.beta_laws == post_b.beta_laws
        assert post_a.alpha_laws == post_b.alpha_laws

    def test_scale_equivariance_nonbinary(self):
        original = harvester_fixture()
        c = 3.7
        scaled = FailureHistory(
            tuple(FailureRecord(c * r.time, r.cause) for r in original.records),
            c * original.truncation_time, original.num_causes)
        post_a = reference_posterior(cause_stats(original))
        post_b = reference_posterior(cause_stats(scaled))
        for a, b in zip(post_a.beta_laws, post_b.beta_laws):
            assert abs(a.rate - b.rate) <= 1e-12 * a.rate


class TestBayesPoints:
    def test_map_tracks_bias_correction(self):
        # (9/10) * 0.6144 = 0.553 to three decimals.
        T = 100.0
        rows = [(T / math.exp(1.0 / 0.6144 + 0.0001 * i), 1) for i in range(10)]
        stats = cause_stats(_history(rows, T))
        post = reference_posterior(stats)
        points = bayes_points(post)
        assert abs(points.beta[0] - 0.9 * (10.0 / stats.log_sums[0])) < 1e-12
        assert round(points.beta[0], 3) == 0.553

    def test_alpha_points_are_counts(self):
        post = reference_posterior(_harvester_stats())
        points = bayes_points(post)
        assert points.alpha == (10.0, 24.0, 14.0)
        assert bayes_points(post, PointConvention.MEAN).alpha == (10.0, 24.0, 14.0)

    def test_mean_convention(self):
        stats = _harvester_stats()
        points = bayes_points(reference_posterior(stats), PointConvention.MEAN)
        np.testing.assert_allclose(points.beta, HARVESTER_BETA_HAT, rtol=1e-12)
        assert points.beta_degenerate == (False, False, False)

    def test_degenerate_map_at_single_failure(self):
        T = 7.0
        stats = cause_stats(_history([(T / E, 1)], T))
        points = bayes_points(reference_posterior(stats))
        assert points.beta == (0.0,)
        assert points.beta_degenerate == (True,)


class TestCredibleInterval:
    def test_harvester_alpha1(self):
        post = reference_posterior(_harvester_stats())
        lo, hi = credible_interval(post, "alpha_1", 0.95)
        assert abs(lo - 5.141) < 1e-3
        assert abs(hi - 17.739) < 1e-3

    def test_warranty_alpha3(self):
        laws = alpha_laws_from_counts((99, 118, 155))
        post_like = reference_posterior(
            cause_stats(harvester_fixture()))
        # Direct quantile check on the count-only law.
        from plpcr.numerics import gamma_quantile
        lo = gamma_quantile(laws[2], 0.025)
        hi = gamma_quantile(laws[2], 0.975)
        assert abs(lo - 132.020) < 1e-3
        assert abs(hi - 180.874) < 1e-3

    def test_exponential_law_closed_form(self):
        # Gamma(1,1) equal-tail bounds are -log(1 -/+ tail mass).
        T = 7.0
        stats = cause_stats(_history([(T / E, 1)], T))
        post = reference_posterior(stats)
        lo, hi = credible_interval(post, "beta_1", 0.95)
        assert abs(lo - (-math.log(0.975))) < 1e-4
        assert abs(hi - (-math.log(0.025))) < 1e-4
        assert abs(lo - 0.02532) < 1e-4
        assert abs(hi - 3.68888) < 1e-4

    def test_mass_matches_level(self):
        from plpcr.numerics import reg_gamma_p
        post = reference_posterior(_harvester_stats())
        for name in ("beta_1", "beta_2", "beta_3", "alpha_1", "alpha_2", "alpha_3"):
            law = post.law_for(name)
            lo, hi = credible_interval(post, name, 0.95)
            mass = reg_gamma_p(law.shape, law.rate * hi) - reg_gamma_p(law.shape, law.rate * lo)
            assert abs(mass - 0.95) < 1e-8

    def test_level_domain(self):
        post = reference_posterior(_harvester_stats())
        with pytest.raises(DomainError):
            credible_interval(post, "alpha_1", 1.0)
        with pytest.raises(DomainError):
            credible_interval(post, "nonsense", 0.95)


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
    @settings(max_examples=150, deadline=None)
    @given(causes=st.lists(st.tuples(st.integers(1, 300), st.floats(1e-3, 1e4)),
                           min_size=1, max_size=4),
           level=st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
           convention=st.sampled_from(list(PointConvention)))
    def test_cells_equal_library_estimators(self, causes, level, convention):
        # Same arithmetic as the reference functions, so equal to the bit.
        counts = tuple(n for n, _ in causes)
        log_sums = tuple(s for _, s in causes)
        stats = CauseStats(counts, log_sums, 1.0)
        z = normal_quantile((1.0 + level) / 2.0)
        references = [(Method.MLE, mle_distinct(stats))]
        if min(counts) >= 2:
            references.append((Method.CMLE, cmle(stats)))
        for method, est in references:
            beta, alpha = fit(method, counts, log_sums, level, convention)
            assert beta.point.tolist() == list(est.beta)
            assert alpha.point.tolist() == list(est.alpha)
            for cells, se in ((beta, [b / math.sqrt(n) for b, n in zip(est.beta, counts)]),
                              (alpha, [math.sqrt(n) for n in counts])):
                assert cells.sd.tolist() == cells.sd_paper_compat.tolist() == se
                assert cells.lo.tolist() == [p - z * e for p, e in zip(cells.point, se)]
                assert cells.hi.tolist() == [p + z * e for p, e in zip(cells.point, se)]
        for method, post in ((Method.JEFFREYS, jeffreys_posterior(stats)),
                             (Method.REFERENCE, reference_posterior(stats))):
            beta, alpha = fit(method, counts, log_sums, level, convention)
            points = bayes_points(post, convention)
            assert beta.point.tolist() == list(points.beta)
            assert alpha.point.tolist() == list(points.alpha)
            assert beta.sd.tolist() == beta.sd_paper_compat.tolist() == [
                law.sd for law in post.beta_laws]
            assert alpha.sd.tolist() == [law.sd for law in post.alpha_laws]
            assert alpha.sd_paper_compat.tolist() == [math.sqrt(n) for n in counts]
            for kind, cells in (("beta", beta), ("alpha", alpha)):
                for j in range(len(counts)):
                    assert (cells.lo[j], cells.hi[j]) == credible_interval(
                        post, f"{kind}_{j + 1}", level)

    @settings(max_examples=150, deadline=None)
    @given(causes=st.lists(st.tuples(st.integers(0, 300), st.floats(1e-3, 1e4)),
                           min_size=1, max_size=4),
           level=st.sampled_from([0.5, 0.8, 0.9, 0.95, 0.99]),
           convention=st.sampled_from(list(PointConvention)))
    def test_pooled_cells_equal_library_estimators(self, causes, level, convention):
        # A cause without failures has S_j = 0, as cause_stats gives it.
        counts = tuple(n for n, _ in causes)
        assume(sum(counts) >= 1)
        log_sums = tuple(s if n else 0.0 for n, s in causes)
        stats = CauseStats(counts, log_sums, 1.0)
        usable = [j for j, n in enumerate(counts, start=1) if n >= 1]
        table = build_estimate_table(stats, model=Model.SHARED, level=level,
                                     convention=convention)
        got = {(r.parameter, r.method): (r.point, r.sd, r.sd_paper_compat, r.ci_lo, r.ci_hi)
               for r in table.rows}
        assert all(r.level == level for r in table.rows)
        z = normal_quantile((1.0 + level) / 2.0)

        def wald(point, se):
            return (point, se, se, point - z * se, point + z * se)

        want = {}
        references = [(Method.MLE, mle_shared_shape(stats))]
        if sum(counts) >= 2:
            references.append((Method.CMLE, cmle(stats, Model.SHARED)))
        for method, est in references:
            want["beta", method] = wald(est.beta[0], est.beta[0] / math.sqrt(sum(counts)))
            for j in usable:
                want[f"alpha_{j}", method] = wald(est.alpha[j - 1], math.sqrt(counts[j - 1]))
        # The reference posterior of the causes with failures; an empty
        # cause adds only S_j = 0 to the pooled sum.
        kept = CauseStats(tuple(counts[j - 1] for j in usable),
                          tuple(log_sums[j - 1] for j in usable), 1.0)
        post = reference_posterior(kept, Model.SHARED)
        points = bayes_points(post, convention)
        want["beta", Method.REFERENCE] = (points.beta[0], post.beta_laws[0].sd,
                                          post.beta_laws[0].sd,
                                          *credible_interval(post, "beta", level))
        for i, j in enumerate(usable, start=1):
            law = post.alpha_laws[i - 1]
            want[f"alpha_{j}", Method.REFERENCE] = (points.alpha[i - 1], law.sd,
                                                    math.sqrt(counts[j - 1]),
                                                    *credible_interval(post, f"alpha_{i}", level))
        assert got == want

    def test_elementwise_over_replications(self):
        # A (replications, causes) block gives the cells of each row alone,
        # for a small block and for a larger seeded one with repeated counts.
        rng = np.random.default_rng(8)
        blocks = [(np.array([[2, 5], [7, 3], [2, 2]]),
                   np.array([[0.5, 4.0], [3.5, 1.25], [9.0, 0.1]])),
                  (rng.poisson(6.0, (150, 2)) + 1, rng.gamma(5.0, 1.0, (150, 2)))]
        for (counts, log_sums), method in itertools.product(blocks, ALL_METHODS):
            block = fit(method, counts, log_sums, 0.9)
            for r in range(counts.shape[0]):
                single = fit(method, counts[r], log_sums[r], 0.9)
                for whole, part in zip(block, single):
                    for a, b in zip(whole, part):
                        assert a[r].tolist() == b.tolist()

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
        assert mle_shared_shape(stats).beta == (5.0 / 1.5,)
        assert cmle(stats, Model.SHARED).beta == (4.0 / 1.5,)

    def test_method_spellings(self):
        # A method or convention named by its value gives the cells of the
        # enum member.
        for method, convention in itertools.product(ALL_METHODS, PointConvention):
            spelled = fit(method.value, (3, 7), (1.5, 4.0), 0.9, convention.value)
            for got, want in zip(spelled, fit(method, (3, 7), (1.5, 4.0), 0.9, convention)):
                assert [c.tolist() for c in got] == [c.tolist() for c in want]
        assert fit("reference", [3], [1.0], 0.95, "map")[0].point.tolist() == [2.0]
        stats = _harvester_stats()
        assert alpha_laws_from_counts((3,), "reference") == (GammaParams(3.5, 1.0),)
        assert alpha_laws_from_counts((3,), "jeffreys") == (GammaParams(4.0, 1.0),)
        for model in Model:
            assert cmle(stats, model.value) == cmle(stats, model)
            assert reference_posterior(stats, model.value) == reference_posterior(stats, model)
        assert jeffreys_posterior(stats, "distinct") == jeffreys_posterior(stats)
        with pytest.raises(UnsupportedModelError):
            jeffreys_posterior(stats, "shared")
        post = reference_posterior(CauseStats((3,), (1.0,), 1.0))
        assert bayes_points(post, "map") == bayes_points(post, PointConvention.MAP)
        assert bayes_points(post, "map").beta == (2.0,)
        assert bayes_points(post, "mean").beta == (3.0,)
        # An unknown value is refused with the valid ones listed.
        for call, expected in (
                (lambda: fit("mle", (2,), (1.0,), 0.95, "median"), "map, mean"),
                (lambda: bayes_points(post, "median"), "map, mean"),
                (lambda: cmle(stats, "pooled"), "distinct, shared"),
                (lambda: reference_posterior(stats, "pooled"), "distinct, shared"),
                (lambda: jeffreys_posterior(stats, "pooled"), "distinct, shared"),
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
        # Counts must be finite whole numbers, the same shape as the log sums,
        # and both numeric; each is refused for every method.
        for counts, log_sums in (([2.5], [1.0]), ([math.inf], [1.0]), ([math.nan], [1.0]),
                                 ([1, 2], [1.0]), ([[2, 3]], [1.0, 2.0]), (["a"], [1.0]),
                                 ([2], ["a"]), ([[2], [3, 4]], [1.0])):
            for method in ALL_METHODS:
                with pytest.raises(DomainError):
                    fit(method, counts, log_sums, 0.95)


class TestLogLikelihood:
    def test_empty_history_is_minus_alpha(self):
        history = FailureHistory((), 10.0, 1)
        params = SystemParams((PlpCauseParams(1.3, 2.5),), 10.0)
        assert log_likelihood(params, history) == -2.5

    def test_single_record_closed_form(self):
        T = 10.0
        history = _history([(T / E, 1)], T)
        params = SystemParams((PlpCauseParams(1.0, 1.0),), T)
        # log intensity at the failure minus the expected total count.
        expected = -math.log(T) - 1.0
        assert abs(log_likelihood(params, history) - expected) < 1e-12

    def test_agrees_with_pointwise_construction(self):
        # Independent oracle: sum of log cause-specific intensities at the
        # failures minus the summed cumulative intensities at T.
        history = harvester_fixture()
        T = history.truncation_time
        causes = (PlpCauseParams(0.6, 9.0, 1), PlpCauseParams(1.1, 25.0, 2),
                  PlpCauseParams(1.4, 13.0, 3))
        params = SystemParams(causes, T)
        direct = sum(math.log(intensity(causes[r.cause - 1], T, r.time))
                     for r in history.records)
        direct -= sum(cumulative_intensity(c, T, T) for c in causes)
        assert abs(log_likelihood(params, history) - direct) < 1e-9

    def test_maximized_at_mle(self):
        history = harvester_fixture()
        stats = cause_stats(history)
        est = mle_distinct(stats)
        at_mle = log_likelihood(_params_from(est, stats.truncation_time), history)
        for db in (-0.01, 0.01):
            for da in (-0.1, 0.1):
                perturbed = SystemParams(
                    tuple(PlpCauseParams(b + db, a + da, j + 1)
                          for j, (b, a) in enumerate(zip(est.beta, est.alpha))),
                    stats.truncation_time)
                assert log_likelihood(perturbed, history) <= at_mle

    def test_gradient_zero_at_mle(self):
        history = harvester_fixture()
        stats = cause_stats(history)
        est = mle_distinct(stats)
        h = 1e-6
        for j in range(3):
            for field, step in (("beta", h), ("alpha", 10 * h)):
                def value(eps: float) -> float:
                    beta = list(est.beta)
                    alpha = list(est.alpha)
                    if field == "beta":
                        beta[j] += eps
                    else:
                        alpha[j] += eps
                    params = SystemParams(
                        tuple(PlpCauseParams(b, a, k + 1)
                              for k, (b, a) in enumerate(zip(beta, alpha))),
                        stats.truncation_time)
                    return log_likelihood(params, history)

                gradient = (value(step) - value(-step)) / (2.0 * step)
                assert abs(gradient) < 1e-6

    def test_mismatch_rejected(self):
        history = harvester_fixture()
        params = SystemParams((PlpCauseParams(1.0, 1.0),), 254.0)
        with pytest.raises(ValidationError):
            log_likelihood(params, history)
        params3 = SystemParams(tuple(PlpCauseParams(1.0, 1.0, j) for j in (1, 2, 3)), 99.0)
        with pytest.raises(ValidationError):
            log_likelihood(params3, history)


def _params_from(est, T):
    return SystemParams(
        tuple(PlpCauseParams(b, a, j + 1)
              for j, (b, a) in enumerate(zip(est.beta, est.alpha))), T)


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
    return {(rename(r.parameter), r.method): dataclasses.replace(r, parameter=rename(r.parameter))
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
