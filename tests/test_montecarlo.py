"""Study parameter types, history generation and study-engine tests:
distributional oracles, pairing/discard bookkeeping, and worker-independent
determinism."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from histories import simulate_history, stream
from plpcr import inference, montecarlo
from plpcr.data import cause_stats
from plpcr.errors import DomainError, PlpcrError, StudyError, ValidationError
from plpcr.inference import ALL_METHODS, Method
from plpcr.montecarlo import (
    PRESET_SCENARIOS,
    McReport,
    McRow,
    PlpCauseParams,
    Scenario,
    SystemParams,
    make_scenario,
    parse_scenario,
    run_study,
)
from reference import block_sums, count_sums, scalar_cells


class TestSystemParams:
    def test_rejects_invalid_cause_params(self):
        with pytest.raises(DomainError):
            PlpCauseParams(-1.0, 1.0)
        with pytest.raises(DomainError):
            PlpCauseParams(1.0, 0.0)
        # bool is an int subclass; a flag is never a shape or a count.
        for args in ((True, 1.0), (1.0, True), ("1.5", 1.0), (1.0, None),
                     (np.float32(1.5), 1.0), (math.nan, 1.0), (1.0, math.inf)):
            with pytest.raises(DomainError, match="must be a positive"):
                PlpCauseParams(*args)
        for T in (True, "5.5", None):
            with pytest.raises(DomainError, match="truncation_time"):
                SystemParams((PlpCauseParams(1.0, 1.0),), T)


class TestSimulateHistory:
    def test_structure(self):
        scenario = PRESET_SCENARIOS["scenario1"]
        history = simulate_history(scenario, stream(42, 0))
        T = scenario.params.truncation_time
        times = [r.time for r in history.records]
        assert all(0.0 < t < T for t in times)
        assert times == sorted(times)
        assert all(r.cause in (1, 2) for r in history.records)

    def test_empty_history_valid(self):
        scenario = make_scenario((1.0,), (1e-9,), 1.0, seed=1)
        history = simulate_history(scenario, stream(1, 0))
        assert history.n == 0

    def test_replay(self):
        scenario = PRESET_SCENARIOS["scenario3"]
        a = simulate_history(scenario, stream(7, 123))
        b = simulate_history(scenario, stream(7, 123))
        assert a == b

    def test_count_mean(self):
        # Cause-1 counts over many replications track the expected count.
        scenario = PRESET_SCENARIOS["scenario1"]
        reps = 100_000
        total = 0
        for r in range(reps):
            history = simulate_history(scenario, stream(2001, r))
            total += sum(1 for rec in history.records if rec.cause == 1)
        mean = total / reps
        assert abs(mean - 6.45) < 3.0 * math.sqrt(6.45 / reps)

    def test_uniform_times_at_unit_shape(self):
        # With beta = 1 the times are uniform on (0, T) given the count.
        scenario = make_scenario((1.0,), (50.0,), 4.0, seed=5)
        times = []
        for r in range(400):
            history = simulate_history(scenario, stream(5, r))
            times.extend(rec.time for rec in history.records)
        times = np.sort(np.array(times)) / 4.0
        ecdf = np.arange(1, len(times) + 1) / len(times)
        assert np.max(np.abs(ecdf - times)) < 0.02

    @pytest.mark.parametrize("beta", [0.25, 1.0, 2.0])
    def test_time_distribution_ks(self, beta):
        # Pooled times must follow the cumulative-intensity time transform
        # (t/T)^beta; Kolmogorov-Smirnov distance below 0.01 at 1e5 draws.
        T = 3.0
        scenario = make_scenario((beta,), (100.0,), T, seed=31)
        times = []
        r = 0
        while len(times) < 100_000:
            history = simulate_history(scenario, stream(31, r))
            times.extend(rec.time for rec in history.records)
            r += 1
        u = np.sort((np.array(times[:100_000]) / T) ** beta)
        ecdf = np.arange(1, len(u) + 1) / len(u)
        ks = max(np.max(np.abs(ecdf - u)), np.max(np.abs(ecdf - 1.0 / len(u) - u)))
        assert ks < 0.01


class TestScenarios:
    def test_presets_parameters(self):
        expected = {
            "scenario1": ((1.5, 1.0), (6.45, 2.75), 5.5),
            "scenario2": ((1.75, 1.25), (26.46, 3.11), 6.5),
            "scenario3": ((1.5, 0.8), (5.59, 14.50), 5.0),
            "scenario4": ((1.6, 0.7), (6.59, 15.12), 5.0),
            "scenario5": ((0.25, 2.0), (8.46, 100.0), 20.0),
        }
        assert set(PRESET_SCENARIOS) == set(expected)
        for name, (betas, alphas, T) in expected.items():
            scenario = PRESET_SCENARIOS[name]
            assert tuple(c.beta for c in scenario.params.causes) == betas
            assert tuple(c.alpha for c in scenario.params.causes) == alphas
            assert scenario.params.truncation_time == T
            assert scenario.level == 0.95

    def test_parse_scenario_file(self):
        text = """
        # two-cause test scenario
        beta = [1.5, 1.0]
        alpha = [6.45, 2.75]
        T = 5.5
        replications = 123
        seed = 9
        level = 0.9
        """
        scenario = parse_scenario(text, name="custom1")
        assert scenario.replications == 123
        assert scenario.master_seed == 9
        assert scenario.level == 0.9
        assert scenario.params.causes[1].alpha == 2.75
        assert scenario.name == "custom1"

    def test_parse_scenario_defaults_and_errors(self):
        scenario = parse_scenario("beta=[1.0]\nalpha=[2.0]\nT=1.0\n")
        assert scenario.replications == 10_000
        with pytest.raises(ValidationError, match="missing"):
            parse_scenario("beta=[1.0]\nT=1.0\n")
        with pytest.raises(ValidationError, match="line"):
            parse_scenario("beta [1.0]\n")
        with pytest.raises(ValidationError, match="^alpha must be as long as beta, got 2 and 1"):
            parse_scenario("beta=[1.0]\nalpha=[2.0, 3.0]\nT=1.0\n")

    def test_parse_scenario_whole_numbers(self):
        # An integral float such as 1e4 is a whole number; 3.7 is refused, not truncated.
        scenario = parse_scenario("beta=[1.0]\nalpha=[2.0]\nT=1.0\n"
                                  "replications = 1e4\nseed = 7.0\n")
        assert (scenario.replications, scenario.master_seed) == (10_000, 7)
        assert type(scenario.replications) is int and type(scenario.master_seed) is int
        with pytest.raises(ValidationError, match="^replications must be an integer >= 0, "
                                                  "got 3.7$"):
            parse_scenario("beta=[1.0]\nalpha=[2.0]\nT=1.0\nreplications = 3.7\n")

    @pytest.mark.parametrize("rhs", ["[" + "-" * 3000 + "1]", "[" * 3000 + "]" * 3000,
                                     "{[]: 1}"])
    def test_parse_scenario_refuses_unparsable_value(self, rhs):
        # Nesting deep enough to overflow the parser, or an unhashable key.
        with pytest.raises(ValidationError, match="^line 2: cannot parse value"):
            parse_scenario(f"alpha = [1.0]\nbeta = {rhs}\nT = 1.0\n")

    @settings(max_examples=300, deadline=None)
    @given(text=st.one_of(
        st.text(),
        st.lists(st.tuples(st.sampled_from(["beta", "alpha", "T", "replications", "seed",
                                            "level", "sede", ""]),
                           st.text(alphabet="[](){}:0123456789.,-+eEjTrue'\" #", max_size=16)),
                 max_size=8).map(lambda lines: "\n".join(f"{k} = {v}" for k, v in lines))))
    def test_parse_scenario_refuses_only_with_plpcr_errors(self, text):
        try:
            scenario = parse_scenario(text)
        except PlpcrError:
            return
        assert isinstance(scenario, Scenario)

    @pytest.mark.parametrize("line", ["replication = 100", "sede = 9", "Beta = [1.0]"])
    def test_parse_scenario_rejects_unknown_keys(self, line):
        # A misspelt key must not fall back silently to a default.
        key = line.split()[0]
        with pytest.raises(ValidationError, match=f"line 4: unknown key '{key}'"):
            parse_scenario(f"beta=[1.0]\nalpha=[2.0]\nT=1.0\n{line}\n")

    @pytest.mark.parametrize("line", ["beta = [2.0]", "T = 1.0"])
    def test_parse_scenario_rejects_duplicate_keys(self, line):
        # A repeated key must not let the last value win silently.
        key = line.split()[0]
        with pytest.raises(ValidationError, match=f"line 5: duplicate key '{key}'"):
            parse_scenario(f"beta=[1.0]\nalpha=[2.0]\nT=1.0\nseed=3\n{line}\n")

    def test_scenario_validation(self):
        params = PRESET_SCENARIOS["scenario1"].params
        with pytest.raises(DomainError):
            Scenario(params, 0, 42)
        with pytest.raises(DomainError):
            Scenario(params, 10, -1)
        with pytest.raises(DomainError):
            Scenario(params, 10, 42, level=1.0)
        # One level rule with the estimators: a plain int or float in (0, 1).
        for level in ("0.5", None, True, np.float32(0.9), Fraction(9, 10)):
            with pytest.raises(DomainError, match="level"):
                Scenario(params, 10, 1, level=level)
        # bool is an int subclass; a flag is never a count or a seed.
        with pytest.raises(DomainError):
            Scenario(params, True, 1)
        with pytest.raises(DomainError):
            Scenario(params, 10, True)
        # A Scenario built directly checks its parameters and its name too.
        with pytest.raises(DomainError, match="^params must be a SystemParams, got str$"):
            Scenario("x", 10, 1)
        with pytest.raises(DomainError, match="^name must be a str or None, got int$"):
            Scenario(params, 10, 1, 0.95, 3)
        assert Scenario(params, 10, 1, name="mine").name == "mine"
        for kwargs in ({"betas": (True,)}, {"alphas": (True,)}, {"T": True},
                       {"replications": True}, {"seed": True}, {"level": True},
                       {"seed": np.int64(3)}, {"T": Fraction(11, 2)}):
            args = {"betas": (1.0,), "alphas": (2.0,), "T": 1.0, **kwargs}
            with pytest.raises(ValidationError, match="must be"):
                make_scenario(**args)


class TestRunStudy:
    def test_report_bookkeeping(self):
        scenario = Scenario(PRESET_SCENARIOS["scenario1"].params, 600, 17)
        report = run_study(scenario)
        assert report.replications == 600
        assert report.replications_used + report.replications_discarded == 600
        assert report.replications_used > 0
        assert len(report.rows) == 4 * 4
        for row in report.rows:
            assert 0.0 <= row.cp <= 1.0

    def test_alpha_rows_coincide_across_point_methods(self):
        # alpha points are the counts for every method, so the MRE/MSE
        # columns agree exactly; only the coverage columns differ.
        scenario = Scenario(PRESET_SCENARIOS["scenario2"].params, 400, 3)
        report = run_study(scenario)
        for parameter in ("alpha_1", "alpha_2"):
            mle = report.row(parameter, Method.MLE)
            for method in (Method.CMLE, Method.JEFFREYS, Method.REFERENCE):
                other = report.row(parameter, method)
                assert other.mre == mle.mre
                assert other.mse == mle.mse

    def test_beta_points_shared_by_bayes_and_cmle(self):
        scenario = Scenario(PRESET_SCENARIOS["scenario2"].params, 400, 3)
        report = run_study(scenario)
        for parameter in ("beta_1", "beta_2"):
            cmle_row = report.row(parameter, Method.CMLE)
            for method in (Method.JEFFREYS, Method.REFERENCE):
                row = report.row(parameter, method)
                assert row.mre == cmle_row.mre
                assert row.mse == cmle_row.mse

    def test_deterministic_across_workers(self):
        scenario = Scenario(PRESET_SCENARIOS["scenario1"].params, 1536, 99)
        sequential = run_study(scenario, workers=1)
        parallel = run_study(scenario, workers=2)
        assert sequential == parallel
        assert sequential.to_csv() == parallel.to_csv()
        assert sequential.to_json() == parallel.to_json()

    def test_method_subset(self):
        scenario = Scenario(PRESET_SCENARIOS["scenario1"].params, 256, 5)
        report = run_study(scenario, methods=(Method.MLE,))
        assert {r.method for r in report.rows} == {Method.MLE}

    @pytest.mark.parametrize("preset", ["scenario1", "scenario2"])
    def test_corrected_interval_undercovers(self, preset):
        # The recentered-and-narrowed interval loses coverage relative to the
        # plain asymptotic one; the gap is large in the low-count scenarios.
        scenario = Scenario(PRESET_SCENARIOS[preset].params, 2000, 21)
        report = run_study(scenario, methods=(Method.MLE, Method.CMLE))
        for parameter in ("beta_1", "beta_2"):
            assert (report.row(parameter, Method.CMLE).cp
                    < report.row(parameter, Method.MLE).cp)

    def test_method_spellings(self):
        # Methods named by their values give the report of the enum members.
        scenario = Scenario(PRESET_SCENARIOS["scenario1"].params, 256, 5)
        for methods in (ALL_METHODS, (Method.REFERENCE,), (Method.MLE, Method.JEFFREYS)):
            spelled = run_study(scenario, methods=tuple(m.value for m in methods))
            assert spelled.to_json() == run_study(scenario, methods=methods).to_json()
            assert spelled.to_csv() == run_study(scenario, methods=methods).to_csv()
        with pytest.raises(DomainError, match="'bogus'"):
            run_study(scenario, methods=("mle", "bogus"))

    def test_repeated_methods_count_once(self):
        # A method named twice, by enum member or by value, adds no rows: the
        # report is that of its first-seen order.
        scenario = Scenario(PRESET_SCENARIOS["scenario1"].params, 256, 5)
        for repeated, once in ((("mle", "mle"), (Method.MLE,)),
                               (("reference", Method.REFERENCE), (Method.REFERENCE,)),
                               (("cmle", "mle", Method.CMLE, "jeffreys", "mle"),
                                (Method.CMLE, Method.MLE, Method.JEFFREYS))):
            report = run_study(scenario, methods=repeated)
            assert len(report.rows) == 4 * len(once)
            assert report.to_json() == run_study(scenario, methods=once).to_json()

    def test_all_discarded_raises(self):
        scenario = make_scenario((1.0, 1.0), (0.01, 0.01), 1.0, replications=64, seed=8)
        with pytest.raises(StudyError):
            run_study(scenario)

    def test_bad_arguments(self):
        scenario = Scenario(PRESET_SCENARIOS["scenario1"].params, 16, 1)
        with pytest.raises(DomainError):
            run_study(scenario, methods=())
        with pytest.raises(DomainError):
            run_study(scenario, workers=0)
        with pytest.raises(DomainError, match="workers"):
            run_study(scenario, workers=True)


def _scalar_study(scenario: Scenario, methods) -> McReport:
    """The study rebuilt from the engine's own block draws, one replication,
    method and cause at a time, with the scalar reference cells."""
    causes = scenario.params.causes
    p = len(causes)
    names = [f"beta_{j}" for j in range(1, p + 1)] + [f"alpha_{j}" for j in range(1, p + 1)]
    betas = [c.beta for c in causes]
    truth = betas + [c.alpha for c in causes]
    rel, sq, cover = ([[0.0] * (2 * p) for _ in methods] for _ in range(3))
    used = discarded = 0
    M, block_size = scenario.replications, montecarlo._BLOCK
    for block, start in enumerate(range(0, M, block_size)):
        counts, gammas, block_discarded = montecarlo._draw_block(
            scenario, block, min(block_size, M - start))
        discarded += block_discarded
        for n_row, g_row in zip(counts.tolist(), gammas.tolist()):
            used += 1
            for m, method in enumerate(methods):
                cells = [scalar_cells(method, n, g / beta, scenario.level)
                         for n, g, beta in zip(n_row, g_row, betas)]
                ordered = [beta for beta, _ in cells] + [alpha for _, alpha in cells]
                for k, (theta, (x, _, _, lo, hi)) in enumerate(zip(truth, ordered)):
                    rel[m][k] += x / theta
                    sq[m][k] += (x - theta) ** 2
                    cover[m][k] += 1.0 if lo <= theta <= hi else 0.0
    rows = tuple(McRow(names[k], method, rel[m][k] / used, sq[m][k] / used, cover[m][k] / used)
                 for k in range(2 * p) for m, method in enumerate(methods))
    return McReport(scenario.name or "custom", scenario.master_seed, M, used, discarded,
                    scenario.level, tuple(zip(names, truth)), rows)


def _per_row_sums(scenario, methods, counts, gammas):
    """The per-row oracle on the log sums S = G / beta."""
    betas = np.array([c.beta for c in scenario.params.causes])
    return block_sums(scenario, methods, counts, gammas / betas)


def _assert_near(got, want):
    # Point sums within 1e-12 relative, coverage hits exactly equal.
    np.testing.assert_allclose(got[:2], want[:2], rtol=1e-12, atol=0)
    assert np.array_equal(got[2], want[2])


# Far-apart counts: cause 1 has a few failures, cause 2 about 2000, so a block's
# distinct counts fall in two ranges with a wide gap between them.  The one-,
# three- and four-cause systems check the row-order sums at every cause count.
_ENGINE_CASES = {**PRESET_SCENARIOS,
                 "far_apart": make_scenario((1.2, 0.8), (3.0, 2000.0), 5.0, name="far_apart"),
                 "one_cause": make_scenario((1.3,), (7.0,), 5.0, name="one_cause"),
                 "one_cause_busy": make_scenario((0.7,), (60.0,), 5.0, name="one_cause_busy"),
                 "three_causes": make_scenario((1.5, 0.8, 2.0), (6.0, 12.0, 4.0), 5.0,
                                               name="three_causes"),
                 "four_causes": make_scenario((1.5, 0.8, 2.0, 1.1), (6.0, 12.0, 4.0, 9.0), 5.0,
                                              name="four_causes")}


class TestEngine:
    @pytest.mark.parametrize("preset, level, methods", [
        ("scenario1", 0.95, ALL_METHODS),
        ("scenario5", 0.9, (Method.REFERENCE, Method.CMLE)),
        ("far_apart", 0.95, ALL_METHODS),
    ])
    def test_matches_scalar_rebuild(self, preset, level, methods, monkeypatch):
        # Small blocks, so that the rebuild stays quick and spans a partial block.
        monkeypatch.setattr(montecarlo, "_BLOCK", 256)
        scenario = Scenario(_ENGINE_CASES[preset].params, 256 + 150, 23, level, preset)
        engine, scalar = run_study(scenario, methods), _scalar_study(scenario, methods)
        assert engine.replications_used == scalar.replications_used
        assert engine.replications_discarded == scalar.replications_discarded
        assert [(r.parameter, r.method) for r in engine.rows] == [
            (r.parameter, r.method) for r in scalar.rows]
        for got, want in zip(engine.rows, scalar.rows):
            for field in ("mre", "mse", "cp"):
                assert getattr(got, field) == pytest.approx(getattr(want, field), rel=1e-12)

    @pytest.mark.parametrize("level", [0.9, 0.95])
    @pytest.mark.parametrize("case", sorted(_ENGINE_CASES))
    def test_block_sums_match_per_row_oracle(self, case, level):
        # Bit for bit against the per-count oracle, which adds in the engine's
        # order; against the per-row oracle on S = G / beta, the engine's former
        # order, within rounding and with every coverage hit equal.
        scenario = Scenario(_ENGINE_CASES[case].params, 1, 31, level)
        counts, gammas, _ = montecarlo._draw_block(scenario, 0, 3000)
        rng = np.random.default_rng(5)
        single = np.full((7, counts.shape[1]), 4)  # one distinct count
        blocks = [(counts, gammas), (single, rng.standard_gamma(single) + 0.5)]
        for methods in (m for r in range(1, 5) for m in itertools.combinations(ALL_METHODS, r)):
            for block in blocks:
                got = montecarlo._block_sums(scenario, methods, *block)
                assert np.array_equal(got, count_sums(scenario, methods, *block)), methods
                _assert_near(got, _per_row_sums(scenario, methods, *block))
        # A full block, where the per-row and per-count orders part most often.
        full = montecarlo._draw_block(scenario, 0, montecarlo._BLOCK)[:2]
        got = montecarlo._block_sums(scenario, ALL_METHODS, *full)
        assert np.array_equal(got, count_sums(scenario, ALL_METHODS, *full))
        _assert_near(got, _per_row_sums(scenario, ALL_METHODS, *full))

    def test_block_sums_match_oracle_for_an_all_discarded_block(self):
        scenario = make_scenario((1.0, 1.0), (0.01, 0.01), 1.0)
        counts, gammas, discarded = montecarlo._draw_block(scenario, 0, 64)
        assert discarded == 64 and counts.shape == (0, 2)
        got = montecarlo._block_sums(scenario, ALL_METHODS, counts, gammas)
        assert np.array_equal(got, count_sums(scenario, ALL_METHODS, counts, gammas))
        assert np.array_equal(got, _per_row_sums(scenario, ALL_METHODS, counts, gammas))
        assert not got.any()

    @pytest.mark.parametrize("preset", ["scenario1", "scenario5"])
    def test_reports_match_per_row_oracle_across_blocks(self, preset, monkeypatch):
        # 70,000 replications cross the 65,536 block boundary: byte-identical to
        # the per-count oracle's report, and within rounding of the per-row one's.
        scenario = Scenario(PRESET_SCENARIOS[preset].params, 70_000, 11, 0.95, preset)
        engine = run_study(scenario)
        monkeypatch.setattr(montecarlo, "_block_sums", count_sums)
        oracle = run_study(scenario)
        assert engine.to_json() == oracle.to_json()
        assert engine.to_csv() == oracle.to_csv()
        monkeypatch.setattr(montecarlo, "_block_sums", _per_row_sums)
        for got, want in zip(engine.rows, run_study(scenario).rows):
            assert got.mre == pytest.approx(want.mre, rel=1e-12, abs=0)
            assert got.mse == pytest.approx(want.mse, rel=1e-12, abs=0)
            assert got.cp == want.cp

    @pytest.mark.parametrize("case", ["scenario1", "scenario5", "far_apart", "three_causes"])
    def test_count_grid_matches_unique(self, case):
        # The lookup-table grid, and the sorting fallback for a count range wider
        # than the block, give np.unique's grid and inverse.
        scenario = Scenario(_ENGINE_CASES[case].params, 1, 7)
        counts = montecarlo._draw_block(scenario, 0, 2000)[0]
        for rows in (counts, counts[:3]):  # 3 rows: the count range is wider than the block
            got_grid, got_index = montecarlo._count_grid(np.ascontiguousarray(rows.T))
            want_grid, want_index = np.unique(rows.T, return_inverse=True)
            assert np.array_equal(got_grid, want_grid)
            assert np.array_equal(got_index, want_index.reshape(rows.shape[::-1]))
        wide = np.array([[2, 2], [10**12, 3]])  # a lookup table this wide would not fit
        assert montecarlo._count_grid(wide)[0].tolist() == [2, 3, 10**12]
        assert montecarlo._count_grid(wide)[1].tolist() == [[0, 0], [2, 1]]

    @settings(max_examples=12, deadline=None)
    @given(case=st.sampled_from(sorted(_ENGINE_CASES)), k=st.integers(-40, 40),
           seed=st.integers(0, 2**32))
    def test_beta_scale_moves_only_the_beta_mse(self, case, k, seed):
        # The draws are scale-free: scaling every beta by 2**k leaves each MRE
        # and CP cell bit-identical and multiplies each beta MSE by exactly 4**k.
        base = _ENGINE_CASES[case]
        betas = [c.beta for c in base.params.causes]
        alphas = [c.alpha for c in base.params.causes]
        T = base.params.truncation_time
        report = run_study(make_scenario(betas, alphas, T, 700, seed))
        scaled = run_study(make_scenario([b * 2.0**k for b in betas], alphas, T, 700, seed))
        for got, want in zip(scaled.rows, report.rows):
            assert (got.mre, got.cp) == (want.mre, want.cp)
            assert got.mse == (want.mse * 4.0**k if got.parameter.startswith("beta")
                               else want.mse)

    def test_kernel_sees_distinct_counts_only(self, monkeypatch):
        # A block is fitted once per distinct count, so no quantile lookup
        # may receive more shapes than the block has distinct counts.
        draw_block, std_quantiles = montecarlo._draw_block, inference._std_quantiles
        distinct, sizes = [], []

        def recording_draw(*args):
            counts, log_sums, discarded = draw_block(*args)
            distinct.append(np.unique(counts).size)
            return counts, log_sums, discarded

        def recording_quantiles(shapes, level):
            sizes.append(len(shapes))
            return std_quantiles(shapes, level)

        monkeypatch.setattr(montecarlo, "_draw_block", recording_draw)
        monkeypatch.setattr(inference, "_std_quantiles", recording_quantiles)
        run_study(Scenario(PRESET_SCENARIOS["scenario3"].params, 4096, 5))
        assert len(distinct) == 1
        assert sizes and max(sizes) <= distinct[0]

    def test_block_sampler_matches_event_histories(self):
        # The block sampler's (n, G) against simulate_history + cause_stats,
        # kept rows only: a chi-square test on the discard share and on each
        # cause's counts, and, given n_j, a KS test of the block's G_j and of the
        # histories' beta_j * S_j against Gamma(n_j, 1) through its CDF.
        scenario = Scenario(PRESET_SCENARIOS["scenario1"].params, 1, 61)
        block_n, block_g, block_discarded = montecarlo._draw_block(scenario, 0, 20_000)
        rows = [cause_stats(simulate_history(scenario, stream(61, r)))
                for r in range(10_000)]
        kept = [r for r in rows if min(r.counts) >= 2]
        event_n = np.array([r.counts for r in kept])
        event_s = np.array([r.log_sums for r in kept])
        discard_table = [[len(block_n), block_discarded], [len(kept), len(rows) - len(kept)]]
        assert stats.chi2_contingency(discard_table).pvalue > 1e-3
        betas = np.array([c.beta for c in scenario.params.causes])
        for j in range(2):
            # Pool the upper tail so that every expected cell is at least 5.
            top = 2
            while min(np.sum(block_n[:, j] > top), np.sum(event_n[:, j] > top)) >= 20:
                top += 1
            table = [np.bincount(np.minimum(n[:, j], top) - 2, minlength=top - 1)
                     for n in (block_n, event_n)]
            assert stats.chi2_contingency(table).pvalue > 1e-3, j
            for n, g in ((block_n, block_g), (event_n, betas * event_s)):
                u = stats.gamma.cdf(g[:, j], n[:, j])
                assert stats.kstest(u, "uniform").pvalue > 1e-3, j
