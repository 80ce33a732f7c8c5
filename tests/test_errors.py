"""The one number rule: every constructor and public entry takes a plain int
or float, not a bool, inside its bounds, and refuses anything else with its
module's PlpcrError subclass.  The rule is spelled once, in plpcr.errors."""
from __future__ import annotations

import ast
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import plpcr
from plpcr.data import CauseStats, FailureHistory, FailureRecord, harvester_fixture, parse_history
from plpcr.diagnostics import duane_points
from plpcr.errors import (
    DiagnosticError,
    DomainError,
    ImproperPosteriorError,
    PlpcrError,
    ValidationError,
    check_real,
    check_whole,
)
from plpcr.inference import Method, alpha_laws_from_counts, build_estimate_table, fit
from plpcr.montecarlo import (PRESET_SCENARIOS, PlpCauseParams, Scenario, SystemParams,
                              make_scenario, run_study)
from plpcr.numerics import GammaParams, gamma_quantile, normal_quantile, reg_gamma_p

_CAUSE = PlpCauseParams(1.0, 1.0)
_HARVESTER = harvester_fixture()
_SMALL = Scenario(PRESET_SCENARIOS["scenario1"].params, 64, 1)
_STATS = CauseStats((3,), (1.0,), 10.0)

# Entry -> (call with the value under test, error class).  0.5 is a valid
# value for every real entry and 1 for every whole one.
REAL_ENTRIES = {
    "PlpCauseParams beta": (lambda v: PlpCauseParams(v, 1.0), DomainError),
    "PlpCauseParams alpha": (lambda v: PlpCauseParams(1.0, v), DomainError),
    "SystemParams truncation_time": (lambda v: SystemParams((_CAUSE,), v), DomainError),
    "GammaParams shape": (lambda v: GammaParams(v, 1.0), DomainError),
    "GammaParams rate": (lambda v: GammaParams(1.0, v), DomainError),
    "gamma_quantile q": (lambda v: gamma_quantile(GammaParams(2.0, 1.0), v), DomainError),
    "normal_quantile p": (normal_quantile, DomainError),
    "reg_gamma_p a": (lambda v: reg_gamma_p(v, 1.0), DomainError),
    "reg_gamma_p x": (lambda v: reg_gamma_p(1.0, v), DomainError),
    "Scenario level": (lambda v: Scenario(_SMALL.params, 64, 1, level=v), DomainError),
    "fit level": (lambda v: fit(Method.REFERENCE, (3,), (1.0,), v), DomainError),
    "build_estimate_table level": (lambda v: build_estimate_table(_STATS, level=v),
                                   DomainError),
    "CauseStats log sum": (lambda v: CauseStats((1,), (v,), 10.0), DomainError),
    "CauseStats truncation_time": (lambda v: CauseStats((1,), (1.0,), v), DomainError),
    "make_scenario beta": (lambda v: make_scenario((v,), (2.0,), 1.0), ValidationError),
    "make_scenario alpha": (lambda v: make_scenario((1.0,), (v,), 1.0), ValidationError),
    "make_scenario T": (lambda v: make_scenario((1.0,), (2.0,), v), ValidationError),
    "make_scenario level": (lambda v: make_scenario((1.0,), (2.0,), 1.0, level=v),
                            ValidationError),
    "FailureHistory truncation_time": (lambda v: FailureHistory((), v, 1), ValidationError),
    "FailureRecord time": (lambda v: FailureHistory((FailureRecord(v, 1),), 10.0, 1),
                           ValidationError),
    "parse_history truncation_time": (lambda v: parse_history("time,cause\n0.25,1\n", v),
                                      ValidationError),
}
WHOLE_ENTRIES = {
    "Scenario replications": (lambda v: Scenario(_SMALL.params, v, 1), DomainError),
    "Scenario master_seed": (lambda v: Scenario(_SMALL.params, 64, v), DomainError),
    "run_study workers": (lambda v: run_study(_SMALL, workers=v), DomainError),
    "CauseStats count": (lambda v: CauseStats((v,), (1.0,), 10.0), DomainError),
    "alpha_laws_from_counts count": (lambda v: alpha_laws_from_counts((v,)),
                                     ImproperPosteriorError),
    "make_scenario replications": (lambda v: make_scenario((1.0,), (2.0,), 1.0,
                                                           replications=v), ValidationError),
    "make_scenario seed": (lambda v: make_scenario((1.0,), (2.0,), 1.0, seed=v),
                           ValidationError),
    "FailureHistory num_causes": (lambda v: FailureHistory((), 10.0, v), ValidationError),
    "FailureRecord cause": (lambda v: FailureHistory((FailureRecord(0.5, v),), 10.0, 1),
                            ValidationError),
    "parse_history num_causes": (lambda v: parse_history("time,cause\n0.25,1\n", 10.0, v),
                                 ValidationError),
    "duane_points cause": (lambda v: duane_points(_HARVESTER, v), DiagnosticError),
}
# Refused by every real entry: flags, text, absent values, non-finite floats,
# and numbers of other types, numpy's float32 and int64 among them.
BAD_REALS = (True, False, "1", "0.5", None, math.nan, math.inf, -math.inf,
             np.float32(0.5), np.int64(1), Fraction(1, 2), Decimal("0.5"), 10**400)
# Refused by every whole entry.  1.0 is missing on purpose: make_scenario
# takes an integral float such as 1e4 as a count.
BAD_WHOLES = (True, "1", None, math.nan, math.inf, 1.5, np.int64(1), Fraction(1, 1))


def _cases(entries, values):
    # None is parse_history's default num_causes: the largest label seen.
    return [pytest.param(call, error, value, id=f"{name}-{value!r}")
            for name, (call, error) in entries.items() for value in values
            if not (name == "parse_history num_causes" and value is None)]


@pytest.mark.parametrize("call, error, value",
                         _cases(REAL_ENTRIES, BAD_REALS) + _cases(WHOLE_ENTRIES, BAD_WHOLES))
def test_entry_refuses_value(call, error, value):
    with pytest.raises(error, match="must be"):
        call(value)


@pytest.mark.parametrize("call, value",
                         [pytest.param(call, 0.5, id=name)
                          for name, (call, _) in REAL_ENTRIES.items()]
                         + [pytest.param(call, 1, id=name)
                            for name, (call, _) in WHOLE_ENTRIES.items()])
def test_entry_accepts_valid_value(call, value):
    # Each row of the table reaches the argument it names: the same call
    # with a valid value goes through, numpy's float64 included.
    call(value)
    if isinstance(value, float):
        call(np.float64(value))


@pytest.mark.parametrize("call", [
    lambda: GammaParams(np.float32(2.0), 1.0),
    lambda: GammaParams(Fraction(1, 2), 1.0),
    lambda: PlpCauseParams(np.float32(1.5), 1.0),
    lambda: FailureHistory((FailureRecord(True, 1),), 10.0, 1),
    lambda: FailureHistory((FailureRecord(1.0, True),), 10.0, 1),
    lambda: FailureHistory((FailureRecord("1.0", 1),), 10.0, 1),
    lambda: run_study(_SMALL, workers=True),
    lambda: duane_points(_HARVESTER, True),
    lambda: alpha_laws_from_counts((True,)),
    lambda: Scenario(_SMALL.params, 64, 1, 0.95, 3),
    lambda: reg_gamma_p(True, 1.0),
    lambda: parse_history("time,cause\n1.0,1\n", 10.0, num_causes="3"),
    lambda: normal_quantile("0.5"),
    lambda: reg_gamma_p("1", 1.0),
    lambda: CauseStats((2, 3), (1.0,), 1.0),
    lambda: CauseStats((2, 0), (1.0, 5.0), 1.0),
])
def test_former_silent_or_untyped_inputs(call):
    # Each was accepted, answered wrongly or ended in a bare TypeError.
    with pytest.raises(PlpcrError):
        call()


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: make_scenario(1.5, 2.0, 1.0), ValidationError, "beta must be a sequence",
                 id="make_scenario beta"),
    pytest.param(lambda: make_scenario((1.5,), 2.0, 1.0), ValidationError,
                 "alpha must be a sequence", id="make_scenario alpha"),
    pytest.param(lambda: CauseStats(3, 1.0, 1.0), DomainError, "counts must be a sequence",
                 id="CauseStats counts"),
    pytest.param(lambda: CauseStats((3,), 1.0, 1.0), DomainError, "log sums must be a sequence",
                 id="CauseStats log_sums"),
    pytest.param(lambda: SystemParams(3, 1.0), DomainError, "causes must be a sequence",
                 id="SystemParams causes"),
    pytest.param(lambda: SystemParams((_CAUSE, 3), 1.0), DomainError,
                 "cause 2 must be a PlpCauseParams, got int", id="SystemParams cause"),
    pytest.param(lambda: Scenario("x", 10, 1), DomainError,
                 "^params must be a SystemParams, got str$", id="Scenario params"),
    pytest.param(lambda: Scenario(None, 10, 1, 0.95, 3), DomainError,
                 "^params must be a SystemParams, got NoneType$", id="Scenario params None"),
    pytest.param(lambda: alpha_laws_from_counts(5), ImproperPosteriorError,
                 "counts must be a sequence", id="alpha_laws_from_counts counts"),
    pytest.param(lambda: FailureHistory(5, 10.0, 1), ValidationError,
                 "records must be a sequence", id="FailureHistory records"),
    pytest.param(lambda: FailureHistory(((1.0, 1),), 10.0, 1), ValidationError,
                 "record 1: expected a FailureRecord, got tuple", id="FailureHistory record"),
    pytest.param(lambda: parse_history(b"time,cause", 1.0), ValidationError,
                 "history text must be a str, got bytes", id="parse_history text"),
    pytest.param(lambda: build_estimate_table(_STATS, methods="mle"), DomainError,
                 "methods must be a sequence", id="build_estimate_table methods"),
    pytest.param(lambda: run_study(_SMALL, methods="mle"), DomainError,
                 "methods must be a sequence", id="run_study methods"),
])
def test_container_argument_refused(call, error, match):
    # A scalar, a string or a bare tuple where a list, tuple or record belongs
    # once ended in a TypeError or an AttributeError, or, for a string of
    # methods, in "unknown method 'm'".
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: build_estimate_table(_STATS, methods=()), id="build_estimate_table"),
    pytest.param(lambda: run_study(_SMALL, methods=[]), id="run_study"),
])
def test_empty_method_selection_refused(call):
    # build_estimate_table once returned an empty table for no methods.
    with pytest.raises(DomainError, match="^at least one method is required$"):
        call()


class TestCauseStats:
    def test_accepts_what_cause_stats_gives(self):
        stats = CauseStats((2, 0, 1), (0.5, 0.0, 1.25), 10.0)
        assert stats.log_sum_total == 1.75

    @pytest.mark.parametrize("counts, log_sums, match", [
        ((2, 3), (1.0,), "2 counts but 1 log sums"),
        ((2,), (1.0, 1.0), "1 counts but 2 log sums"),
        ((2, -1), (1.0, 0.0), "cause 2 count must be an integer >= 0"),
        ((2, 0), (1.0, 5.0), "cause 2 log sum must be 0 with no failures"),
        ((2, 0), (1.0, -1.0), "cause 2 log sum must be a real in"),
        ((0, 2), (math.nan, 1.0), "cause 1 log sum"),
    ])
    def test_invariants(self, counts, log_sums, match):
        with pytest.raises(DomainError, match=match):
            CauseStats(counts, log_sums, 10.0)


class TestHelpers:
    def test_returns_the_value_itself(self):
        value = np.float64(0.25)
        assert check_real(value, "x") is value
        assert check_whole(7, "n") == 7

    def test_bounds(self):
        assert check_real(0.0, "x", closed=True) == 0.0
        assert check_real(-3, "x", low=-math.inf) == -3
        assert check_whole(0, "n", low=0) == 0
        assert check_whole(2**64 - 1, "seed", low=0, high=2**64 - 1) == 2**64 - 1
        for value, kwargs in ((0.0, {}), (1.0, {"high": 1.0}), (-1e-300, {"closed": True})):
            with pytest.raises(DomainError):
                check_real(value, "x", **kwargs)
        with pytest.raises(DomainError):
            check_whole(2**64, "seed", low=0, high=2**64 - 1)

    def test_error_class_and_message(self):
        with pytest.raises(ValidationError, match=r"^T must be a positive real, got 'x'$"):
            check_real("x", "T", ValidationError)
        with pytest.raises(DomainError, match=r"^level must be a real in \(0.0, 1.0\), got 1.0$"):
            check_real(1.0, "level", high=1.0)
        with pytest.raises(DiagnosticError, match=r"^cause must be an integer in 1\.\.3, got 4$"):
            check_whole(4, "cause", DiagnosticError, high=3)


def _rule_spellings(tree: ast.AST):
    """Places that test for a bool or a numbers ABC, i.e. restate the rule."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
            if any(isinstance(k, ast.Name) and k.id == "bool" for k in kinds):
                yield node.lineno, "isinstance(..., bool)"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "numbers"):
            yield node.lineno, f"numbers.{node.attr}"
        elif isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names):
            yield node.lineno, "import numbers"
        elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
            yield node.lineno, "from numbers import"


def test_number_rule_is_spelled_only_in_errors():
    package = Path(plpcr.__file__).parent
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(package.glob("*.py")) if path.name != "errors.py"
             for line, what in _rule_spellings(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    # The guard itself sees the spellings it looks for.
    assert len(list(_rule_spellings(ast.parse((package / "errors.py").read_text())))) == 2
