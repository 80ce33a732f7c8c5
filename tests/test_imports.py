"""numpy and dataclasses only for studies: fitting, Duane points and fixtures
never import them.

montecarlo is the one module that imports numpy or dataclasses, and no other
module imports montecarlo when it is loaded; the package reaches its names on
first use.  The value types elsewhere are named tuples, and those that check
themselves keep their checks through every way of building one.
"""
from __future__ import annotations

import ast
import copy
import dataclasses
import functools
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import plpcr
from plpcr import (CauseStats, DomainError, DuaneSeries, EstimateRow, EstimateTable,
                   FailureHistory, FailureRecord, GammaParams, Method, PlpCauseParams,
                   SystemParams, ValidationError)

PACKAGE = Path(plpcr.__file__).resolve().parent

# Runs the command line in process, then reports which of numpy and dataclasses were loaded.
_WRAPPER = ("import sys\nfrom plpcr import cli\ncode = cli.main(sys.argv[1:])\n"
            "print(*sorted({'numpy', 'dataclasses'} & set(sys.modules)))\nraise SystemExit(code)")

_COMMANDS = pytest.mark.parametrize("argv, is_study", [
    (["fit", "--fixtures", "harvester"], False),
    (["duane", "--fixtures", "harvester"], False),
    (["fixtures"], False),
    (["simulate", "--scenario", "scenario1", "--replications", "64"], True),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))


def _fresh_run(*args: str) -> str:
    """The last stdout line of a fresh interpreter run with plpcr on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@functools.cache
def _loaded_by(argv: tuple[str, ...]) -> set[str]:
    return set(_fresh_run("-c", _WRAPPER, *argv).split())


@_COMMANDS
def test_numpy_loads_only_for_a_study(argv, is_study):
    assert ("numpy" in _loaded_by(tuple(argv))) == is_study


@_COMMANDS
def test_dataclasses_loads_only_for_a_study(argv, is_study):
    assert ("dataclasses" in _loaded_by(tuple(argv))) == is_study


def test_import_plpcr_loads_neither():
    code = "import sys, plpcr\nprint(*sorted({'numpy', 'dataclasses'} & set(sys.modules)))"
    assert _fresh_run("-c", code) == ""


def test_study_names_load_on_first_use():
    from plpcr import McReport, montecarlo

    assert plpcr.run_study is montecarlo.run_study
    assert plpcr.PRESET_SCENARIOS is montecarlo.PRESET_SCENARIOS
    assert McReport is montecarlo.McReport
    assert PlpCauseParams is plpcr.PlpCauseParams is montecarlo.PlpCauseParams
    assert SystemParams is plpcr.SystemParams is montecarlo.SystemParams
    listed = dir(plpcr)
    assert {"run_study", "PRESET_SCENARIOS", "McReport", "PlpCauseParams", "SystemParams",
            "fit", "__version__"} <= set(listed)
    assert listed == sorted(listed)
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        plpcr.bogus


def test_every_listed_name_resolves():
    # A name in dir(plpcr), lazily loaded or not, that getattr cannot reach
    # would be a stale entry in _MONTECARLO_NAMES or a broken import.
    missing = [name for name in dir(plpcr) if not hasattr(plpcr, name)]
    assert missing == []


_DEFERRED = ("numpy", "dataclasses")  # the modules only montecarlo may import on load


def _load_time_imports(tree: ast.Module):
    """(line, what) of each numpy, dataclasses or montecarlo import that runs
    when the module loads: at module level or in a class body, not in a function."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in _DEFERRED or alias.name == "plpcr.montecarlo":
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if node.level == 0 and module.split(".")[0] in _DEFERRED:
                yield node.lineno, f"from {module} import"
            elif module.endswith("montecarlo") or ("montecarlo" in names
                                                    and module in ("", "plpcr")):
                yield node.lineno, f"from {'.' * node.level}{module} import"
        pending.extend(ast.iter_child_nodes(node))


def test_only_montecarlo_imports_numpy():
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "montecarlo.py"
             for line, what in _load_time_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
    # The guard itself sees each form it looks for, and passes a deferred import.
    source = ("import numpy as np\nfrom numpy import random\nfrom .montecarlo import run_study\n"
              "from . import montecarlo\nimport plpcr.montecarlo\n"
              "class C:\n    import numpy.linalg\n"
              "def f():\n    import numpy\n    from .montecarlo import run_study\n"
              "    import dataclasses\n"
              "import dataclasses\nfrom dataclasses import replace\n")
    assert sorted(line for line, _ in _load_time_imports(ast.parse(source))) == [
        1, 2, 3, 4, 5, 7, 12, 13]


# A valid value of each self-checking type, a field, and a value of it that is refused.
_RECORDS = (FailureRecord(1.0, 1), FailureRecord(2.5, 2))
_CHECKED = [
    (FailureHistory(_RECORDS, 10.0, 2), "truncation_time", -1.0, ValidationError),
    (FailureHistory(_RECORDS, 10.0, 2), "records", _RECORDS[::-1], ValidationError),
    (CauseStats((2, 0), (1.5, 0.0), 10.0), "log_sums", (1.5, 0.5), DomainError),
    (GammaParams(2.5, 1.0), "rate", 0.0, DomainError),
    (PlpCauseParams(1.5, 6.45), "alpha", True, DomainError),
    (SystemParams((PlpCauseParams(1.5, 6.45),), 5.5), "truncation_time", math.nan, DomainError),
]
_ROW = EstimateRow("beta_1", Method.MLE, 1.0, 0.5, 0.5, 0.1, 1.9, 0.95)
_VALUES = [*{type(value): value for value, *_ in _CHECKED}.values(), FailureRecord(1.0, 1),
           DuaneSeries(2, ((0.0, 0.0), (1.0, 0.5))), _ROW, EstimateTable((_ROW,), ("w",))]


@pytest.mark.parametrize("value, field, bad, error", _CHECKED,
                         ids=[f"{type(value).__name__}.{field}" for value, field, *_ in _CHECKED])
def test_every_construction_runs_the_checks(value, field, bad, error):
    cls, fields = type(value), {**value._asdict(), field: bad}
    messages = set()
    for build in (lambda: cls(**fields), lambda: cls(*fields.values()),
                  lambda: cls._make(fields.values()), lambda: value._replace(**{field: bad})):
        with pytest.raises(error) as caught:
            build()
        messages.add(str(caught.value))
    assert len(messages) == 1
    # Unchanged fields pass the same routes.
    assert type(value)._make(value) == value._replace() == value


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_values_round_trip_and_stay_immutable(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value
    # A named tuple unpacks and equals the plain tuple of its fields.
    assert value == tuple(value) and [*value] == [getattr(value, f) for f in value._fields]
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.extra = 1


def test_scenario_stays_a_dataclass():
    # Callers vary a preset with dataclasses.replace, which runs Scenario's checks.
    base = plpcr.PRESET_SCENARIOS["scenario1"]
    scenario = dataclasses.replace(base, replications=64)
    assert (scenario.replications, scenario.params) == (64, base.params)
    with pytest.raises(DomainError):
        dataclasses.replace(base, replications=0)
