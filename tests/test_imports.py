"""numpy only for studies: fitting, Duane points and fixtures never import it.

montecarlo is the one module that imports numpy, and no other module imports
montecarlo when it is loaded; the package reaches its names on first use.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plpcr

PACKAGE = Path(plpcr.__file__).resolve().parent

# Runs the command line in process, then reports whether numpy was loaded.
_WRAPPER = ("import sys\nfrom plpcr import cli\ncode = cli.main(sys.argv[1:])\n"
            "print('numpy' in sys.modules)\nraise SystemExit(code)")


@pytest.mark.parametrize("argv, loads_numpy", [
    (["fit", "--fixtures", "harvester"], False),
    (["duane", "--fixtures", "harvester"], False),
    (["fixtures"], False),
    (["simulate", "--scenario", "scenario1", "--replications", "64"], True),
], ids=lambda v: v[0] if isinstance(v, list) else str(v))
def test_numpy_loads_only_for_a_study(argv, loads_numpy):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", _WRAPPER, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == str(loads_numpy)


def test_study_names_load_on_first_use():
    from plpcr import McReport, montecarlo

    assert plpcr.run_study is montecarlo.run_study
    assert plpcr.PRESET_SCENARIOS is montecarlo.PRESET_SCENARIOS
    assert McReport is montecarlo.McReport
    listed = dir(plpcr)
    assert {"run_study", "PRESET_SCENARIOS", "McReport", "fit", "__version__"} <= set(listed)
    assert listed == sorted(listed)
    with pytest.raises(AttributeError, match="has no attribute 'bogus'"):
        plpcr.bogus


def _load_time_imports(tree: ast.Module):
    """(line, what) of each numpy or montecarlo import that runs when the
    module loads: at module level or in a class body, not in a function."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy" or alias.name == "plpcr.montecarlo":
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = {alias.name for alias in node.names}
            if node.level == 0 and module.split(".")[0] == "numpy":
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
              "def f():\n    import numpy\n    from .montecarlo import run_study\n")
    assert sorted(line for line, _ in _load_time_imports(ast.parse(source))) == [1, 2, 3, 4, 5, 7]
