"""The README is the contract: its python examples run, in order, in one
namespace, and every expression whose comment is a number or a tuple of
numbers evaluates to that value at the printed precision; its scenario-file
example parses to the values it shows; its Layout table names the package's
modules."""
from __future__ import annotations

import ast
import re
from pathlib import Path

from plpcr.montecarlo import parse_scenario

README = Path(__file__).resolve().parent.parent / "README.md"


def _printed(comment: str):
    """The number or tuple of numbers a comment prints, with its decimals."""
    try:
        value = ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        return None
    values = value if isinstance(value, tuple) else (value,)
    if not values or not all(isinstance(v, (int, float)) for v in values):
        return None
    decimals = [len(d) for d in re.findall(r"\.(\d+)", comment)] or [0]
    return values, max(decimals)


def test_readme_examples_run_and_print_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    namespace: dict = {}
    checked = []
    for block in blocks:
        lines = block.splitlines()
        for node in ast.parse(block).body:
            if isinstance(node, ast.Expr):
                value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
                source = lines[node.end_lineno - 1]
                printed = _printed(source.partition("#")[2].strip()) if "#" in source else None
                if printed is not None:
                    want, decimals = printed
                    got = value if isinstance(value, tuple) else (value,)
                    assert len(got) == len(want), source
                    for g, w in zip(got, want):
                        assert abs(g - w) <= 0.5 * 10.0 ** -decimals, source
                    checked.append(want)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    # The examples keep the values the published tables print.
    assert (5.141, 17.739) in checked and (80.913,) in checked, checked


def test_scenario_file_example_parses_to_what_it_shows():
    text = README.read_text(encoding="utf-8").partition("Scenario files are flat key-value text:")
    assert text[1], "the README has no scenario-file example"
    block = re.match(r"\s*```\n(.*?)```", text[2], re.S).group(1)
    scenario = parse_scenario(block)
    causes = scenario.params.causes
    got = {"beta": [c.beta for c in causes], "alpha": [c.alpha for c in causes],
           "T": scenario.params.truncation_time, "replications": scenario.replications,
           "seed": scenario.master_seed, "level": scenario.level}
    shown = {key.strip(): ast.literal_eval(value.strip())
             for key, _, value in (line.partition("=") for line in block.splitlines())}
    assert got == shown


def test_layout_table_lists_every_module():
    # The Layout table's `plpcr.<module>` rows name exactly the package's modules.
    layout = README.read_text(encoding="utf-8").partition("## Layout")[2]
    rows = re.findall(r"^\| `plpcr\.(\w+)` \|", layout, re.M)
    package = README.parent / "src" / "plpcr"
    modules = {path.stem for path in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(rows) == sorted(modules)
