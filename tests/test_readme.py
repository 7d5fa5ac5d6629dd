"""README's "Library quick tour" runs as written and gives its commented results."""

import ast
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    # The first python block after the "Library quick tour" heading.
    section = README.read_text(encoding="utf-8").split("## Library quick tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _run_with_comments(source: str) -> dict:
    # Runs the block statement by statement and maps each trailing comment to
    # the value of its statement: the assigned value, or the expression's.
    namespace, results, lines = {}, {}, source.splitlines()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), str(README), "eval"), namespace)
        else:
            exec(compile(ast.Module([node], []), str(README), "exec"), namespace)
            value = namespace[node.targets[0].id] if isinstance(node, ast.Assign) else None
        line = lines[node.end_lineno - 1]
        if "#" in line:
            results[line.split("#", 1)[1].strip()] = value
    return results


def test_quick_tour_gives_its_commented_results():
    from openqnet import SizeEstimate, Verdict

    results = _run_with_comments(_quick_tour())
    assert set(results) >= {
        "diag(0.64, 0.36)",
        "back to diag(0, 1)",
        "NON_POSITIVE_NON_CP",
        "-> N = 5 exactly",
    }
    assert np.abs(results["diag(0.64, 0.36)"] - np.diag([0.64, 0.36])).max() <= 1e-12
    assert np.abs(results["back to diag(0, 1)"] - np.diag([0.0, 1.0])).max() <= 1e-12
    assert results["NON_POSITIVE_NON_CP"] is Verdict.NON_POSITIVE_NON_CP
    assert results["-> N = 5 exactly"] == SizeEstimate(5.0, 5, 0.0)
