"""The arrival models own their report-count law: no module outside their
validation asks which model it holds, and the engine never names one."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "m2mpool"
MODELS = {"OnePerRI", "PoissonPerRI"}


def names(node: ast.AST) -> set[str]:
    """Every name, attribute or imported name under `node`."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.add(child.asname or child.name)
    return found


def model_checks(tree: ast.Module) -> list[tuple[str, int]]:
    """(enclosing class.function, line) of each isinstance call naming a model."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and names(child) & MODELS):
                found.append((scope, child.lineno))
            visit(child, scope)

    visit(tree, "")
    return found


def test_the_engine_never_names_an_arrival_model():
    assert not names(ast.parse((SRC / "sim.py").read_text())) & MODELS


def test_only_parameter_validation_asks_which_model_it_has():
    found = [(path.name, scope, line) for path in sorted(SRC.glob("*.py"))
             for scope, line in model_checks(ast.parse(path.read_text()))
             if (path.name, scope) != ("analytic.py", "SystemParams.__post_init__")]
    assert found == []
