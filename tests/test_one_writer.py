"""Only `main` writes: each command returns its rows and its summary, and no
other function of the command line calls the writer or reads where the
output goes."""

from __future__ import annotations

import ast
from pathlib import Path

CLI = Path(__file__).resolve().parents[1] / "src" / "m2mpool" / "cli.py"
WRITERS = {"_write_csv", "print"}


def scoped(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(enclosing class.function, node) of every node under a function or class."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            found.append((scope, child))
            visit(child, scope)

    visit(tree, "")
    return found


NODES = scoped(ast.parse(CLI.read_text()))


def test_only_main_writes_or_prints():
    callers = {(scope, node.func.id) for scope, node in NODES
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in WRITERS}
    assert callers == {("main", "_write_csv"), ("main", "print")}


def test_only_main_reads_the_output_path():
    readers = {scope for scope, node in NODES
               if isinstance(node, ast.Attribute) and node.attr == "out" and isinstance(node.ctx, ast.Load)}
    # the configuration takes it from the parsed arguments
    assert readers == {"_Config.__init__", "main"}
