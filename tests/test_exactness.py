"""No float may reach a result: the package's source has no way to make one.

An ast scan of every module of the package for a float literal, a true
division (`/` or `/=`), or a call to `float`.  Exact code divides with `//`,
`divmod` or `Fraction`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import knapagg

SOURCES = sorted(Path(knapagg.__file__).parent.glob("*.py"))


def _inexact(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append((node.lineno, "float() call"))
    return found


def test_the_scan_sees_every_kind_of_float():
    src = "a = 1.5\nb = x / y\nc //= 2\nc /= 2\nd = float(n)\ne = 3 // 2\n"
    assert sorted(line for line, _ in _inexact(ast.parse(src))) == [1, 2, 4, 5]


def test_no_module_can_make_a_float():
    assert {p.name for p in SOURCES} >= {"cli.py", "instance.py", "knapsack.py", "oracle.py"}
    found = [
        f"{p.name}:{line}: {what}"
        for p in SOURCES
        for line, what in _inexact(ast.parse(p.read_text(), str(p)))
    ]
    assert found == []
