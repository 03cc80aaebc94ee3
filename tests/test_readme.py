"""The Python examples of README.md run, and print what they say they print.

Each ```python block is run in a fresh namespace.  A line `expr  # value`,
where value is a Python literal, claims that expr evaluates to value;
`print(expr)  # value` makes the same claim about expr.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def _claims(block: str) -> list[tuple[str, object]]:
    out = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:
            expr = ast.parse(code.strip(), mode="eval").body
            value = ast.literal_eval(comment.strip())
        except (SyntaxError, ValueError):
            continue
        if isinstance(expr, ast.Call) and getattr(expr.func, "id", None) == "print":
            expr = expr.args[0]
        out.append((ast.unparse(expr), value))
    return out


def _run(block: str) -> dict:
    namespace: dict = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, str(README), "exec"), namespace)
    return namespace


def test_every_python_block_keeps_its_claims():
    blocks = _blocks()
    assert len(blocks) >= 2
    for block in blocks:
        namespace = _run(block)
        for expr, value in _claims(block):
            assert eval(expr, namespace) == value, expr


def test_quickstart_solves_the_demo():
    quickstart = _blocks()[0]
    assert _claims(quickstart) == [
        ("sol.status", "optimal"),
        ("sol.x", (0, 1, 0)),
        ("sol.objective", 1),
    ]
    sol = _run(quickstart)["sol"]
    assert (sol.status, sol.x, sol.objective) == ("optimal", (0, 1, 0), 1)
