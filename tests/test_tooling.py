import ast
from pathlib import Path

import ctsat


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a check written as one
    # silently disappears; the package raises instead
    sources = sorted(Path(ctsat.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"dynamics.py", "integrate.py", "netlist.py"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
