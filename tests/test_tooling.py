import ast
import importlib
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


def test_every_exported_name_exists_once():
    # a name left in __all__ after its definition goes breaks
    # "from module import *" and misleads readers of the module
    paths = sorted(Path(ctsat.__file__).parent.glob("[!_]*.py"))
    modules = [importlib.import_module(f"ctsat.{p.stem}") for p in paths]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert {"ctsat.netlist", "ctsat.spice_expr"} <= {m.__name__ for m in exporting}
    problems = [f"{m.__name__}.{name} missing" for m in exporting
                for name in m.__all__ if not hasattr(m, name)]
    problems += [f"{m.__name__}.{name} listed twice" for m in exporting
                 for name in sorted(set(m.__all__)) if m.__all__.count(name) > 1]
    assert problems == []
