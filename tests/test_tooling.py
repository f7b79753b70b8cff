import ast
import importlib
import math
from dataclasses import fields
from pathlib import Path

import pytest

import ctsat
from ctsat.dynamics import MemParams
from ctsat.instances import BarthelParams
from ctsat.integrate import IntegratorConfig
from ctsat.netlist import NetlistOptions
from ctsat.network import SquareWave


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


def test_no_unused_imports_in_package():
    # an import that nothing reads is dead code that still costs a reader's
    # attention and the import time; a name listed in __all__ counts as
    # read, and __init__.py imports only to re-export
    unused = []
    for path in sorted(Path(ctsat.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {
            element.value
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for element in ast.walk(node.value)
            if isinstance(element, ast.Constant)
        }
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_private_module_name_is_read():
    # a private function, class or constant that no code in the package
    # reads is dead code a refactor left behind (a replaced helper or step
    # method); tests do not count as readers
    paths = sorted(Path(ctsat.__file__).parent.glob("*.py"))
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in paths]
    read = {node.id for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in zip(paths, trees):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{path.name}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    assert unread == []


# valid arguments of each parameter class; every float field of each is
# then made non-finite in turn
_VALID_ARGS = {IntegratorConfig: {}, MemParams: {}, NetlistOptions: {},
               BarthelParams: {"num_vars": 10, "ratio": 4.3}, SquareWave: {"period": 2.0}}
_FLOAT_FIELDS = [(cls, f.name) for cls in _VALID_ARGS for f in fields(cls)
                 if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("cls, name", _FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS])
def test_non_finite_parameters_rejected_by_name(cls, name, value):
    # a NaN or infinite parameter used to start a run that aborted at t=0,
    # hung the sample loop, or overflowed far from where it was given
    cls(**_VALID_ARGS[cls])
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        cls(**{**_VALID_ARGS[cls], name: value})


@pytest.mark.parametrize("value", [True, "1"], ids=["bool", "str"])
@pytest.mark.parametrize("cls, name", _FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS])
def test_non_numbers_rejected_by_name(cls, name, value):
    # MemParams(alpha=True) ran with alpha = 1 and recorded "alpha": true;
    # alpha="5" was accepted and failed mid-run with a UFuncTypeError
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
        cls(**{**_VALID_ARGS[cls], name: value})


def test_integer_parameters_stay_valid():
    assert MemParams(alpha=5, beta=20).alpha == 5
    assert IntegratorConfig(t_ev=10, dt_max=1).t_ev == 10
    assert NetlistOptions(shunt_resistance=10 ** 9).shunt_resistance == 10 ** 9
    assert SquareWave(period=2, low=-1, high=1).period == 2
