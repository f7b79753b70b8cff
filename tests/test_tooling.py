import argparse
import ast
import builtins
import importlib
import json
import math
import re
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest

import ctsat
from ctsat import cli, integrate
from ctsat.cli import build_parser
from ctsat.dynamics import ANALOG, MEM, AnalogOptions, MemOptions, initial_state, make_system
from ctsat.harness import ExperimentPlan
from ctsat.instances import BarthelParams, gen_xorsat_3r
from ctsat.integrate import IntegratorConfig
from ctsat.netlist import (NetlistOptions, SubcircuitSpec, emit_analog, emit_mem, serialize,
                           undeclared_references)
from ctsat.network import SquareWave
from test_cli import leaf_parsers
from test_netlist import deck_programs

REPO = Path(__file__).resolve().parent.parent


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


def test_every_exception_class_is_raised():
    # an exception class that no code raises is an API a caller may catch
    # in vain; the integrator's abort classes outlived their raise sites
    trees = [ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(ctsat.__file__).parent.glob("*.py"))]
    modules = [importlib.import_module(f"ctsat.{p.stem}")
               for p in sorted(Path(ctsat.__file__).parent.glob("[!_]*.py"))]
    defined = {name for m in modules for name, obj in vars(m).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == m.__name__}
    assert {"DimacsError", "ExprError"} <= defined
    raised = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "attr", getattr(exc, "id", None)))
    assert sorted(defined - raised) == []


def test_cli_catches_value_error_only_in_main_and_argument_types():
    # main turns every ValueError a subcommand raises into that subcommand's
    # usage error; a try/except of a subcommand's own would bypass it.  An
    # argparse type= function must catch, so that argparse prints its message.
    tree = ast.parse(Path(cli.__file__).read_text())
    types = {node.value.id for node in ast.walk(tree) if isinstance(node, ast.keyword)
             and node.arg == "type" and isinstance(node.value, ast.Name)}
    assert {"_config_file", "_integers"} <= types

    def resolve(node):
        if isinstance(node, ast.Attribute):
            return getattr(resolve(node.value), node.attr)
        return getattr(cli, node.id, None) or getattr(builtins, node.id)

    def catches_value_error(handler):
        if handler.type is None:
            return True
        names = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return any(issubclass(ValueError, exc) or issubclass(exc, ValueError)
                   for exc in map(resolve, names))

    catching = {function.name for function in tree.body if isinstance(function, ast.FunctionDef)
                for node in ast.walk(function)
                if isinstance(node, ast.ExceptHandler) and catches_value_error(node)}
    assert "main" in catching
    assert sorted(catching - types - {"main"}) == []


def test_deck_toolchain_does_not_recurse():
    # a deck function chain a thousand calls deep ended in RecursionError
    # when evaluate ran each callee's body by calling itself; the emitter and
    # the checker read a deck top to bottom, with loops only
    found = []
    for module in ("netlist", "spice_expr"):
        path = Path(ctsat.__file__).parent / f"{module}.py"
        for function in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                callee = node.func if isinstance(node, ast.Call) else None
                if (getattr(callee, "id", None) == function.name
                        or getattr(callee, "attr", None) == function.name
                        and getattr(callee.value, "id", None) in ("self", "cls", module)):
                    found.append(f"{module}.{function.name}:{node.lineno}")
    assert found == []


_SOLVER_OPTIONS = [AnalogOptions(aux_mode=mode) for mode in ("aK2", "aK", "K", "K2")]
_SOLVER_OPTIONS += [MemOptions(clamp_v=clamp) for clamp in (True, False)]
_SUBCIRCUITS = [None, SubcircuitSpec("sx", (1,), (2,)), SubcircuitSpec("sx", (1,), (2,), False)]


@pytest.mark.parametrize("subcircuit", _SUBCIRCUITS, ids=["deck", "subckt", "subckt-no-contrd"])
@pytest.mark.parametrize("solver_options", _SOLVER_OPTIONS, ids=lambda options: (
    f"analog-{options.aux_mode}" if isinstance(options, AnalogOptions)
    else f"mem-clamp-{options.clamp_v}"))
def test_emitted_decks_are_closed_and_define_only_called_functions(solver_options, subcircuit):
    # a subcircuit deck defined its input variable's derivative (sx_fv1,
    # sx_fs1), which no source calls; and a subcircuit deck wrote no start
    solver, emit = ((ANALOG, emit_analog) if isinstance(solver_options, AnalogOptions)
                    else (MEM, emit_mem))
    problem = gen_xorsat_3r(10, seed=1).problem
    doc = emit(problem, NetlistOptions(solver_options=solver_options, subcircuit=subcircuit))
    assert undeclared_references(doc) == []
    # each cell's start is on its own capacitor card, the integrator's start
    start = dict(zip(make_system(problem, solver, solver_options).columns,
                     initial_state(problem, solver, NetlistOptions.ic_seed).tolist()))
    for card in doc.elements:
        if card.name.startswith("C"):
            capacitance, ic = card.value.split(" IC=")  # ends in exactly one IC=
            assert capacitance == "1" and float(ic) == start[card.nodes[0]]
    assert not any(line.startswith(".ic") for line in serialize(doc).splitlines())
    functions, sources = deck_programs(doc)
    calls = lambda program: {entry[1] for entry in program
                             if isinstance(entry, tuple) and entry[0] == "call"}
    called = set().union(*map(calls, sources.values()))
    for name in reversed(functions):  # a function calls only those defined above it
        if name in called:
            called |= calls(functions[name])
    assert sorted(set(functions) - called) == []


def test_project_version_matches_package():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((REPO / "pyproject.toml").read_text())["project"]
    assert project["version"] == ctsat.__version__


# valid arguments of each parameter and option class; every float field of
# each is then made non-finite in turn, and every typed field mistyped
_VALID_ARGS = {IntegratorConfig: {}, NetlistOptions: {},
               BarthelParams: {"num_vars": 10, "ratio": 4.3}, SquareWave: {"period": 2.0},
               AnalogOptions: {}, MemOptions: {}, ExperimentPlan: {},
               SubcircuitSpec: {"name": "x", "inputs": (1,), "outputs": (2,)}}
_FLOAT_FIELDS = [(cls, f.name) for cls in _VALID_ARGS for f in fields(cls)
                 if f.type == "float"]
_MISTYPED = {"bool": ("false", 1, None), "int": (True, 2.5, "1")}
_MISTYPED_FIELDS = [(cls, f.name, f.type, value) for cls in _VALID_ARGS for f in fields(cls)
                    for value in _MISTYPED.get(f.type, ())]


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
    # alpha=True ran with alpha = 1 and recorded "alpha": true;
    # alpha="5" was accepted and failed mid-run with a UFuncTypeError
    with pytest.raises(ValueError, match=f"^{name} must be a real number, got {value!r}$"):
        cls(**{**_VALID_ARGS[cls], name: value})


@pytest.mark.parametrize(
    "cls, name, kind, value", _MISTYPED_FIELDS,
    ids=[f"{cls.__name__}.{name}={value!r}" for cls, name, _, value in _MISTYPED_FIELDS])
def test_mistyped_bool_and_int_fields_rejected_by_name(cls, name, kind, value):
    # bool and int fields were read by truthiness or int(): MemOptions(clamp_v="false")
    # kept the voltage bounds, BarthelParams(10, 4.3, seed=True) gave the seed-1
    # instance and ExperimentPlan(instances_per_cell=2.5) was accepted
    noun = {"bool": "a bool", "int": "an integer"}[kind]
    with pytest.raises(ValueError, match=f"^{name} must be {noun}, got {re.escape(repr(value))}$"):
        cls(**{**_VALID_ARGS[cls], name: value})


def test_float_fields_cover_every_mem_parameter():
    # the six memcomputing parameters moved into MemOptions; each keeps its cases
    assert [name for cls, name in _FLOAT_FIELDS if cls is MemOptions] == [
        "alpha", "beta", "gamma", "delta", "epsilon", "zeta"]


def test_solver_flags_declared_once_per_option_field():
    # solve and netlist declare one flag per options field, whose dest is
    # the field; no other subcommand declares any of them
    names = [f.name for cls in (AnalogOptions, MemOptions) for f in fields(cls)]
    assert len(set(names)) == len(names) == 9
    declared = {path: sorted(a.dest for a in leaf._actions if a.dest in names)
                for path, leaf in leaf_parsers(build_parser())}
    assert declared == {path: sorted(names) if path in ("solve", "netlist") else []
                        for path in declared}


def test_cli_flags_leave_library_defaults_to_their_dataclasses():
    # a CLI default that restates a dataclass default goes stale when the
    # dataclass changes: a flag whose dest is a defaulted field of an object
    # its subcommand builds is unset when not given.  The shared --seed and
    # --config are exempt: the base seed, which gen also writes into the
    # sidecar, and the file of IntegratorConfig overrides, not a plan field.
    builds = {"bench": [ExperimentPlan, IntegratorConfig], "gen barthel": [BarthelParams],
              "netlist": [NetlistOptions, AnalogOptions, MemOptions],
              "solve": [AnalogOptions, MemOptions, IntegratorConfig]}
    parsers = dict(leaf_parsers(build_parser()))
    restated = []
    for path, classes in builds.items():
        defaulted = {f.name for cls in classes for f in fields(cls) if f.default is not MISSING}
        restated += [f"{path} {action.option_strings[0]}" for action in parsers[path]._actions
                     if action.dest in defaulted - {"seed", "config"}
                     and action.default is not argparse.SUPPRESS]
    assert restated == []


def test_mistyped_fields_cover_every_typed_option():
    assert {(cls.__name__, name) for cls, name, _, _ in _MISTYPED_FIELDS} == {
        ("AnalogOptions", "one_eighth_factor"), ("MemOptions", "clamp_v"),
        ("SubcircuitSpec", "expose_contrd"), ("BarthelParams", "num_vars"),
        ("BarthelParams", "seed"), ("ExperimentPlan", "instances_per_cell"),
        ("ExperimentPlan", "seed_base"), ("ExperimentPlan", "workers")}


@pytest.mark.parametrize("build, message", [
    (lambda: gen_xorsat_3r(10, seed=True), "seed must be an integer, got True"),
    (lambda: gen_xorsat_3r(10.0), "num_vars must be an integer, got 10.0"),
    (lambda: ExperimentPlan(sizes=(10.5,)), "size must be an integer, got 10.5"),
    (lambda: ExperimentPlan(sizes=(10, True)), "size must be an integer, got True"),
], ids=["xorsat-seed", "xorsat-num_vars", "plan-size", "plan-size-bool"])
def test_integer_arguments_rejected_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize("cls", [cls for cls in _VALID_ARGS
                                 if any(f.type == "int" for f in fields(cls))],
                         ids=lambda cls: cls.__name__)
def test_int_fields_store_python_ints(cls):
    # a NumPy integer was kept as given, so its repr ("np.int64(0)") fed
    # derive_seed and json.dumps of the plan failed
    names = [f.name for f in fields(cls) if f.type == "int"]
    valid = cls(**_VALID_ARGS[cls])
    built = cls(**{**_VALID_ARGS[cls], **{name: np.int64(getattr(valid, name)) for name in names}})
    assert [type(getattr(built, name)) for name in names] == [int] * len(names)
    assert built == valid


@pytest.mark.parametrize("cls", [cls for cls in _VALID_ARGS
                                 if any(f.type == "float" for f in fields(cls))],
                         ids=lambda cls: cls.__name__)
def test_float_fields_store_python_floats(cls):
    # a NumPy float was kept as given, so json.dumps of a plan or a saved
    # run failed; a Python int stays as given
    names = [f.name for f in fields(cls) if f.type == "float"]
    valid = cls(**_VALID_ARGS[cls])
    built = cls(**{**_VALID_ARGS[cls], **{name: np.float32(getattr(valid, name))
                                          for name in names}})
    assert [type(getattr(built, name)) for name in names] == [float] * len(names)
    json.dumps(asdict(built))


def test_integrator_meets_its_kernel_at_one_seam():
    # a batch takes its System and start rows from its members' system and
    # start, so a test kernel or a later one plugs in there, not by patching
    # a module global; the import binds both names, and init_analog and
    # init_mem, which perfbench reads, stay views of initial_state
    seam = ("make_batch_system", "initial_state")
    named = {name: [] for name in seam}

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if isinstance(child, (ast.Name, ast.Attribute)) and name in seam:
                named[name].append(where)
            visit(child, where)
    visit(ast.parse(Path(integrate.__file__).read_text()), "")
    assert named == {"make_batch_system": ["_Member.__init__"],
                     "initial_state": ["init_analog", "init_mem", "_Member.__init__"]}


def test_valid_args_cover_every_checked_dataclass():
    # every package class that calls check_fields is built by the cases
    # above; of those, two have int fields
    checked = {(path.stem, node.name) for path in Path(ctsat.__file__).parent.glob("*.py")
               for node in ast.parse(path.read_text()).body if isinstance(node, ast.ClassDef)
               and any(isinstance(call, ast.Call) and getattr(call.func, "id", None)
                       == "check_fields" for call in ast.walk(node))}
    assert checked == {(cls.__module__.rpartition(".")[2], cls.__name__) for cls in _VALID_ARGS}
    assert [cls for cls in _VALID_ARGS if any(f.type == "int" for f in fields(cls))] == [
        BarthelParams, ExperimentPlan]


def test_integer_parameters_stay_valid():
    assert MemOptions(alpha=5, beta=20).alpha == 5
    assert IntegratorConfig(t_ev=10, dt_max=1).t_ev == 10
    assert NetlistOptions(shunt_resistance=10 ** 9).shunt_resistance == 10 ** 9
    assert SquareWave(period=2, low=-1, high=1).period == 2
    five = np.int64(5)  # int fields and arguments take NumPy integers
    assert BarthelParams(num_vars=five, ratio=4.3, seed=five).seed == 5
    assert ExperimentPlan(sizes=(five,), instances_per_cell=five, workers=five).sizes == (5,)
    assert gen_xorsat_3r(five, seed=five).problem == gen_xorsat_3r(5, seed=5).problem
