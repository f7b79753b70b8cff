"""Command line interface.

Subcommands: gen, solve, netlist, oracle, network, bench, plotdata.
Every flag follows its subcommand and is declared only on the subcommands
that read it, so argparse rejects it on any other.  solve and netlist
share one set of solver flags, one per field of AnalogOptions and
MemOptions; a flag of the solver not chosen is a usage error.  A flag
for a field with a library default is unset when not given.  main turns
every ValueError a subcommand raises into a usage error of that
subcommand: a value the library rejects, or an input file it cannot read;
an OSError, from a write, is one "cannot write" error line, exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from .cnf import _integers as _ascii_integers, assignment_to_bits, read_dimacs
from .dynamics import AUX_MODES, MemOptions, resolve_options
from .harness import (
    ExperimentPlan,
    SolverSpec,
    emit_plot_data,
    run_experiment,
    save_instance,
)
from .instances import BarthelParams, gen_barthel, gen_xorsat_3r
from .integrate import ANALOG, MEM, METHODS, IntegratorConfig, load_run, run, save_run
from .netlist import (
    NetlistOptions,
    SubcircuitSpec,
    emit_analog,
    emit_mem,
    serialize,
)
from .network import load_network_config, simulate_network
from .oracle import solve_dpll, solve_exhaustive


# the solver flags: option string -> argparse keywords, each dest an options field
_SOLVER_FLAGS = {
    "--no-one-eighth": dict(dest="one_eighth_factor", action="store_false",
                            help="analog: drop the 1/2^3 prefactor from the clause products"),
    "--aux-mode": dict(dest="aux_mode", choices=AUX_MODES),
    "--no-clamp-v": dict(dest="clamp_v", action="store_false",
                         help="mem: remove the voltage bounds"),
    **{f"--{f.name}": dict(dest=f.name, type=float, help=f"mem: {f.name} (default {f.default})")
       for f in fields(MemOptions) if f.type == "float"},
}


def _add_solver_flags(parser):
    """The solver and its options, shared by solve and netlist; unset when not given."""
    parser.add_argument("--solver", choices=(ANALOG, MEM), default=MEM)
    for flag, keywords in _SOLVER_FLAGS.items():
        parser.add_argument(flag, default=argparse.SUPPRESS, **keywords)


def _solver_options(args):
    """args.solver's options from the flags given; another solver's flag is a ValueError."""
    options = resolve_options(args.solver)
    given = {kw["dest"]: flag for flag, kw in _SOLVER_FLAGS.items() if hasattr(args, kw["dest"])}
    stray = [flag for name, flag in given.items() if not hasattr(options, name)]
    if stray:
        raise ValueError(f"--solver {args.solver} does not read {', '.join(stray)}")
    return replace(options, **{name: getattr(args, name) for name in given})


def _add_integrator_flags(parser):
    """The integrator flags and the JSON file they override, shared by solve and bench."""
    parser.add_argument("--config", type=_config_file, help="JSON file of integrator settings")
    parser.add_argument("--t-ev", type=float, default=argparse.SUPPRESS,
                        help=f"evolution time budget (default {IntegratorConfig.t_ev:g})")
    parser.add_argument("--method", choices=METHODS, default=argparse.SUPPRESS)
    parser.add_argument("--error-tol", type=float, default=argparse.SUPPRESS)
    parser.add_argument("--dt-init", type=float, default=argparse.SUPPRESS)
    parser.add_argument("--sample-interval", type=float, default=argparse.SUPPRESS)


def _config_file(path: str) -> dict:
    """The --config file's JSON object of IntegratorConfig fields; else a usage error."""
    try:
        overrides = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot read {path}: {exc.strerror}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON text is UTF-8
        raise argparse.ArgumentTypeError(f"{path} is not JSON: {exc}") from None
    if type(overrides) is not dict:
        raise argparse.ArgumentTypeError(f"{path} must hold a JSON object, got {overrides!r}")
    unknown = sorted(set(overrides) - {f.name for f in fields(IntegratorConfig)})
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown config keys in {path}: {unknown}")
    return overrides


def _integrator_config(args) -> IntegratorConfig:
    given = _given(args, *(f.name for f in fields(IntegratorConfig)))
    return IntegratorConfig(**{**(args.config or {}), **given})


def _given(args, *names) -> dict:
    """The flags among names (dests) that were given; the others are left to the library."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _read(load, path):
    """load(path); a file it cannot read raises ValueError naming the file."""
    try:
        return load(path)
    except OSError as exc:
        raise ValueError(f"cannot read {exc.filename}: {exc.strerror}") from None


def _cnf_path(text: str) -> Path:
    """A gen --out path; it must end in .cnf, since the JSON sidecar takes its stem."""
    if Path(text).suffix != ".cnf":
        raise argparse.ArgumentTypeError(f"{text} does not end in .cnf")
    return Path(text)


def _items(text: str) -> tuple[str, ...]:
    """A comma list: each item stripped, empty items dropped."""
    return tuple(x.strip() for x in text.split(",") if x.strip())


def _integers(text: str) -> tuple[int, ...]:
    """A comma list of integers: variable indices or instance sizes, each
    ASCII -?[0-9]+ as in DIMACS (int() alone would also read 1_0 and +1)."""
    numbers = _ascii_integers(list(_items(text)))
    if numbers is None:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")
    return tuple(numbers)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctsat",
        description="continuous-time SAT solver laboratory",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    out_dir = argparse.ArgumentParser(add_help=False)
    out_dir.add_argument("--out-dir", default="ctsat-out",
                         help="output directory for runs/experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a planted instance")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    p_barthel = gen_sub.add_parser("barthel", parents=[seed], help="planted ensemble instance")
    p_barthel.add_argument("--n", type=int, required=True)
    p_barthel.add_argument("--ratio", type=float, default=4.3,
                           help="clause ratio M/N (7 easy, 4.3 difficult)")
    p_barthel.add_argument("--p0", type=float, default=argparse.SUPPRESS)
    p_barthel.add_argument("--out", type=_cnf_path, required=True, help="output .cnf path")
    p_xorsat = gen_sub.add_parser("xorsat", parents=[seed], help="3-regular 3-XORSAT instance")
    p_xorsat.add_argument("--n", type=int, required=True)
    p_xorsat.add_argument("--out", type=_cnf_path, required=True, help="output .cnf path")

    p_solve = sub.add_parser("solve", parents=[seed, out_dir],
                             help="integrate one solver on a CNF file")
    p_solve.add_argument("--in", dest="infile", required=True)
    p_solve.add_argument("--name", default="run", help="basename for saved record")
    _add_solver_flags(p_solve)
    _add_integrator_flags(p_solve)

    p_net = sub.add_parser("netlist", parents=[seed], help="emit a SPICE netlist for a CNF file")
    p_net.add_argument("--in", dest="infile", required=True)
    p_net.add_argument("--out", required=True, help="output netlist path (.cir/.net)")
    _add_solver_flags(p_net)
    p_net.add_argument("--shunt", dest="shunt_resistance", type=float,
                       default=argparse.SUPPRESS, help="shunt resistance in ohms "
                       f"(default {NetlistOptions.shunt_resistance:g})")
    p_net.add_argument("--random-ic", action="store_true",
                       help="emit simulator-side random initial conditions "
                            "({flat(1)}) instead of explicit seeded values")
    p_net.add_argument("--subckt", default=None, help="wrap the deck as .subckt NAME")
    # the pin flags shape the .subckt block; each is unset when not given
    p_net.add_argument("--inputs", type=_integers, default=argparse.SUPPRESS,
                       help="comma list of input variables (1-based)")
    p_net.add_argument("--outputs", type=_integers, default=argparse.SUPPRESS,
                       help="comma list of output variables")
    p_net.add_argument("--no-contrd-pin", action="store_true", default=argparse.SUPPRESS)
    p_net.add_argument("--t-ev", type=float, default=argparse.SUPPRESS)

    p_oracle = sub.add_parser("oracle", help="decide satisfiability exactly")
    p_oracle.add_argument("--in", dest="infile", required=True)
    p_oracle.add_argument("--method", choices=("dpll", "exhaustive"), default="dpll")

    p_network = sub.add_parser("network", parents=[out_dir], help="simulate a solver network")
    p_network.add_argument("--config", required=True, help="JSON network description")

    p_bench = sub.add_parser("bench", parents=[seed, out_dir],
                             help="run a benchmark grid and summarize")
    p_bench.add_argument("--families", type=_items, default=argparse.SUPPRESS)
    p_bench.add_argument("--sizes", type=_integers, default=argparse.SUPPRESS)
    p_bench.add_argument("--instances", dest="instances_per_cell", type=int,
                         default=argparse.SUPPRESS)
    p_bench.add_argument("--solvers", type=_items, default=argparse.SUPPRESS)
    p_bench.add_argument("--workers", type=int, default=argparse.SUPPRESS)
    _add_integrator_flags(p_bench)

    p_plot = sub.add_parser("plotdata", help="tidy CSV from a saved run")
    p_plot.add_argument("--run", required=True, help="run JSON path")
    p_plot.add_argument("--select", required=True,
                        help="comma list: contra, contrd, s:*, a:3, v:1, xs:*, xl:2")
    p_plot.add_argument("--out", default=None, help="output CSV (default stdout)")

    for command_parser in (*sub.choices.values(), *gen_sub.choices.values()):  # for main
        command_parser.set_defaults(parser=command_parser)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ValueError as exc:  # a value the library rejects, or an unreadable input
        args.parser.error(str(exc))
    except OSError as exc:  # _read turns read failures into ValueError: this is a write
        args.parser.exit(1, f"{args.parser.prog}: error: cannot write {exc.filename}: "
                            f"{exc.strerror}\n")


def _run(args) -> int:
    """Run args.command; main reports the ValueErrors and OSErrors it raises."""
    if args.command == "gen":
        if args.family == "barthel":
            inst = gen_barthel(BarthelParams(num_vars=args.n, ratio=args.ratio, seed=args.seed,
                                             **_given(args, "p0")))
            family = f"B{args.ratio:g}"
        else:
            inst = gen_xorsat_3r(args.n, args.seed)
            family = "X"
        save_instance(inst, args.out.parent, args.out.stem, family=family, seed=args.seed)
        print(f"wrote {args.out} (N={inst.problem.num_vars}, M={inst.problem.num_clauses})")
        return 0

    if args.command == "solve":
        solver_options = _solver_options(args)
        problem = _read(read_dimacs, args.infile)
        record = run(problem, args.solver, seed=args.seed, config=_integrator_config(args),
                     solver_options=solver_options)
        record.instance = args.infile
        save_run(record, args.out_dir, args.name)
        t = record.t_solve if record.t_solve is not None else record.t_detect
        print(f"{record.outcome}" + (f" at t={t:g}" if t is not None else ""))
        if record.assignment is not None:
            print(assignment_to_bits(record.assignment))
        return 0

    if args.command == "netlist":
        solver_options = _solver_options(args)
        pins = [name for name in ("inputs", "outputs", "no_contrd_pin") if hasattr(args, name)]
        subckt = None
        if args.subckt is not None:
            subckt = SubcircuitSpec(args.subckt, getattr(args, "inputs", ()),
                                    getattr(args, "outputs", ()), "no_contrd_pin" not in pins)
        elif pins:
            raise ValueError(", ".join("--" + name.replace("_", "-") for name in pins)
                             + " needs --subckt")
        problem = _read(read_dimacs, args.infile)
        options = NetlistOptions(solver_options=solver_options,
                                 ic_seed=None if args.random_ic else args.seed, subcircuit=subckt,
                                 **_given(args, "t_ev", "shunt_resistance"))
        doc = (emit_analog if args.solver == ANALOG else emit_mem)(problem, options)
        Path(args.out).write_text(serialize(doc))
        print(f"wrote {args.out} ({len(doc.elements)} cards)")
        return 0

    if args.command == "oracle":
        problem = _read(read_dimacs, args.infile)
        solver = solve_dpll if args.method == "dpll" else solve_exhaustive
        result = solver(problem)
        if result.satisfiable:
            print("SATISFIABLE")
            print(assignment_to_bits(result.witness))
        else:
            print("UNSATISFIABLE")
        return 0 if result.satisfiable else 1

    if args.command == "network":
        nodes, wiring, config, seeds, stop_on_solve = _read(load_network_config, args.config)
        records = simulate_network(nodes, wiring, config, seeds,
                                   stop_on_solve=stop_on_solve)
        for i, record in enumerate(records):
            save_run(record, args.out_dir, f"node{i}")
            t = f" t_solve={record.t_solve:g}" if record.t_solve is not None else ""
            print(f"node {i}: {record.outcome}{t}")
        return 0

    if args.command == "bench":
        grid = _given(args, "families", "sizes", "instances_per_cell", "solvers", "workers")
        if "solvers" in grid:
            grid["solvers"] = tuple(map(SolverSpec, grid["solvers"]))
        plan = ExperimentPlan(config=_integrator_config(args), seed_base=args.seed, **grid)
        table, _records = run_experiment(plan, args.out_dir)
        print(table.to_markdown())
        return 0

    if args.command == "plotdata":
        payload = _read(load_run, args.run)
        csv_text = emit_plot_data(payload, args.select)
        if args.out:
            Path(args.out).write_text(csv_text)
            print(f"wrote {args.out}")
        else:
            sys.stdout.write(csv_text)
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
