"""Experiment orchestration: generate instance grids, run solver batches,
aggregate benchmark summary tables, emit plot data.

Persistence layout (one directory per experiment):

    instances/   DIMACS files plus JSON sidecars (plant, seed, family)
    runs/        one JSON + .npz pair per run (metadata, trajectory arrays)
    summary.json, summary.md

Seeds are derived from a single seed base by hashing it with the cell
coordinates (family, size, instance index, solver label), giving
independent but fully reproducible streams.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field, asdict
from pathlib import Path
from statistics import median
from typing import Optional

from .cnf import (assignment_to_bits, check_fields, count_unsatisfied, read_dimacs,
                  require_integer, write_dimacs)
from .dynamics import AnalogOptions, MemOptions, resolve_options
from .instances import BarthelParams, PlantedInstance, gen_barthel, gen_xorsat_3r
from .integrate import (
    ANALOG,
    CONVERGED_TO_ZERO,
    MEM,
    SOLVED,
    IntegratorConfig,
    RunRecord,
    load_run,
    run_batch,
    save_run,
)

__all__ = [
    "FAMILIES",
    "derive_seed",
    "generate_instance",
    "save_instance",
    "SolverSpec",
    "ExperimentPlan",
    "CellSummary",
    "SummaryTable",
    "run_experiment",
    "emit_plot_data",
    "verify_run_dir",
]

_BARTHEL_RATIOS = {"B4.3": 4.3, "B7": 7.0}  # clause ratio M/N of each Barthel family
FAMILIES = (*_BARTHEL_RATIOS, "X")

logger = logging.getLogger(__name__)


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from arbitrary labels (sha256 based)."""
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _require_family(family: str):
    """The one family check, of ExperimentPlan and generate_instance."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} (expected one of {FAMILIES})")


def generate_instance(family: str, size: int, seed: int) -> PlantedInstance:
    _require_family(family)
    if family == "X":
        return gen_xorsat_3r(size, seed)
    return gen_barthel(BarthelParams(size, _BARTHEL_RATIOS[family], seed=seed))


def save_instance(inst: PlantedInstance, directory, name: str,
                  family: str = "", seed: Optional[int] = None) -> Path:
    """Write DIMACS plus a JSON sidecar holding plant and seed."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    cnf_path = directory / f"{name}.cnf"
    cnf_path.write_text(write_dimacs(inst.problem, comments=[f"{family} instance {name}"]),
                        encoding="utf-8")
    sidecar = {
        "family": family,
        "num_vars": inst.problem.num_vars,
        "num_clauses": inst.problem.num_clauses,
        "seed": seed,
        "plant": assignment_to_bits(inst.plant),
        "dimacs": cnf_path.name,
    }
    (directory / f"{name}.json").write_text(json.dumps(sidecar, indent=1) + "\n")
    return cnf_path


@dataclass(frozen=True)
class SolverSpec:
    kind: str  # "analog" or "mem"
    label: str = ""
    solver_options: AnalogOptions | MemOptions | None = None  # None: the kind's defaults

    def __post_init__(self):
        object.__setattr__(self, "solver_options", resolve_options(self.kind, self.solver_options))
        if not self.label:
            object.__setattr__(self, "label", self.kind)


@dataclass(frozen=True)
class ExperimentPlan:
    families: tuple[str, ...] = FAMILIES
    sizes: tuple[int, ...] = (10, 20, 30, 40, 50)
    instances_per_cell: int = 10
    solvers: tuple[SolverSpec, ...] = (SolverSpec(ANALOG), SolverSpec(MEM))
    config: IntegratorConfig = IntegratorConfig()
    seed_base: int = 0
    workers: int = 1

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "sizes", tuple(require_integer(n, "size") for n in self.sizes))
        if not (self.families and self.sizes and self.solvers):
            raise ValueError("plan needs at least one family, size and solver")
        for family in self.families:
            _require_family(family)
        # records and seeds are keyed by family, size and solver label
        for name, keys in (("families", self.families), ("sizes", self.sizes),
                           ("solver labels", [spec.label for spec in self.solvers])):
            if len(set(keys)) != len(keys):
                raise ValueError(f"duplicate {name} in {list(keys)}")
        if self.instances_per_cell < 1 or self.workers < 1:
            raise ValueError("instances_per_cell and workers must be at least 1")


@dataclass
class CellSummary:
    runs: int = 0
    unsolved: int = 0
    converged_to_zero: int = 0
    aborted: int = 0        # runs that ended on an integration abort (counted in unsolved)
    solve_times: list = field(default_factory=list)

    @property
    def median_time(self) -> Optional[float]:
        return median(self.solve_times) if self.solve_times else None


@dataclass
class SummaryTable:
    """Per (size, solver label, family) aggregate of run outcomes."""

    cells: dict

    @classmethod
    def from_records(cls, records: dict) -> "SummaryTable":
        cells: dict = {}
        for (family, size, _index, label), record in sorted(records.items()):
            cell = cells.setdefault((size, label, family), CellSummary())
            cell.runs += 1
            if record.outcome == SOLVED:
                cell.solve_times.append(record.t_solve)
            else:
                cell.unsolved += 1
                if record.outcome == CONVERGED_TO_ZERO:
                    cell.converged_to_zero += 1
            if "abort_message" in record.stats:
                cell.aborted += 1
        return cls(cells)

    def to_json_dict(self) -> dict:
        return {"cells": [
            {"size": size, "solver": label, "family": family, "runs": cell.runs,
             "unsolved": cell.unsolved, "converged_to_zero": cell.converged_to_zero,
             "aborted": cell.aborted, "median_t_solve": cell.median_time}
            for (size, label, family), cell in sorted(self.cells.items())
        ]}

    def to_markdown(self) -> str:
        sizes = sorted({size for size, _, _ in self.cells})
        labels = sorted({label for _, label, _ in self.cells})
        families = [f for f in FAMILIES if any(k[2] == f for k in self.cells)]
        lines = ["| N | solver | " + " | ".join(families) + " |",
                 "|---|--------|" + "|".join("---" for _ in families) + "|"]
        for size in sizes:
            for label in labels:
                row = [str(size), label]
                for family in families:
                    cell = self.cells.get((size, label, family))
                    if cell is None:
                        row.append("-")
                    elif cell.converged_to_zero:
                        row.append(f"{cell.unsolved} ({cell.converged_to_zero})")
                    else:
                        row.append(str(cell.unsolved))
                lines.append("| " + " | ".join(row) + " |")
        lines.append("")
        lines.append("unsolved out of runs per cell; parentheses = converged to zero")
        return "\n".join(lines) + "\n"


def _run_cell(spec: SolverSpec, config: IntegratorConfig, problems, seeds):
    """One cell's runs as one batch; returns them with the cell's wall time."""
    start = time.perf_counter()
    records = run_batch(problems, spec.kind, seeds, config=config,
                        solver_options=spec.solver_options)
    return records, time.perf_counter() - start


def _finished_cells(cells: dict, workers: int):
    """Yields (cell key, (records, wall time)) as each cell finishes: in
    this process when there is one worker or one cell, else on a pool."""
    if workers == 1 or len(cells) == 1:
        for key, task in cells.items():
            yield key, _run_cell(*task)
        return
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        futures = {pool.submit(_run_cell, *task): key for key, task in cells.items()}
        for future in as_completed(futures):
            yield futures[future], future.result()


def run_experiment(plan: ExperimentPlan, out_dir=None):
    """Generate the instance grid, run every solver once per instance, and
    aggregate.  Returns (SummaryTable, records) with records keyed by
    (family, size, instance index, solver label).

    A cell, the instances of one family and size under one solver, is one
    task: its runs are integrated as one batch (integrate.run_batch), on a
    pool of plan.workers processes when the plan has more than one cell.
    With out_dir set, instances are persisted first, each cell's runs as
    soon as the cell finishes, and the summary at the end; one INFO line is
    logged per finished cell.  Individual aborted runs (step-size
    underflow, non-finite state) are recorded as timeouts, not fatal.
    """
    out_dir = Path(out_dir) if out_dir is not None else None
    cells: dict = {}
    for family in plan.families:
        for size in plan.sizes:
            problems = []
            for index in range(plan.instances_per_cell):
                seed = derive_seed(plan.seed_base, "instance", family, size, index)
                inst = generate_instance(family, size, seed)
                problems.append(inst.problem)
                if out_dir is not None:
                    save_instance(inst, out_dir / "instances", f"{family}_N{size}_{index:02d}",
                                  family, seed)
            for spec in plan.solvers:
                seeds = [derive_seed(plan.seed_base, "run", family, size, index, spec.label)
                         for index in range(plan.instances_per_cell)]
                cells[(family, size, spec.label)] = (spec, plan.config, problems, seeds)

    records: dict = {}
    for (family, size, label), (cell_records, wall) in _finished_cells(cells, plan.workers):
        for index, record in enumerate(cell_records):
            name = f"{family}_N{size}_{index:02d}"
            record.instance = f"instances/{name}.cnf"
            records[(family, size, index, label)] = record
            if out_dir is not None:
                save_run(record, out_dir / "runs", f"{name}_{label}")
        logger.info("cell %s N=%d %s: %d runs, %d solved, %d aborted, %.2f s wall",
                    family, size, label, len(cell_records),
                    sum(r.outcome == SOLVED for r in cell_records),
                    sum("abort_message" in r.stats for r in cell_records), wall)

    records = dict(sorted(records.items()))  # the same order however cells finish
    table = SummaryTable.from_records(records)
    if out_dir is not None:
        (out_dir / "summary.json").write_text(
            json.dumps({"plan": asdict(plan), **table.to_json_dict()}, indent=1) + "\n"
        )
        (out_dir / "summary.md").write_text(table.to_markdown())
    return table, records


def _series_columns(columns, token: str):
    if token in ("contra", "contrd"):
        return [token]
    if ":" not in token:
        raise ValueError(f"unknown selection {token!r}")
    prefix, which = token.split(":", 1)
    matching = [name for name in columns if name.rstrip("0123456789") == prefix
                and which in ("*", name[len(prefix):])]
    if not matching:
        raise ValueError(f"selection {token!r} matches no series")
    return matching


def emit_plot_data(record, selection: str) -> str:
    """Tidy CSV (t, series, value) for the selected series of a run.

    record is a RunRecord or a dict loaded by integrate.load_run.
    Selections are comma-separated tokens: 'contra', 'contrd', or
    '<prefix>:<index or *>' over the state columns (e.g. 's:*', 'a:3',
    'v:1', 'xs:*', 'xl:2'); indices are 1-based as in the column names.
    A selection that names no series raises ValueError.
    """
    fields = vars(record) if isinstance(record, RunRecord) else record
    columns, times, states = fields["state_columns"], fields["times"], fields["states"]
    extra = {"contra": fields["contra"], "contrd": fields["contrd"]}

    selected: list[str] = []
    for token in selection.split(","):
        token = token.strip()
        if token:
            selected.extend(_series_columns(columns, token))
    if not selected:
        raise ValueError(f"selection {selection!r} names no series")

    lines = ["t,series,value"]
    col_index = {name: i for i, name in enumerate(columns)}
    # repr of a Python float is the shortest round-trip text; the integer
    # contrd prints as a float too
    t_texts = [repr(t) for t in times.astype(float, copy=False).tolist()]
    for name in selected:
        values = extra[name] if name in extra else states[:, col_index[name]]
        middle = f",{name},"
        lines.extend([t + middle + repr(v) for t, v in
                      zip(t_texts, values.astype(float, copy=False).tolist())])
    return "\n".join(lines) + "\n"


def verify_run_dir(out_dir) -> int:
    """Re-verify every persisted Solved run against its instance file.

    Returns the number of solved records checked; raises on any mismatch.
    """
    out_dir = Path(out_dir)
    checked = 0
    for json_path in sorted((out_dir / "runs").glob("*.json")):
        payload = load_run(json_path)
        if payload["outcome"] != SOLVED:
            continue
        problem = read_dimacs(out_dir / payload["instance"])
        witness = payload["assignment_array"]
        if count_unsatisfied(problem, witness) != 0:
            raise AssertionError(f"{json_path.name}: recorded assignment does not satisfy")
        checked += 1
    return checked
