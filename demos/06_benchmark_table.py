"""A small benchmark grid: both solvers on all three families at N = 10
and N = 20, summarized like the headline table of a solver comparison.

The full grid (N up to 50, 10 instances per cell) is what the acceptance
suite runs; this desk-sized version finishes in well under a minute.
Everything is persisted under ./demo-out/bench.
"""

from ctsat import IntegratorConfig
from ctsat.harness import ExperimentPlan, SolverSpec, run_experiment, verify_run_dir
from ctsat.integrate import ANALOG, MEM

plan = ExperimentPlan(
    families=("B4.3", "B7", "X"),
    sizes=(10, 20),
    instances_per_cell=5,
    solvers=(SolverSpec(ANALOG), SolverSpec(MEM)),
    config=IntegratorConfig(t_ev=300.0),
    seed_base=0,
    workers=2,
)

table, records = run_experiment(plan, "demo-out/bench")
print(table.to_markdown())

for (size, label, family), cell in sorted(table.cells.items()):
    if cell.median_time is not None:  # a median over the solved runs only
        print(f"N={size:>2} {label:>6} {family:>4}: median t_solve {cell.median_time:6.1f} "
              f"over {len(cell.solve_times)}/{cell.runs} solved runs")

checked = verify_run_dir("demo-out/bench")
print(f"\nre-verified {checked} persisted solved runs against their instances")
