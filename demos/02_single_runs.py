"""Integrate both solvers on the same difficult instance and compare.

Saves each run under ./demo-out/runs as a JSON file (metadata, outcome)
plus a .npz file (times, contra, contrd and states, readable with
numpy.load), exports the memcomputing control signals as a tidy CSV and,
when matplotlib is available, writes a PNG of the variable dynamics for
each solver.
"""

from ctsat import ANALOG, MEM, IntegratorConfig, run
from ctsat.harness import emit_plot_data
from ctsat.instances import BarthelParams, gen_barthel
from ctsat.integrate import save_run

inst = gen_barthel(BarthelParams(num_vars=40, ratio=4.3, p0=0.08, seed=7))
config = IntegratorConfig(t_ev=300.0)

records = {}
for solver in (ANALOG, MEM):
    record = run(inst.problem, solver, seed=3, config=config)
    records[solver] = record
    save_run(record, "demo-out/runs", f"difficult_{solver}")
    print(f"{solver}: {record.outcome} at t={record.t_solve}, "
          f"{record.stats['n_accepted']} steps, "
          f"{record.stats['n_rhs']} derivative evaluations")

# tidy data for external plotting tools
csv_text = emit_plot_data(records[MEM], "contrd,contra")
open("demo-out/runs/difficult_mem_controls.csv", "w").write(csv_text)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(2, 1, figsize=(8, 6), sharex=True)
    for ax, solver, label in zip(axes, (ANALOG, MEM), ("s_i", "v_i")):
        rec = records[solver]
        n = inst.problem.num_vars
        ax.plot(rec.times, rec.states[:, :n], lw=0.6)
        ax.set_ylabel(label)
        ax.set_title(f"{solver}: {rec.outcome} at t={rec.t_solve}")
    axes[-1].set_xlabel("time")
    fig.tight_layout()
    fig.savefig("demo-out/runs/difficult_dynamics.png", dpi=120)
    print("wrote demo-out/runs/difficult_dynamics.png")
except ImportError:
    print("matplotlib not installed; skipped the figure")
