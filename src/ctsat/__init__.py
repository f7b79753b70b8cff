"""ctsat: a continuous-time SAT solving laboratory.

Numerically integrates the analog-SAT and digital-memcomputing dynamical
systems on 3-SAT instances, generates planted benchmark families, emits
equivalent LTspice netlists, and composes solvers into networks.
"""

from .cnf import (
    Assignment,
    Clause,
    DimacsError,
    Literal,
    Problem,
    count_unsatisfied,
    parse_dimacs,
    write_dimacs,
)
from .dynamics import (
    AnalogOptions,
    AnalogState,
    MemOptions,
    MemParams,
    MemState,
    analog_rhs,
    clamp_mask,
    clause_value,
    control_signals,
    energy,
    k_m,
    mem_rhs,
    readout,
)
from .instances import (
    BarthelParams,
    PlantedInstance,
    XorEquation,
    gen_barthel,
    gen_xorsat_3r,
    xor_to_cnf,
)
from .integrate import (
    ANALOG,
    CONVERGED_TO_ZERO,
    MEM,
    SOLVED,
    TIMEOUT,
    IntegratorConfig,
    RunRecord,
    init_analog,
    init_mem,
    run,
)
from .netlist import (
    NetlistOptions,
    SubcircuitSpec,
    emit_analog,
    emit_mem,
    emit_subcircuit,
    serialize,
)
from .network import SolverNode, SquareWave, Wiring, simulate_network
from .oracle import OracleResult, solve_dpll, solve_exhaustive
from .harness import ExperimentPlan, SolverSpec, SummaryTable, emit_plot_data, run_experiment

__version__ = "0.1.0"
