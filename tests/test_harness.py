import hashlib
import json
import logging
import time
from dataclasses import asdict

import numpy as np
import pytest

import ctsat.harness as harness
import ctsat.integrate as integrate
from ctsat.cnf import count_unsatisfied, parse_dimacs, assignment_from_bits
from ctsat.dynamics import MemOptions
from ctsat.harness import (
    ExperimentPlan,
    SolverSpec,
    SummaryTable,
    derive_seed,
    emit_plot_data,
    generate_instance,
    run_experiment,
    save_instance,
    verify_run_dir,
)
from ctsat.integrate import (
    ANALOG, MEM, SOLVED, TIMEOUT, IntegratorConfig, load_run, run, run_batch,
)


def tiny_plan(**overrides):
    defaults = dict(
        families=("B7",),
        sizes=(10,),
        instances_per_cell=2,
        solvers=(SolverSpec(MEM),),
        config=IntegratorConfig(t_ev=60.0),
        seed_base=42,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def test_derive_seed_stable_and_distinct():
    a = derive_seed(0, "run", "B7", 10, 0, "mem")
    b = derive_seed(0, "run", "B7", 10, 0, "mem")
    c = derive_seed(0, "run", "B7", 10, 1, "mem")
    assert a == b
    assert a != c
    assert 0 <= a < 2 ** 63


def test_numpy_integer_seed_base_gives_the_same_plan():
    # seed_base kept the NumPy integer, so derive_seed hashed "np.int64(0)"
    # into another grid and summary.json could not be written as JSON
    plan = ExperimentPlan(seed_base=np.int64(0), workers=np.int64(1))
    assert plan == ExperimentPlan() and type(plan.seed_base) is int
    assert derive_seed(plan.seed_base, "instance", "X", 10, 0) == derive_seed(
        0, "instance", "X", 10, 0) == 7036492850819990905
    assert json.dumps(asdict(plan)) == json.dumps(asdict(ExperimentPlan()))


def test_generate_instance_families():
    b7 = generate_instance("B7", 10, 1)
    assert b7.problem.num_clauses == 70
    b43 = generate_instance("B4.3", 10, 1)
    assert b43.problem.num_clauses == 43
    x = generate_instance("X", 10, 1)
    assert x.problem.num_clauses == 40
    with pytest.raises(ValueError):
        generate_instance("Z", 10, 1)


def test_save_instance_sidecar(tmp_path):
    inst = generate_instance("B7", 10, 7)
    path = save_instance(inst, tmp_path, "demo", family="B7", seed=7)
    assert path.exists()
    sidecar = json.loads((tmp_path / "demo.json").read_text())
    assert sidecar["family"] == "B7"
    assert sidecar["seed"] == 7
    plant = assignment_from_bits(sidecar["plant"])
    problem = parse_dimacs(path.read_text())
    assert count_unsatisfied(problem, plant) == 0


def test_run_experiment_all_solved(tmp_path):
    table, records = run_experiment(tiny_plan(), tmp_path)
    assert len(records) == 2
    cell = table.cells[(10, "mem", "B7")]
    assert cell.runs == 2
    assert cell.unsolved == 0
    assert cell.median_time is not None
    # persistence
    assert (tmp_path / "summary.json").exists()
    assert (tmp_path / "summary.md").exists()
    assert len(list((tmp_path / "instances").glob("*.cnf"))) == 2
    assert len(list((tmp_path / "runs").glob("*.json"))) == 2
    assert verify_run_dir(tmp_path) == 2


def test_run_experiment_reproducible(tmp_path):
    table1, _ = run_experiment(tiny_plan(), tmp_path / "one")
    table2, _ = run_experiment(tiny_plan(), tmp_path / "two")
    assert table1.to_json_dict() == table2.to_json_dict()
    assert (tmp_path / "one" / "summary.md").read_text() == (
        tmp_path / "two" / "summary.md"
    ).read_text()


def assert_same_record(got, want):
    """Equal bytes (so equal values and sign bits), dtype and shape of the
    trajectory arrays; equal outcome, times, assignment and every stat but
    the wall time."""
    for key in ("times", "states", "contra", "contrd"):
        a, b = getattr(got, key), getattr(want, key)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), key
        assert a.tobytes() == b.tobytes(), key
        assert np.array_equal(np.signbit(a), np.signbit(b)), key
    assert (got.outcome, got.t_solve, got.t_detect) == (want.outcome, want.t_solve, want.t_detect)
    if want.assignment is None:
        assert got.assignment is None
    else:
        assert np.array_equal(got.assignment, want.assignment)
    without_wall = lambda stats: {k: v for k, v in stats.items() if k != "wall_time"}
    assert without_wall(got.stats) == without_wall(want.stats)


def test_run_experiment_workers_match_sequential(tmp_path):
    # two cells, so that two workers run them on a pool
    seq_table, seq_records = run_experiment(tiny_plan(sizes=(10, 12)))
    par_table, par_records = run_experiment(tiny_plan(sizes=(10, 12), workers=2))
    assert seq_table.to_json_dict() == par_table.to_json_dict()
    assert sorted(seq_records) == sorted(par_records)
    for key in seq_records:
        assert_same_record(par_records[key], seq_records[key])


def standalone(plan, key):
    """The record run() makes for one (family, size, index, label) key."""
    family, size, index, label = key
    spec = next(spec for spec in plan.solvers if spec.label == label)
    problem = generate_instance(
        family, size, derive_seed(plan.seed_base, "instance", family, size, index)).problem
    return run(problem, spec.kind, seed=derive_seed(plan.seed_base, "run", *key),
               config=plan.config, solver_options=spec.solver_options)


def mixed_shape_cell(plan):
    """The records run_experiment would give for a cell of mixed shapes:
    one run_batch call per solver on X N=12, B4.3 N=12, X N=16 and X N=12
    problems, three shapes (N, M) and so three batches, keyed like
    run_experiment's records."""
    keys = [("X", 12, 0), ("B4.3", 12, 0), ("X", 16, 0), ("X", 12, 1)]
    problems = [generate_instance(family, size, derive_seed(
        plan.seed_base, "instance", family, size, index)).problem
        for family, size, index in keys]
    records = {}
    for spec in plan.solvers:
        seeds = [derive_seed(plan.seed_base, "run", *key, spec.label) for key in keys]
        batch = run_batch(problems, spec.kind, seeds, config=plan.config,
                          solver_options=spec.solver_options)
        records.update(((*key, spec.label), record) for key, record in zip(keys, batch))
    return records


@pytest.mark.parametrize("family", ["B4.3", "B7", "X", "mixed-N"])
def test_batched_cell_members_equal_standalone_runs(family):
    # a mixed-shape cell takes only the seeds, solvers and config of the plan
    plan = tiny_plan(families=("X",) if family == "mixed-N" else (family,), sizes=(12,),
                     instances_per_cell=4, solvers=(SolverSpec(MEM), SolverSpec(ANALOG)),
                     config=IntegratorConfig(t_ev=25.0), seed_base=3)
    start = time.perf_counter()
    records = mixed_shape_cell(plan) if family == "mixed-N" else run_experiment(plan)[1]
    elapsed = time.perf_counter() - start
    assert len(records) == 8
    for key, record in records.items():
        assert_same_record(record, standalone(plan, key))
    # a member's wall time is its share of the batch's loop
    assert sum(r.stats["wall_time"] for r in records.values()) <= elapsed


def test_batched_cell_with_one_aborting_member(monkeypatch):
    # the derivative of one instance turns non-finite once a long memory
    # passes 3, in a cell and alone alike
    plan = tiny_plan(families=("X",), sizes=(12,), instances_per_cell=3,
                     config=IntegratorConfig(t_ev=20.0), seed_base=5)
    target = generate_instance("X", 12, derive_seed(5, "instance", "X", 12, 1)).problem
    n, m = target.num_vars, target.num_clauses
    batch_system = integrate.make_batch_system

    def poisoned(problems, *args):
        system = batch_system(problems, *args)
        rows = [i for i, p in enumerate(problems)
                if p.var_index.tobytes() == target.var_index.tobytes()]

        def rhs(t, y):
            d = system.rhs(t, y)
            for i in rows:
                if y[i, n + m:].max() > 3.0:
                    d[i] = np.nan
            return d
        return system._replace(rhs=rhs)

    monkeypatch.setattr(integrate, "make_batch_system", poisoned)
    _, records = run_experiment(plan)
    aborted = [key for key, r in records.items() if "abort_message" in r.stats]
    assert aborted == [("X", 12, 1, "mem")]
    record = records[aborted[0]]
    assert "non-finite" in record.stats["abort_message"]
    assert record.outcome == TIMEOUT and 0.0 < record.times[-1] < 20.0
    for key, record in records.items():
        assert_same_record(record, standalone(plan, key))


def test_plan_validation():
    # records and run seeds are keyed by the label: two specs with one
    # label would share seeds and overwrite each other's records
    twin = SolverSpec(MEM, solver_options=MemOptions(alpha=2.0))
    with pytest.raises(ValueError, match="duplicate solver labels"):
        tiny_plan(solvers=(SolverSpec(MEM), twin))
    with pytest.raises(ValueError, match="duplicate sizes"):
        tiny_plan(sizes=(10, 10))
    with pytest.raises(ValueError, match="duplicate families"):
        tiny_plan(families=("B7", "B7"))
    with pytest.raises(ValueError):
        tiny_plan(instances_per_cell=0)
    with pytest.raises(ValueError):
        tiny_plan(workers=0)
    plan = tiny_plan(solvers=(SolverSpec(MEM),
                              SolverSpec(MEM, "mem-a2", solver_options=twin.solver_options)))
    _, records = run_experiment(plan)
    assert len(records) == 4


def test_summary_counts_aborted_runs(tmp_path):
    # the step-size underflow configuration of test_integrate
    config = IntegratorConfig(error_tol=1e-13, dt_min=0.05, dt_init=0.05, dt_max=0.1)
    table, records = run_experiment(tiny_plan(config=config), tmp_path)
    assert all("underflow" in r.stats["abort_message"] for r in records.values())
    cell = table.cells[(10, "mem", "B7")]
    assert cell.aborted == cell.runs == cell.unsolved == 2
    rows = json.loads((tmp_path / "summary.json").read_text())["cells"]
    assert [(row["runs"], row["aborted"]) for row in rows] == [(2, 2)]


def test_cells_are_saved_and_logged_as_they_finish(tmp_path, monkeypatch, caplog):
    events = []
    run_batch, save_run = harness.run_batch, harness.save_run

    def counting_run_batch(problems, *args, **kwargs):
        events.append("run")
        return run_batch(problems, *args, **kwargs)

    def counting_save_run(record, directory, name):
        events.append("save")
        return save_run(record, directory, name)

    monkeypatch.setattr(harness, "run_batch", counting_run_batch)
    monkeypatch.setattr(harness, "save_run", counting_save_run)
    with caplog.at_level(logging.INFO, logger="ctsat.harness"):
        run_experiment(tiny_plan(sizes=(10, 12)), tmp_path)
    assert events == ["run", "save", "save", "run", "save", "save"]
    lines = [r.getMessage() for r in caplog.records if r.name == "ctsat.harness"]
    assert len(lines) == 2
    assert lines[0].startswith("cell B7 N=10 mem: 2 runs, 2 solved, 0 aborted, ")
    assert lines[1].startswith("cell B7 N=12 mem: 2 runs, ")


def test_summary_counts_equal_recount(tmp_path):
    table, records = run_experiment(tiny_plan())
    recount = SummaryTable.from_records(records)
    assert table.to_json_dict() == recount.to_json_dict()


def test_summary_markdown_layout():
    table, _ = run_experiment(tiny_plan())
    text = table.to_markdown()
    assert "| N | solver |" in text
    assert "| 10 | mem |" in text


def test_solved_records_reverify_on_reload(tmp_path):
    run_experiment(tiny_plan(), tmp_path)
    for json_path in (tmp_path / "runs").glob("*.json"):
        payload = load_run(json_path)
        assert payload["outcome"] == SOLVED
        problem = parse_dimacs((tmp_path / payload["instance"]).read_text())
        assert count_unsatisfied(problem, payload["assignment_array"]) == 0


# ---------------------------------------------------------------- emit_plot_data

def test_emit_plot_data_selections():
    inst = generate_instance("B7", 10, 3)
    record = run(inst.problem, MEM, seed=1, config=IntegratorConfig(t_ev=5.0))
    csv_text = emit_plot_data(record, "v:*")
    lines = csv_text.strip().splitlines()
    assert lines[0] == "t,series,value"
    names = {line.split(",")[1] for line in lines[1:]}
    assert names == {f"v{i}" for i in range(1, 11)}

    single = emit_plot_data(record, "contrd")
    assert {line.split(",")[1] for line in single.strip().splitlines()[1:]} == {"contrd"}

    combo = emit_plot_data(record, "contra, xs:2")
    names = {line.split(",")[1] for line in combo.strip().splitlines()[1:]}
    assert names == {"contra", "xs2"}


def test_emit_plot_data_star_does_not_mix_prefixes():
    inst = generate_instance("B7", 10, 3)
    record = run(inst.problem, MEM, seed=1, config=IntegratorConfig(t_ev=2.0))
    xs = emit_plot_data(record, "xs:*")
    names = {line.split(",")[1] for line in xs.strip().splitlines()[1:]}
    assert all(name.startswith("xs") for name in names)
    # 'x' alone matches nothing (columns are xs/xl)
    with pytest.raises(ValueError):
        emit_plot_data(record, "x:*")


def test_emit_plot_data_unknown_selection():
    inst = generate_instance("B7", 10, 3)
    record = run(inst.problem, MEM, seed=1, config=IntegratorConfig(t_ev=2.0))
    with pytest.raises(ValueError):
        emit_plot_data(record, "bogus")
    with pytest.raises(ValueError):
        emit_plot_data(record, "s:999")
    # an empty selection wrote only the CSV header
    for selection in ("", " , "):
        with pytest.raises(ValueError, match=f"^selection {selection!r} names no series$"):
            emit_plot_data(record, selection)


def test_emit_plot_data_from_loaded_payload(tmp_path):
    inst = generate_instance("B7", 10, 3)
    record = run(inst.problem, MEM, seed=1, config=IntegratorConfig(t_ev=2.0))
    from ctsat.integrate import save_run

    json_path, _ = save_run(record, tmp_path, "r")
    payload = load_run(json_path)
    direct = emit_plot_data(record, "contrd,v:1")
    loaded = emit_plot_data(payload, "contrd,v:1")
    assert direct == loaded


def test_emit_plot_data_pinned_text():
    # sha256 of the CSV text as the per-sample formatting loop wrote it:
    # every value is the repr of a Python float, the integer contrd too
    record = run(generate_instance("X", 10, 2).problem, MEM, seed=4,
                 config=IntegratorConfig(t_ev=10.0))
    csv_text = emit_plot_data(record, "contra,contrd,v:*,xl:*")
    assert "\n0.0,contrd,5.0\n" in csv_text
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "2560c3a2ae7717ed33d5ddb0c538eb6e39c860399b9dbdebb16568e0dd3e29e5")
