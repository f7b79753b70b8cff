"""The pinned workloads.

Each workload builds its inputs from the benchmark seed (`inputs`), runs one
operation on them (`operate`, the only timed call), checks the outputs
(`check`), and in a traced run measures its layers from outside (`probe`).
Every operation of a run works on the same inputs, so its outcomes and
digests must repeat exactly; `run.py` checks that.

Importing this module imports ctsat, so `run.py` imports it only after
putting the checkout's `src/` first on sys.path.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import shutil
import tempfile
import tracemalloc
from pathlib import Path
from statistics import median

import numpy as np

from ctsat.cnf import count_unsatisfied, parse_dimacs, write_dimacs
from ctsat.dynamics import (
    AnalogState,
    MemState,
    analog_rhs,
    control_signals,
    mem_rhs,
)
from ctsat.harness import (
    ExperimentPlan,
    SolverSpec,
    derive_seed,
    generate_instance,
    run_experiment,
    save_instance,
    verify_run_dir,
)
from ctsat.instances import BarthelParams, gen_barthel, gen_xorsat_3r
from ctsat.integrate import (
    ANALOG,
    MEM,
    SOLVED,
    IntegratorConfig,
    init_analog,
    init_mem,
    load_run,
    save_run,
)
from ctsat.netlist import (
    NetlistOptions,
    emit_analog,
    emit_mem,
    evaluate_deck_rhs,
    serialize,
    undeclared_references,
)
from ctsat.network import SolverNode, SquareWave, Wiring, simulate_network
from tracing import self_times

DYNAMICS_STATES = 16      # sampled states per solver for the RHS timings
DYNAMICS_REPS = 25        # calls per sampled state
DECK_RTOL = 1e-9          # deck-versus-native RHS tolerance (relative, abs floor)


# --------------------------------------------------------------------------
# Digests and shared checks

def record_digest(record) -> str:
    """sha256 over the bytes of a record's times, states, contra, contrd."""
    h = hashlib.sha256()
    for arr in (record.times, record.states, record.contra, record.contrd):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def rows_digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def check_records(labelled, problems):
    """Witness and abort checks over (label, problem, record) triples.

    Appends what fails to `problems`; returns one summary row per record.
    """
    rows = []
    for label, problem, record in labelled:
        if record.stats.get("dt_underflow"):
            problems.append(f"{label}: aborted ({record.stats.get('abort_message')})")
        if record.outcome == SOLVED and count_unsatisfied(problem, record.assignment) != 0:
            problems.append(f"{label}: solved witness does not satisfy")
        rows.append({
            "key": label,
            "outcome": record.outcome,
            "t_solve": record.t_solve,
            "n_rhs": int(record.stats["n_rhs"]),
            "t_end": float(record.times[-1]),
            "digest": record_digest(record),
        })
    return rows


def compare_loaded(label, record, loaded, problems):
    """A run loaded back with load_run must equal the record it was saved
    from: outcome, t_solve, and times, contra, contrd and states exactly
    (the CSV writes floats with repr, which reads back bit for bit)."""
    if (loaded["outcome"], loaded["t_solve"]) != (record.outcome, record.t_solve):
        problems.append(f"{label}: load_run changed outcome or t_solve")
    for key in ("times", "contra", "contrd", "states"):
        saved = np.asarray(getattr(record, key))
        back = loaded.get(key)
        if back is None or not np.array_equal(np.asarray(back), saved):
            problems.append(f"{label}: load_run changed {key}")


def solver_summary(rows, t_ev) -> dict:
    """Work (circuit-seconds integrated), solved fraction, tts_p50 (unsolved
    runs count as t_ev) and digest of one op."""
    solved = [r for r in rows if r["outcome"] == SOLVED]
    tts = [r["t_solve"] if r["outcome"] == SOLVED else t_ev for r in rows]
    return {
        "work": sum(r["t_end"] for r in rows),
        "items": len(rows),
        "solved_frac": len(solved) / len(rows),
        "tts_p50": median(tts),
        "digest": rows_digest([[r["key"], r["outcome"], r["t_solve"], r["n_rhs"]]
                               for r in rows]),
        "item_digests": {r["key"]: r["digest"] for r in rows},
    }


# --------------------------------------------------------------------------
# Probes shared by all workloads (traced runs only)

def _span_mean(spans, name, scale=1e3) -> float:
    """Mean duration of the named spans, in ms by default (0 if none)."""
    durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return scale * sum(durations) / len(durations) if durations else 0.0


def _span_calls_mean(spans, name, scale=1e6) -> float:
    """Duration per counted call of the named spans, in us by default."""
    total = calls = 0
    for s in spans:
        if s["name"] == name:
            total += s["end"] - s["start"]
            calls += s["counts"].get("calls", 1)
    return scale * total / calls if calls else 0.0


def sample_states(records, count=DYNAMICS_STATES):
    """(problem, flat state) pairs taken evenly from the records' samples."""
    pairs = []
    per = max(1, count // max(1, len(records)))
    for problem, record in records:
        rows = np.linspace(0, len(record.states) - 1, per).round().astype(int)
        pairs.extend((problem, record.states[i]) for i in rows)
    return pairs[:count]


def seeded_states(problems, solver, seed, count=DYNAMICS_STATES):
    pairs = []
    for k in range(count):
        problem = problems[k % len(problems)]
        if solver == MEM:
            st = init_mem(problem, seed + k)
            pairs.append((problem, np.concatenate((st.v, st.x_s, st.x_l))))
        else:
            st = init_analog(problem, seed + k)
            pairs.append((problem, np.concatenate((st.s, st.a))))
    return pairs


def probe_dynamics(tracer, mem_pairs, analog_pairs):
    """Time mem_rhs, analog_rhs and control_signals on the given states."""
    def timed(name, pairs, call):
        with tracer.span(name, calls=len(pairs) * DYNAMICS_REPS):
            for problem, y in pairs:
                for _ in range(DYNAMICS_REPS):
                    call(problem, y)

    def mem(problem, y):
        n, m = problem.num_vars, problem.num_clauses
        mem_rhs(problem, MemState(y[:n], y[n:n + m], y[n + m:]))

    def analog(problem, y):
        analog_rhs(problem, AnalogState(y[:problem.num_vars], y[problem.num_vars:]))

    timed("dynamics.mem_rhs", mem_pairs, mem)
    timed("dynamics.analog_rhs", analog_pairs, analog)
    timed("dynamics.control_signals", mem_pairs + analog_pairs,
          lambda problem, y: control_signals(problem, y[:problem.num_vars]))


def probe_cnf(tracer, problems, seed):
    """DIMACS round trip, count_unsatisfied timing and pickle size."""
    rng = np.random.default_rng(seed)
    sizes = []
    for problem in problems:
        with tracer.span("cnf.write_dimacs"):
            text = write_dimacs(problem)
        with tracer.span("cnf.parse_dimacs"):
            parse_dimacs(text)
        assignment = rng.random(problem.num_vars) < 0.5
        with tracer.span("cnf.count_unsatisfied", calls=DYNAMICS_REPS):
            for _ in range(DYNAMICS_REPS):
                count_unsatisfied(problem, assignment)
        sizes.append(len(pickle.dumps(problem)))
    return float(sum(sizes) / len(sizes))


def common_layer_metrics(spans, pickle_bytes) -> dict:
    return {
        "dynamics.mem_rhs_us": _span_calls_mean(spans, "dynamics.mem_rhs"),
        "dynamics.analog_rhs_us": _span_calls_mean(spans, "dynamics.analog_rhs"),
        "dynamics.control_signals_us": _span_calls_mean(spans, "dynamics.control_signals"),
        "cnf.write_dimacs_ms": _span_mean(spans, "cnf.write_dimacs"),
        "cnf.parse_dimacs_ms": _span_mean(spans, "cnf.parse_dimacs"),
        "cnf.count_unsatisfied_us": _span_calls_mean(spans, "cnf.count_unsatisfied"),
        "cnf.problem_pickle_bytes": pickle_bytes,
        "instances.gen_barthel_ms": _span_mean(spans, "instances.gen_barthel"),
        "instances.gen_xorsat_ms": _span_mean(spans, "instances.gen_xorsat_3r"),
    }


def self_estimate(wall, n_rhs, samples, rhs_us, cs_us) -> float:
    """Estimate: seconds of `wall` spent outside the RHS calls and the
    per-sample control_signals calls."""
    return wall - n_rhs * rhs_us * 1e-6 - samples * cs_us * 1e-6


# --------------------------------------------------------------------------
# Workloads

class Workload:
    """What run.py drives: inputs (set-up), operate (the timed call), check,
    probe (traced runs) and cleanup."""

    def cleanup(self, output):
        """Remove what an operation left on disk; most leave nothing."""


class MemGridWorkload(Workload):
    """harness.run_experiment on one 3-regular 3-XORSAT cell (N = 50, two
    instances, solver mem, t_ev = 300) with two pool workers."""

    name = "mem-xorsat-grid"
    network_t_ev = 30.0

    def inputs(self, seed, tmp_root: Path):
        plan = ExperimentPlan(
            families=("X",),
            sizes=(50,),
            instances_per_cell=2,
            solvers=(SolverSpec(MEM),),
            config=IntegratorConfig(t_ev=300.0),
            seed_base=derive_seed("perfbench", self.name, seed),
            workers=2,
        )
        return {"plan": plan, "tmp_root": tmp_root, "seed": seed}

    def _instance_specs(self, plan):
        return [(family, size, index,
                 derive_seed(plan.seed_base, "instance", family, size, index))
                for family in plan.families for size in plan.sizes
                for index in range(plan.instances_per_cell)]

    def operate(self, inputs, tracer):
        with tracer.span("harness.run_experiment") as counts:
            _, records = run_experiment(inputs["plan"])
            counts["runs"] = len(records)
        return {"records": records}

    def check(self, inputs, output, wall, tracer, problems, first):
        plan = inputs["plan"]
        specs = self._instance_specs(plan)
        if len(output["records"]) != len(specs) * len(plan.solvers):
            problems.append(f"expected {len(specs)} runs, got {len(output['records'])}")
        instances = {}
        for family, size, index, seed in specs:
            with tracer.span("instances.gen_xorsat_3r"):
                instances[(family, size, index)] = generate_instance(family, size, seed)
        output["instances"] = instances
        labelled = [("/".join(map(str, key)), instances[key[:3]].problem, record)
                    for key, record in sorted(output["records"].items())]
        rows = check_records(labelled, problems)
        if first or tracer.enabled:
            self._persist_and_verify(inputs, output, tracer, problems,
                                     solved=sum(r["outcome"] == SOLVED for r in rows))
        summary = solver_summary(rows, plan.config.t_ev)
        busy = sum(r.stats["wall_time"] for r in output["records"].values())
        summary["parallel_eff"] = busy / (wall * plan.workers)
        return summary

    def _persist_and_verify(self, inputs, output, tracer, problems, solved):
        """Save the instances and runs as the harness lays them out, load
        every run back and compare it with the record, then re-verify every
        solved run from disk with verify_run_dir."""
        out_dir = Path(tempfile.mkdtemp(prefix="runs-", dir=inputs["tmp_root"]))
        output["out_dir"] = out_dir
        for (family, size, index), inst in sorted(output["instances"].items()):
            name = f"{family}_N{size}_{index:02d}"
            save_instance(inst, out_dir / "instances", name, family)
        for (family, size, index, label), record in sorted(output["records"].items()):
            name = f"{family}_N{size}_{index:02d}_{label}"
            with tracer.span("integrate.save_run"):
                json_path, _ = save_run(record, out_dir / "runs", name)
            with tracer.span("integrate.load_run"):
                loaded = load_run(json_path)
            compare_loaded(name, record, loaded, problems)
        with tracer.span("harness.verify_run_dir"):
            try:
                checked = verify_run_dir(out_dir)
            except AssertionError as exc:
                problems.append(f"verify_run_dir: {exc}")
                return
        if checked != solved:
            problems.append(f"verify_run_dir checked {checked} runs, {solved} solved")

    def _network(self, inputs, output, tracer, problems):
        """Network layer: a compatible two-node ring on the first instance
        and a square-wave-driven node on the second, both to t_ev = 30."""
        base = inputs["plan"].seed_base
        config = IntegratorConfig(t_ev=self.network_t_ev)
        (_, first), (_, second) = sorted(output["instances"].items())
        n = first.problem.num_vars
        # one input and one output variable on which the plant agrees, so
        # the values the ring exchanges are jointly satisfiable
        p_in, q_out = next((i + 1, j + 1) for i in range(n) for j in range(n)
                           if i != j and first.plant[i] == first.plant[j])
        ring = [SolverNode(first.problem, MEM, input_vars=(p_in,), output_vars=(q_out,),
                           label=f"ring.{side}") for side in "ab"]
        ring_wiring = Wiring(edges=((("node", 0, q_out), (1, p_in)),
                                    (("node", 1, q_out), (0, p_in))))
        driven = SolverNode(second.problem, MEM, input_vars=(1,), output_vars=(2,),
                            label="driven")
        drive_wiring = Wiring(edges=((("drive", 0), (0, 1)),),
                              drives=(SquareWave(period=20.0),))
        with tracer.span("network.simulate_network", nodes=2):
            records = simulate_network(ring, ring_wiring, config,
                                       [derive_seed(base, "ring", side) for side in "ab"])
        with tracer.span("network.simulate_network", nodes=1):
            records += simulate_network([driven], drive_wiring, config,
                                        [derive_seed(base, "driven")], stop_on_solve=False)
        labelled = [(node.label, node.problem, record)
                    for node, record in zip(ring + [driven], records)]
        check_records(labelled, problems)
        return records

    def probe(self, inputs, output, tracer, problems):
        plan = inputs["plan"]
        records = output["records"]
        cnfs = [inst.problem for inst in output["instances"].values()]
        seed = inputs["seed"]
        pairs = [(output["instances"][k[:3]].problem, r) for k, r in sorted(records.items())]
        probe_dynamics(tracer, sample_states(pairs), seeded_states(cnfs, ANALOG, seed))
        pickle_bytes = probe_cnf(tracer, cnfs, seed)
        for family, size, _, instance_seed in self._instance_specs(plan):
            with tracer.span("instances.gen_xorsat_3r"):
                generate_instance(family, size, instance_seed)
        runs_dir = output["out_dir"] / "runs"
        network = self._network(inputs, output, tracer, problems)

        spans = tracer.spans
        metrics = common_layer_metrics(spans, pickle_bytes)
        stats = [r.stats for r in records.values()]
        walls = [s["wall_time"] for s in stats]
        n_rhs = sum(s["n_rhs"] for s in stats)
        acc = sum(s["n_accepted"] for s in stats)
        rej = sum(s["n_rejected"] for s in stats)
        samples = sum(len(r.times) for r in records.values())
        rhs_us = metrics["dynamics.mem_rhs_us"]
        cs_us = metrics["dynamics.control_signals_us"]
        step_self = self_estimate(sum(walls), n_rhs, samples, rhs_us, cs_us)
        grid = next(s for s in spans if s["name"] == "harness.run_experiment")
        net_wall = sum(s["end"] - s["start"] for s in spans
                       if s["name"] == "network.simulate_network")
        net_rhs = sum(r.stats["n_rhs"] for r in network)
        net_samples = sum(len(r.times) for r in network)
        metrics.update({
            "integrate.runs": len(records),
            "integrate.run_wall_p50_s": median(walls),
            "integrate.run_wall_max_s": max(walls),
            "integrate.n_rhs": n_rhs,
            "integrate.n_accepted": acc,
            "integrate.n_rejected": rej,
            "integrate.reject_ratio": rej / (acc + rej) if acc + rej else 0.0,
            "integrate.rhs_share": n_rhs * rhs_us * 1e-6 / sum(walls),
            "integrate.step_self_us": 1e6 * step_self / (acc + rej),
            "integrate.save_run_ms": _span_mean(spans, "integrate.save_run"),
            "integrate.load_run_ms": _span_mean(spans, "integrate.load_run"),
            "integrate.run_bytes": sum(p.stat().st_size for p in runs_dir.iterdir()),
            # estimate: the pool phase is taken as the runs' wall per worker
            "harness.self_s": self_times(spans)[grid["id"]] - sum(walls) / plan.workers,
            "network.simulate_wall_s": net_wall,
            "network.n_rhs": net_rhs,
            "network.samples": net_samples,
            "network.self_us_per_sample": 1e6 * self_estimate(
                net_wall, net_rhs, net_samples, rhs_us, cs_us) / net_samples,
        })
        return metrics

    def cleanup(self, output):
        if output and output.get("out_dir") is not None:
            shutil.rmtree(output["out_dir"], ignore_errors=True)


class ToolchainWorkload(Workload):
    """Generators, DIMACS round trip and netlist emission; no integration."""

    name = "toolchain-large"
    big_n = 2000
    deck_n = 200

    def inputs(self, seed, tmp_root: Path):
        base = derive_seed("perfbench", self.name, seed)
        deck_problem = gen_barthel(BarthelParams(num_vars=self.deck_n, ratio=4.3, p0=0.08,
                                                 seed=derive_seed(base, "deck"))).problem
        n, m = deck_problem.num_vars, deck_problem.num_clauses
        rng = np.random.default_rng(derive_seed(base, "state"))
        state = {"v": rng.uniform(-0.9, 0.9, n), "xs": rng.uniform(0.1, 0.9, m),
                 "xl": rng.uniform(1.5, 20.0, m), "s": rng.uniform(-0.9, 0.9, n),
                 "a": rng.uniform(1.0, 5.0, m)}
        return {
            "seed": seed,
            "barthel": BarthelParams(num_vars=self.big_n, ratio=4.3, p0=0.08,
                                     seed=derive_seed(base, "barthel")),
            "xor_seed": derive_seed(base, "xorsat"),
            "deck_problem": deck_problem,
            "options": NetlistOptions(ic_seed=derive_seed(base, "ic") % 2**31),
            "state": state,
        }

    def _voltages(self, problem, solver, state):
        n, m = problem.num_vars, problem.num_clauses
        volts = {"contra": 0.0, "contrd": 0.0}
        if solver == MEM:
            volts |= {f"v{i + 1}": state["v"][i] for i in range(n)}
            volts |= {f"xs{j + 1}": state["xs"][j] for j in range(m)}
            volts |= {f"xl{j + 1}": state["xl"][j] for j in range(m)}
        else:
            volts |= {f"s{i + 1}": state["s"][i] for i in range(n)}
            volts |= {f"a{j + 1}": state["a"][j] for j in range(m)}
        return volts

    def operate(self, inputs, tracer):
        out = {"dimacs": []}
        with tracer.span("instances.gen_barthel"):
            barthel = gen_barthel(inputs["barthel"])
        with tracer.span("instances.gen_xorsat_3r"):
            xorsat = gen_xorsat_3r(self.big_n, inputs["xor_seed"])
        out["instances"] = [barthel, xorsat]
        for inst in out["instances"]:
            with tracer.span("cnf.write_dimacs"):
                text = write_dimacs(inst.problem)
            with tracer.span("cnf.parse_dimacs"):
                out["dimacs"].append((text, parse_dimacs(text)))
        problem = inputs["deck_problem"]
        out["decks"] = {}
        for solver, emit in ((MEM, emit_mem), (ANALOG, emit_analog)):
            with tracer.span(f"netlist.emit_{solver}"):
                doc = emit(problem, inputs["options"])
            with tracer.span("netlist.serialize"):
                text = serialize(doc)
            with tracer.span("netlist.undeclared_references"):
                undeclared = undeclared_references(doc)
            volts = self._voltages(problem, solver, inputs["state"])
            with tracer.span("netlist.evaluate_deck_rhs"):
                values = evaluate_deck_rhs(doc, volts)
            out["decks"][solver] = (text, undeclared, values)
        return out

    def _native(self, problem, solver, state):
        n = problem.num_vars
        if solver == MEM:
            dv, dxs, dxl = mem_rhs(problem, MemState(state["v"], state["xs"], state["xl"]))
            ref = {f"v{i + 1}": dv[i] for i in range(n)}
            ref |= {f"xs{j + 1}": dxs[j] for j in range(len(dxs))}
            ref |= {f"xl{j + 1}": dxl[j] for j in range(len(dxl))}
            contra, contrd = control_signals(problem, state["v"])
        else:
            ds, da = analog_rhs(problem, AnalogState(state["s"], state["a"]))
            ref = {f"s{i + 1}": ds[i] for i in range(n)}
            ref |= {f"a{j + 1}": da[j] for j in range(len(da))}
            contra, contrd = control_signals(problem, state["s"])
        return ref | {"contra": contra, "contrd": contrd}

    def check(self, inputs, output, wall, tracer, problems, first):
        h = hashlib.sha256()
        for inst, (text, parsed) in zip(output["instances"], output["dimacs"]):
            original = inst.problem
            if not (parsed.num_vars == original.num_vars
                    and np.array_equal(parsed.var_index, original.var_index)
                    and np.array_equal(parsed.sign, original.sign)):
                problems.append("DIMACS round trip changed var_index/sign")
            with tracer.span("cnf.count_unsatisfied"):
                if count_unsatisfied(original, inst.plant) != 0:
                    problems.append("planted assignment does not satisfy its instance")
            h.update(text.encode())
        problem = inputs["deck_problem"]
        for solver, (text, undeclared, values) in sorted(output["decks"].items()):
            if undeclared:
                problems.append(f"{solver} deck: {len(undeclared)} undeclared references")
            ref = self._native(problem, solver, inputs["state"])
            missing = sorted(set(ref) - set(values))
            if missing:
                problems.append(f"{solver} deck: no source for {missing[:3]}")
            bad = [k for k in ref if k in values
                   and abs(values[k] - ref[k]) > DECK_RTOL * max(abs(ref[k]), 1.0)]
            if bad:
                problems.append(f"{solver} deck RHS differs from native at {bad[:3]}")
            h.update(text.encode())
        return {"work": 1.0, "items": 1, "digest": h.hexdigest(), "item_digests": {}}

    def probe(self, inputs, output, tracer, problems):
        seed = inputs["seed"]
        problems = [inst.problem for inst in output["instances"]] + [inputs["deck_problem"]]
        deck_problem = [inputs["deck_problem"]]
        probe_dynamics(tracer, seeded_states(deck_problem, MEM, seed),
                       seeded_states(deck_problem, ANALOG, seed))
        pickle_bytes = probe_cnf(tracer, problems[:2], seed)
        tracemalloc.start()
        try:
            gen_barthel(inputs["barthel"])
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        spans = tracer.spans
        metrics = common_layer_metrics(spans, pickle_bytes)
        metrics["instances.gen_barthel_peak_mb"] = peak
        checks = (_span_mean(spans, "netlist.undeclared_references")
                  + _span_mean(spans, "netlist.evaluate_deck_rhs"))
        metrics.update({
            "netlist.emit_mem_ms": _span_mean(spans, "netlist.emit_mem"),
            "netlist.emit_analog_ms": _span_mean(spans, "netlist.emit_analog"),
            "netlist.serialize_ms": _span_mean(spans, "netlist.serialize"),
            "netlist.deck_check_ms": checks,
            "netlist.deck_bytes": sum(len(t) for t, _, _ in output["decks"].values()),
        })
        return metrics


WORKLOADS = {w.name: w for w in (MemGridWorkload, ToolchainWorkload)}
