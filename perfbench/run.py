"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The benchmark imports ctsat from the
checkout's own `src/` (it is not installed) and fails if it cannot.  It
builds the workload's inputs from the seed, repeats the workload's
operation on them for about --seconds (at least twice), checks every
output, and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics named in
BENCHMARK.json; with --trace 1 they are the per-layer metrics, measured in
a traced run that alternates untraced and traced operations (their wall
time difference is the tracing overhead) and then probes each layer on the
workload's own inputs.  A per-layer metric reads 0 when the workload makes
no call into that layer.

The full report (provenance, digests, solved fraction, tts_p50, per-layer
self-time table) is written under perfbench/out/, and with --trace 1 so
are the spans.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES_PER_OP = 2   # fresh set-up processes run after each operation
SETUP_PROBES_MIN = 9      # topped up to this many after the last operation
MIN_OPS = 2


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def import_ctsat():
    """Import ctsat from this checkout's src/ and prove that it did."""
    sys.path.insert(0, str(SRC))
    import ctsat

    origin = Path(ctsat.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"ctsat resolved to {origin}, not under {SRC}")
    return ctsat


def build_inputs(workload: str, seed: int):
    import workloads  # imports ctsat; sys.path must already hold src/

    wl = workloads.WORKLOADS[workload]()
    OUT.mkdir(exist_ok=True)
    return wl, wl.inputs(seed, OUT)


def setup_probe(workload: str, seed: int) -> float:
    """In a fresh process: CPU seconds (all threads) to import ctsat and
    build the inputs."""
    start = process_time()
    import_ctsat()
    build_inputs(workload, seed)
    return process_time() - start


class SetupSampler:
    """Runs set-up probes in fresh processes between operations, so that
    their median sees the machine over the whole measuring window."""

    def __init__(self, workload: str, seed: int):
        self.cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
                    "--workload", workload, "--seed", str(seed)]
        self.times: list[float] = []
        self.child_rss_kib = None

    def sample(self, count: int) -> None:
        if self.child_rss_kib is None:
            # the largest reaped child before any probe: a pool worker, if any
            self.child_rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        for _ in range(count):
            done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                                  cwd=ROOT, check=True)
            self.times.append(float(done.stdout.strip().splitlines()[-1]))


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mib(child_kib: int) -> float:
    """Peak RSS of this process plus that of its largest pool worker
    (ru_maxrss, KiB)."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (self_kib + child_kib) / 1024.0


def provenance(ctsat, workload: str, seed: int) -> dict:
    def git(*args):
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha,
        "git_dirty": (status != "") if status is not None else None,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "ctsat_file": str(Path(ctsat.__file__).resolve().relative_to(ROOT)),
        "ctsat_version": getattr(ctsat, "__version__", None),
    }


def run_ops(wl, inputs, seconds: float, traced_run: bool, tracer, after_op):
    """Repeat the operation for about `seconds`, calling `after_op` after
    each; return op results and the per-layer metrics of the first traced
    op (traced runs only)."""
    ops, layer_metrics = [], None
    start = perf_counter()
    while True:
        index = len(ops)
        traced = traced_run and index % 2 == 1
        tracer.enabled, tracer.op_id = traced, index
        problems, output, summary = [], None, None
        cpu0, t0 = cpu_seconds(), perf_counter()
        try:
            output = wl.operate(inputs, tracer)
        except Exception:
            problems.append("operation raised:\n" + traceback.format_exc())
        wall, cpu = perf_counter() - t0, cpu_seconds() - cpu0
        try:
            if output is not None:
                summary = wl.check(inputs, output, wall, tracer, problems, first=index == 0)
            if traced and layer_metrics is None and not problems:
                layer_metrics = wl.probe(inputs, output, tracer, problems)
        except Exception:
            problems.append("check raised:\n" + traceback.format_exc())
        finally:
            wl.cleanup(output)
            tracer.enabled = False
        ops.append({"index": index, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                    "summary": summary, "problems": problems})
        after_op()
        elapsed = perf_counter() - start
        per_op = elapsed / len(ops)
        if len(ops) >= MIN_OPS and elapsed + per_op > seconds:
            return ops, layer_metrics


def end_to_end(ops, setup_times) -> dict:
    plain = [op for op in ops if not op["traced"] and op["summary"]]
    work = sum(op["summary"]["work"] for op in plain)
    return {
        "work_rate": work / sum(op["cpu_s"] for op in plain),
        "setup_s": median(setup_times),
    }


def reported(ops, first, failed, rss_mib) -> dict:
    """The figures that change with the seed or are often 0: printed and
    written to the report, but not gated."""
    plain = [op for op in ops if not op["traced"]]
    wall = sum(op["wall_s"] for op in plain)
    out = {"wall_s": (median(op["wall_s"] for op in plain), "s"),
           "error_frac": (failed / len(ops), f"ratio of {len(ops)} ops"),
           "peak_rss_mb": (rss_mib, "MiB")}
    if first and "solved_frac" in first:  # solver workloads: work is circuit-seconds
        circuit = sum(op["summary"]["work"] for op in plain if op["summary"])
        out["sim_rate"] = (circuit / wall, "circuit-s/s")
        out["solved_frac"] = (first["solved_frac"], f"ratio of {first['items']} runs or nodes")
        out["tts_p50"] = (first["tts_p50"], "circuit-s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ctsat" / "__init__.py").is_file():
        return _fail(f"no ctsat sources under {SRC}; run from a full checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    sys.path.insert(0, str(BENCH_DIR))

    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed)))
        return 0

    try:
        ctsat = import_ctsat()
    except ImportError as exc:
        return _fail(str(exc))
    from tracing import Tracer, layer_markdown

    wl, inputs = build_inputs(args.workload, args.seed)
    tracer = Tracer()
    sampler = SetupSampler(args.workload, args.seed)
    ops, layer_metrics = run_ops(wl, inputs, args.seconds, bool(args.trace), tracer,
                                 lambda: sampler.sample(SETUP_PROBES_PER_OP))
    sampler.sample(max(0, SETUP_PROBES_MIN - len(sampler.times)))
    rss_mib = peak_rss_mib(sampler.child_rss_kib)
    setup_times = sampler.times

    # Every op works on the same inputs, so outcomes must repeat exactly.
    first = next((op["summary"] for op in ops if op["summary"]), None)
    for op in ops:
        if op["summary"] and op["summary"]["digest"] != first["digest"]:
            op["problems"].append("outcome digest differs from the first repeat")
    failed = sum(bool(op["problems"]) for op in ops)

    report = {
        "provenance": provenance(ctsat, args.workload, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": [{k: op[k] for k in ("index", "traced", "wall_s", "cpu_s", "problems")}
                | {"work": op["summary"]["work"] if op["summary"] else None,
                   "parallel_eff": (op["summary"] or {}).get("parallel_eff")}
                for op in ops],
        "setup_times_s": setup_times,
        "outcomes": first and {k: first[k] for k in first if k != "work"},
        "reported": reported(ops, first, failed, rss_mib),
    }
    names = [m["name"] for m in spec["end_to_end" if not args.trace else "per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if failed or first is None:
        values = {}
    elif args.trace:
        plain = [op for op in ops if not op["traced"]]
        traced = [op for op in ops if op["traced"]]
        values = dict(layer_metrics or {})
        values["harness.parallel_eff"] = median(op["summary"].get("parallel_eff", 0.0)
                                                for op in plain)
        values["trace.overhead_s"] = (median(op["wall_s"] for op in traced)
                                      - median(op["wall_s"] for op in plain))
        values["trace.spans"] = len(tracer.spans)
        report["layers"] = layer_markdown(tracer.spans)
    else:
        values = end_to_end(ops, setup_times)
    report["values"] = values
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
               for name in names}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.json")
        print(report.get("layers", ""))
    for op in ops:
        for problem in op["problems"]:
            print(f"op {op['index']}: {problem}", file=sys.stderr)
    print(f"report: {(OUT / f'{stem}.json').relative_to(ROOT)}")
    for name in names:
        print(f"{name:32s} {metrics[name]['value']:.6g} {units[name]}")
    if not args.trace:
        print("reported, not gated:")
        for name, (value, unit) in report["reported"].items():
            print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({"correct": failed == 0 and first is not None,
                      "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 1 if failed or first is None else 0


if __name__ == "__main__":
    sys.exit(main())
