"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--out perfbench/out/collect.json]

For each workload and seed it runs the command named in BENCHMARK.json
for its `run_seconds`, keeps the last line of its output and the report it
wrote, and prints per metric the median, the quartiles and the spread
(interquartile range over median) next to the metric's bound.  The
summary, with each run's outcome digest, solved fraction and tts_p50, is
written to --out; a committed baseline is such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="perfbench/out/collect.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    failed = False
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = json.loads(done.stdout.strip().splitlines()[-1])
            report_path = ROOT / "perfbench" / "out" / f"{name}-seed{seed}-trace{args.trace}.json"
            report = json.loads(report_path.read_text())
            outcomes = report.get("outcomes") or {}
            runs.append({"seed": seed, "exit": done.returncode, "result": last,
                         "ops": len(report["ops"]),
                         "outcomes": {k: outcomes.get(k) for k in
                                      ("digest", "solved_frac", "tts_p50", "items",
                                       "item_digests")},
                         "provenance": report["provenance"]})
            failed |= done.returncode != 0 or not last["correct"]
            print(f"{name} seed {seed}: exit {done.returncode} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()),
                  file=sys.stderr, flush=True)
        metrics = {}
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            metrics[metric] = spread(values) | {"bound": bounds.get(metric)}
        summary["workloads"][name] = {"metrics": metrics, "runs": runs}
        for metric, row in metrics.items():
            bound = row["bound"]
            flag = "" if bound is None or row["spread"] is None else (
                "ok" if row["spread"] < bound / 3 else "WIDE")
            print(f"{name:24s} {metric:28s} median {row['median']:.5g} "
                  f"spread {row['spread'] if row['spread'] is None else round(row['spread'], 4)} "
                  f"bound {bound} {flag}")
    out = ROOT / args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
