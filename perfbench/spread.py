"""Run the benchmark over several seeds and report each end-to-end metric's
spread: the distance between its first and third quartile, as a share of
its median. A benchmark is steady when every spread is below a third of the
metric's bound, and it must at least stay within the bound.

Usage (from the repository root):

    python3 perfbench/spread.py --workloads sbc-corpus,large-cfg,table-cv \\
        --seeds 1-10 --out spread.json

Runs go one at a time, with BENCHMARK.json's run_seconds. With --trace-seed,
one traced run per workload is added and its per-layer numbers are kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    first, last = (int(x) for x in args.seeds.split("-"))
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(first, last + 1):
            r = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, **{k: r[k] for k in ("correct", "attempted", "failed")},
                         "metrics": {k: v["value"] for k, v in r["metrics"].items()}})
            print(workload, seed, r["correct"], json.dumps(runs[-1]["metrics"]), flush=True)
        entry = {"runs": runs, "metrics": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            entry["metrics"][m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "n": len(values), "unit": m["unit"],
                "spread": spread, "bound": m["bound"],
                "steady": spread < m["bound"] / 3, "within_bound": spread <= m["bound"]}
            print(f"{workload} {m['name']}: median {med:.6g} spread {spread:.4f} "
                  f"(bound {m['bound']})", flush=True)
        if args.trace_seed is not None:
            r = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["trace"] = {"seed": args.trace_seed, "correct": r["correct"],
                              "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
        report[workload] = entry
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
