"""cfgrank benchmark: one workload as a single-client closed loop over the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload sbc-corpus --seed 1 --seconds 40 --trace 0

Each pass runs the workload's CLI steps in a fresh interpreter
(perfbench/worker.py), so peak RSS (the worker and its children) is per
pass; the next pass starts only after the previous one has finished and
its outputs were checked. Passes repeat while another fits in --seconds
(at least two, so byte identity between passes is checked). Every CLI
call is one operation; it fails if it exits non-zero or its outputs fail
the workload's check.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json, from
untraced passes. Their times are CPU seconds, scaled to a reference
machine's speed by the calibration kernel's CPU time in the same process
(calibration.py); the wall times are printed beside them. --trace 1 alternates untraced and traced passes and
reports the per-layer metrics; the traced passes must write the same bytes
and make the call counts the benchmark predicts.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Lines before it print each metric with its quartiles, sample count
and unit, the per-command times, error_rate, and provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
from calibration import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# import time drifts by up to half over a few seconds on a shared machine,
# so the setup samples are spread over the run: a few before each pass,
# topped up to MIN_SETUP after the last
SETUP_PER_PASS = 2
MIN_SETUP = 10
MIN_PASSES = 2
BUDGET_S = 170  # a run must end within 180 s
RSS_POLL_S = 0.05
RSS_RESCAN_POLLS = 10  # look for new descendants every this many polls
COMMAND_METRICS = ("features", "analyze", "evaluate")
ANALYSIS_COMMANDS = ("features", "analyze", "evaluate", "train")
# CPU and wall seconds of the import, then the calibration kernel's CPU
# seconds in the same interpreter
SETUP_CODE = ("import time; t, c = time.perf_counter(), time.process_time(); "
              "import cfgrank.cli; c, t = time.process_time() - c, time.perf_counter() - t; "
              "import calibration; print(c, t, calibration.kernel_cpu_s())")
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(PERFBENCH), env.get("PYTHONPATH")]))
    return env


def time_imports(env: dict, n: int) -> list[tuple[float, float, float]]:
    """(CPU seconds, wall seconds) to import cfgrank.cli with numpy, and the
    calibration kernel's CPU seconds right after, in each of n fresh
    interpreters."""
    samples = []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True).stdout
        cpu, wall, kernel = (float(x) for x in out.split())
        samples.append((cpu, wall, kernel))
    return samples


def at_reference_speed(cpu_s: float, kernel_cpu_s: float) -> float:
    """CPU seconds measured in the same process as a kernel call, scaled to
    the reference machine's speed (calibration.py)."""
    return cpu_s * REFERENCE_S / kernel_cpu_s


def process_tree(root: int) -> list[int]:
    """A process and all its live descendants."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as f:
                    ppid = int(f.read().rpartition(")")[2].split()[1])
            except OSError:  # it ended between listdir and open
                continue
            children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        tree.append(todo.pop())
        todo.extend(children.get(tree[-1], ()))
    return tree


def rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm") as f:
            return int(f.read().split()[1]) * PAGE_KB
    except OSError:
        return 0


class PeakTreeRss(threading.Thread):
    """Samples the RSS of a process tree until stopped, keeping the peak, so
    concurrent children (a process pool) count together; RUSAGE_CHILDREN
    gives only the largest single child."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb = 0
        self.done = threading.Event()

    def run(self):
        polls, tree = 0, [self.pid]
        while not self.done.wait(RSS_POLL_S):
            if polls % RSS_RESCAN_POLLS == 0:
                tree = process_tree(self.pid)
            self.peak_kb = max(self.peak_kb, sum(rss_kb(pid) for pid in tree))
            polls += 1


def provenance(workload: str, seed: int, seconds: float) -> dict:
    import hashlib

    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    src = hashlib.sha256()
    for f in sorted((SRC / "cfgrank").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "workload": workload, "seed": seed, "run_seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": src.hexdigest(),
        "cfgrank_jobs_set": "CFGRANK_JOBS" in os.environ,
    }


class Run:
    def __init__(self, workload, work: Path, env: dict, trace: bool, record: bool):
        self.workload = workload
        self.work = work
        self.env = env
        self.trace = trace
        self.record = record
        self.inputs = work / "inputs"
        self.passes: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first_digest: dict[str, str] = {}
        self.setup: list[tuple[float, float, float]] = []

    def fail(self, op: str, messages: list[str]):
        self.failed += 1
        self.errors.extend(f"pass {len(self.passes)} {op}: {m}" for m in messages[:3])

    def one_pass(self, traced: bool, timeout: float) -> bool:
        out = self.work / f"pass-{len(self.passes)}"
        steps = self.workload.steps(self.inputs, out)
        out.mkdir(parents=True)
        ops = [s for s in steps if "argv" in s]
        spec_path, result_path = out.with_suffix(".spec.json"), out.with_suffix(".result.json")
        spec_path.write_text(json.dumps({"steps": steps, "samples": self.workload.samples,
                                         "trace": traced}))
        proc = subprocess.Popen([sys.executable, str(PERFBENCH / "worker.py"),
                                 str(spec_path), str(result_path)],
                                cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        sampler = PeakTreeRss(proc.pid)
        sampler.start()
        try:
            _, stderr = proc.communicate(timeout=max(timeout, 5.0))
            crashed = proc.returncode != 0 and (stderr[-2000:]
                                                or f"worker exited {proc.returncode}")
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            crashed = f"pass exceeded {timeout:.0f} s"
        finally:
            sampler.done.set()
            sampler.join()
        if crashed:
            self.attempted += len(ops)
            for s in ops:
                self.fail(s["name"], [crashed])
            self.passes.append({"traced": traced, "crashed": True})
            return False
        result = json.loads(result_path.read_text())
        result["peak_rss_mb"] = max(result["peak_rss_mb"], sampler.peak_kb / 1024.0)
        if self.record and not self.passes:
            self.workload.record_reference(steps, out)
        for step, res in zip(steps, result["steps"]):
            if "argv" not in step:
                continue
            self.attempted += 1
            if res["exit"] != 0:
                self.fail(step["name"], [f"exit {res['exit']}: {res['stderr'][-300:]}"])
                continue
            try:
                errs = self.workload.check(step, out, res)
            except Exception as e:  # a malformed output must count, not abort the run
                errs = [f"check raised {e!r}"]
            d = checks.digest(out, step["outputs"])
            if self.first_digest.setdefault(step["name"], d) != d:
                errs.append("outputs differ from the first pass's bytes")
            if errs:
                self.fail(step["name"], errs)
        if traced:
            self.attempted += 1
            layers = result["layers"]
            wrong = [f"{key} = {layers.get(key, 0)}, expected {n}"
                     for key, n in self.workload.expected_counts().items()
                     if layers.get(key, 0) != n]
            if wrong:
                self.fail("trace-check", wrong)
        result["traced"] = traced
        self.passes.append(result)
        shutil.rmtree(out, ignore_errors=True)
        return True

    def loop(self, seconds: float, started: float):
        t0 = time.perf_counter()
        walls = []
        while True:
            traced = self.trace and len(self.passes) % 2 == 1
            self.setup += time_imports(self.env, SETUP_PER_PASS)
            t = time.perf_counter()
            if not self.one_pass(traced, BUDGET_S - (t - started)):
                break
            walls.append(time.perf_counter() - t)
            elapsed = time.perf_counter() - t0
            if len(self.passes) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
                break
        self.setup += time_imports(self.env, max(0, MIN_SETUP - len(self.setup)))


def summarize(run: Run) -> dict[str, list[float]]:
    """Per-pass samples of every metric this run can report."""
    plain = [p for p in run.passes if not p.get("crashed") and not p["traced"]]
    samples: dict[str, list[float]] = {
        "wall.setup_s": [t for _, t, _ in run.setup],
        "setup_s": [at_reference_speed(c, k) for c, _, k in run.setup],
        "calibration.kernel_cpu_s": [p["kernel_cpu_s"] for p in plain],
        "wall.samples_per_s": [run.workload.samples / p["pass_s"] for p in plain],
        "samples_per_cpu_s": [
            run.workload.samples / at_reference_speed(p["pass_cpu_s"], p["kernel_cpu_s"])
            for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "wall.analysis_s": [], "analysis_cpu_s": [], **{f"{c}_s": [] for c in COMMAND_METRICS},
    }
    for p in plain:
        wall: dict[str, float] = {}
        cpu: dict[str, float] = {}
        for res in p["steps"]:
            wall[res["cmd"]] = wall.get(res["cmd"], 0.0) + res["seconds"]
            cpu[res["cmd"]] = cpu.get(res["cmd"], 0.0) + res["cpu_s"]
        samples["wall.analysis_s"].append(sum(wall.get(c, 0.0) for c in ANALYSIS_COMMANDS))
        samples["analysis_cpu_s"].append(at_reference_speed(
            sum(cpu.get(c, 0.0) for c in ANALYSIS_COMMANDS), p["kernel_cpu_s"]))
        for c in COMMAND_METRICS:
            samples[f"{c}_s"].append(wall.get(c, 0.0))
    traced = [p for p in run.passes if not p.get("crashed") and p["traced"]]
    if traced:
        for key in sorted({k for p in traced for k in p["layers"]}):
            samples[key] = [p["layers"].get(key, 0.0) for p in traced]
        if plain:
            samples["trace.overhead_frac"] = [
                statistics.median(p["pass_cpu_s"] / p["kernel_cpu_s"] for p in traced)
                / statistics.median(p["pass_cpu_s"] / p["kernel_cpu_s"] for p in plain) - 1.0]
    return samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the first pass's outputs as this seed's reference "
                             "and the fixed slices' reference")
    args = parser.parse_args(argv)

    if not (SRC / "cfgrank" / "cli.py").is_file():
        print(f"perfbench: no cfgrank sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    env = _child_env()
    try:
        time_imports(env, 1)  # writes the bytecode caches; not counted
        workload = WORKLOADS[args.workload]()
        workload.prepare(work / "inputs", args.seed)
        run = Run(workload, work, env, bool(args.trace), args.record_reference)
        run.loop(args.seconds, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    samples = summarize(run)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for key in sorted(samples):
        values = samples[key]
        if values:
            q1, med, q3 = _quartiles(values)
            print(f"{args.workload} {key}: median {med:.6g} (q1 {q1:.6g}, q3 {q3:.6g}, "
                  f"n={len(values)}) {units.get(key, '')}".rstrip())
    print(f"{args.workload} error_rate: {run.failed / run.attempted:.6g} "
          f"({run.failed} of {run.attempted} operations)")
    for e in run.errors[:20]:
        print(f"{args.workload} FAILED {e}")
    print("provenance: " + json.dumps(provenance(args.workload, args.seed, args.seconds)))
    metrics = {}
    for m in wanted:
        values = samples.get(m["name"]) or [0.0]
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        print(f"{args.workload} {m['name']} = {metrics[m['name']]['value']!r} {m['unit']}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
