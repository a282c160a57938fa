"""Run one benchmark pass in this (fresh) interpreter.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the pass's steps. Each step's wall and CPU seconds are recorded.
The calibration kernel's CPU time (calibration.py) is taken before the pass
and after it, in this process. A step either calls ``cfgrank.cli.main`` with
its argv (stdout and stderr captured, so terminal writes are not timed) or
merges feature tables the way the README does with ``tail -n +2``. With
``"trace": true`` every cfgrank module is wrapped by the tracer first.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path


# calibration kernel calls before the pass and again after it
KERNEL_CALLS = 2


def _expand(argv: list) -> list[str]:
    out: list[str] = []
    for item in argv:
        if isinstance(item, dict):
            out.extend(sorted(str(p) for p in Path(item["dir"]).glob(item["glob"])))
        else:
            out.append(item)
    return out


def _merge(paths: list[str], into: str):
    parts = [Path(paths[0]).read_bytes()]
    for p in paths[1:]:
        parts.append(Path(p).read_bytes().split(b"\n", 1)[1])
    Path(into).write_bytes(b"".join(parts))


def cpu_s() -> float:
    """CPU seconds (user + system) of this process's threads and of the
    children it has waited for, so a process pool's work counts."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_pass(spec: dict) -> dict:
    from calibration import kernel_cpu_s

    kernel = [kernel_cpu_s() for _ in range(KERNEL_CALLS)]
    from cfgrank import cli

    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    steps = []
    t0, cpu0 = time.perf_counter(), cpu_s()
    for step in spec["steps"]:
        start, cpu_start = time.perf_counter(), cpu_s()
        if "merge" in step:
            _merge(step["merge"], step["into"])
            code, err = 0, ""
        else:
            argv = _expand(step["argv"])
            out_buf, err_buf = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf):
                try:
                    code = cli.main(argv)
                except SystemExit as e:
                    code = e.code if isinstance(e.code, int) else 1
            err = err_buf.getvalue()
        steps.append({"name": step["name"], "cmd": step["argv"][0] if "argv" in step else None,
                      "seconds": time.perf_counter() - start,
                      "cpu_s": cpu_s() - cpu_start,
                      "exit": code, "stderr": err[-4000:]})
    pass_s, pass_cpu_s = time.perf_counter() - t0, cpu_s() - cpu0
    kernel += [kernel_cpu_s() for _ in range(KERNEL_CALLS)]
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "steps": steps,
        "pass_s": pass_s,
        "pass_cpu_s": pass_cpu_s,
        "kernel_cpu_s": statistics.median(kernel),
        "peak_rss_mb": (own + kids) / 1024.0,
        "layers": tracer.layer_metrics(spec["samples"]) if tracer else None,
    }


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = run_pass(spec)
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
