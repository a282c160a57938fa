"""The three measurements the ROADMAP anchors its numbers to, taken with the
same inputs so a run can be set beside them:

* extract_features on chain-plus-chords CFGs of 300 and 1000 nodes
  (ROADMAP: 0.16 s and 2.2 s);
* the features command on 400 fragmented samples (ROADMAP: 1.4 s);
* 10-fold RF CV on the acceptance-criterion-4 table, exactly as the
  acceptance test builds it (ROADMAP: 29 s).

Usage (from the repository root; about a minute on 2 cores):

    python3 perfbench/anchors.py

Prints one JSON object; each timing is the median of --repeats runs, except
RF CV, which runs once.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cfgrank import cli, features, graph, learn  # noqa: E402


def chain_plus_chords(n: int, seed: int = 0) -> graph.Cfg:
    """A path 0..n-1 plus n/10 seeded chords."""
    rng = random.Random(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n // 10)]
    return graph.build_cfg(f"chain-{n}", [graph.BasicBlock(address=i) for i in range(n)], edges)


def timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def quiet(argv: list[str]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"cfgrank {argv[0]} exited {code}: {err.getvalue()}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    out = {}
    for n in (300, 1000):
        g = chain_plus_chords(n)
        out[f"extract_features_n{n}_s"] = timed(lambda: features.extract_features(g), args.repeats)

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        tmp = Path(tmp)
        quiet(["gen", "--count", "400", "--profile", "fragmented", "--seed", "42",
               "-o", str(tmp / "frag")])
        quiet(["ingest", "--format", "sbc", "-o", str(tmp / "graphs"),
               *sorted(str(p) for p in (tmp / "frag").glob("*.sbc"))])
        out["features_400_fragmented_s"] = timed(
            lambda: quiet(["features", str(tmp / "graphs"), "-o", str(tmp / "f.csv")]),
            args.repeats)
    with contextlib.suppress(OSError):
        scratch.rmdir()

    rng = random.Random(404)
    rows = [features.FeatureVector(f"m{i}", tuple(rng.gauss(1.5, 1.0) for _ in range(23)),
                                   "malicious") for i in range(2000)]
    rows += [features.FeatureVector(f"b{i}", tuple(rng.gauss(0.0, 1.0) for _ in range(23)),
                                    "benign") for i in range(250)]
    data = learn.LabeledDataset(tuple(rows))
    t = time.perf_counter()
    _, report = learn.cross_validate("rf", data, k=10, seed=17)
    out["criterion4_rf_cv_s"] = time.perf_counter() - t
    out["criterion4_rf_cv_ar"] = report.ar
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
