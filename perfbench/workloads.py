"""The three workloads: generated inputs, the CLI steps of one pass, and the
check of each step's outputs.

Each workload stresses a different layer, so a change to one layer has a
workload that exercises it and one that bypasses it:

* sbc-corpus: many tiny graphs, so per-file costs (sbc decode/recover,
  canonical write and re-read, CLI dispatch) matter; learn is a minor share.
* large-cfg: four whole-program CFGs of 250-1000 blocks, so the all-pairs
  sweeps in metrics dominate and learn does nothing. One input stacks 72
  if/else diamonds, so shortest-path counts reach 2**72 and a kernel that
  keeps them in int64 fails the check.
* table-cv: the acceptance-criterion-4 table, so learn does all the work and
  no graph layer runs.

sbc-corpus and table-cv end each pass with a small fixed slice whose inputs
do not depend on the run seed, so their outputs are compared with the
reference on every seed, not only on seed 0.

Only the flags the roadmap keeps are passed: no --jobs, and no --seed to
ingest, features or analyze.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import checks

PERFBENCH = Path(__file__).resolve().parent
REFERENCE = PERFBENCH / "reference"


# inputs of the fixed slices: the same on every run seed, so their outputs
# are compared with reference/<workload>/fixed/ on every run
FIXED_SEED = 0


def _cli(name: str, *argv, outputs=(), reference=(), fixed=()) -> dict:
    return {"name": name, "argv": list(argv), "outputs": list(outputs),
            "reference": list(reference), "fixed": list(fixed)}


class Workload:
    name = ""
    samples = 0
    # traced call counts the benchmark predicts from its own inputs
    expected_calls: dict[str, int] = {}
    # JSON keys compared exactly against the reference
    exact_keys = frozenset({"confusion_matrix_fold_averaged"})

    def prepare(self, inputs: Path, seed: int):
        """Write this seed's inputs; the same seed gives the same inputs."""
        self.seed = seed

    def steps(self, inputs: Path, out: Path) -> list[dict]:
        raise NotImplementedError

    def expected_counts(self) -> dict[str, float]:
        """Per-layer counts a traced pass must report exactly."""
        return {f"{name}.calls": n for name, n in self.expected_calls.items()}

    def check(self, step: dict, out: Path, result: dict) -> list[str]:
        """Invariants of the step's outputs; the fixed slice's reference on
        every seed, and the whole reference on a recorded seed."""
        errors = self.invariants(step, out, result)
        for rel in step["fixed"]:
            errors += self.compare_reference(out / rel, self.fixed_dir() / f"{rel}.gz")
        refdir = self.reference_dir()
        if refdir.is_dir():
            for rel in step["reference"]:
                errors += self.compare_reference(out / rel, refdir / f"{rel}.gz")
        return errors

    def reference_dir(self) -> Path:
        return REFERENCE / self.name / f"seed-{self.seed}"

    def fixed_dir(self) -> Path:
        return REFERENCE / self.name / "fixed"

    def invariants(self, step, out, result) -> list[str]:
        return []

    def compare_reference(self, path: Path, ref: Path) -> list[str]:
        if not path.exists():
            return [f"{path.name}: missing"]
        if not ref.exists():
            return [f"{ref.name}: no reference recorded"]
        data, expected = path.read_bytes(), checks.read_reference(ref)
        if path.suffix == ".csv":
            return checks.compare_tables(data, expected, name=path.name)
        return checks.compare_json(json.loads(data), json.loads(expected),
                                   exact_keys=self.exact_keys, where=path.name)

    def record_reference(self, steps: list[dict], out: Path):
        for step in steps:
            for key, refdir in (("reference", self.reference_dir()), ("fixed", self.fixed_dir())):
                for rel in step[key]:
                    checks.write_reference(refdir / f"{rel}.gz", (out / rel).read_bytes())


class SbcCorpus(Workload):
    name = "sbc-corpus"
    per_profile = 400
    # a fixed-seed slice per profile, run through ingest, features and analyze
    fixed_per_profile = 20
    samples = 2 * (per_profile + fixed_per_profile)
    # features and analyze each read every graph dir
    expected_calls = {"features.extract_features": samples,
                      "ingest.parse_canonical": 2 * samples}
    profiles = (("enmeshed", "enm", "benign"), ("fragmented", "frag", "malicious"))

    def steps(self, inputs, out):
        s = []
        for profile, short, _ in self.profiles:
            s.append(_cli(f"gen-{short}", "gen", "--count", str(self.per_profile),
                          "--profile", profile, "--seed", str(self.seed),
                          "-o", str(out / short), outputs=[short]))
        for short in ("enm", "frag"):
            s.append(_cli(f"ingest-{short}", "ingest", "--format", "sbc",
                          "-o", str(out / f"{short}-graphs"),
                          {"dir": str(out / short), "glob": "*.sbc"},
                          outputs=[f"{short}-graphs"]))
        for _, short, label in self.profiles:
            s.append(_cli(f"features-{short}", "features", str(out / f"{short}-graphs"),
                          "--label", label, "-o", str(out / f"{short}.csv"),
                          outputs=[f"{short}.csv"], reference=[f"{short}.csv"]))
        s.append({"name": "merge", "merge": [str(out / "enm.csv"), str(out / "frag.csv")],
                  "into": str(out / "all.csv"), "outputs": ["all.csv"], "reference": [],
                  "fixed": []})
        s.append(_cli("analyze", "analyze", "--names", "benignish,malwarish",
                      "-o", str(out / "report.json"),
                      str(out / "enm-graphs"), str(out / "frag-graphs"),
                      outputs=["report.json"], reference=["report.json"]))
        s.append(_cli("evaluate", "evaluate", str(out / "all.csv"), "--kind", "rf",
                      "--k", "10", "-o", str(out / "metrics.json"),
                      outputs=["metrics.json"], reference=["metrics.json"]))
        for profile, short, _ in self.profiles:
            s.append(_cli(f"gen-fixed-{short}", "gen", "--count", str(self.fixed_per_profile),
                          "--profile", profile, "--seed", str(FIXED_SEED),
                          "-o", str(out / f"fixed-{short}"), outputs=[f"fixed-{short}"]))
        s.append(_cli("ingest-fixed", "ingest", "--format", "sbc", "-o", str(out / "fixed-graphs"),
                      *({"dir": str(out / f"fixed-{short}"), "glob": "*.sbc"}
                        for _, short, _ in self.profiles),
                      outputs=["fixed-graphs"]))
        s.append(_cli("features-fixed", "features", str(out / "fixed-graphs"),
                      "-o", str(out / "fixed.csv"), outputs=["fixed.csv"], fixed=["fixed.csv"]))
        s.append(_cli("analyze-fixed", "analyze", "--names", "fixed",
                      "-o", str(out / "fixed-report.json"), str(out / "fixed-graphs"),
                      outputs=["fixed-report.json"], fixed=["fixed-report.json"]))
        return s

    def invariants(self, step, out, result):
        n, fixed_n = self.per_profile, self.fixed_per_profile
        name = step["name"]
        if name.startswith("gen-"):
            d = out / name[4:]
            count = fixed_n if name.startswith("gen-fixed-") else n
            manifest = checks.load_json(d / "manifest.json") or {}
            found = len(list(d.glob("*.sbc")))
            if found != count or manifest.get("count") != count:
                return [f"{name}: {found} .sbc files, manifest count {manifest.get('count')}"]
        elif name.startswith("ingest-"):
            count = 2 * fixed_n if name == "ingest-fixed" else n
            found = len(list((out / f"{name[7:]}-graphs").glob("*.graph.json")))
            if found != count:
                return [f"{name}: {found} graph files, expected {count}"]
        elif name == "features-fixed":
            return checks.table_errors(out / "fixed.csv", 2 * fixed_n, "")
        elif name.startswith("features-"):
            label = "benign" if name.endswith("enm") else "malicious"
            return checks.table_errors(out / f"{name[9:]}.csv", n, label)
        elif name == "analyze":
            return _report_errors(out / "report.json",
                                  [out / "enm.csv", out / "frag.csv"], [n, n])
        elif name == "analyze-fixed":
            return _report_errors(out / "fixed-report.json", [out / "fixed.csv"], [2 * fixed_n])
        elif name == "evaluate":
            payload = checks.load_json(out / "metrics.json")
            if payload is None:
                return ["metrics.json missing"]
            return checks.confusion_errors(payload, 2 * n, 10, min_ar=95.0)
        return []


def _report_errors(report_path: Path, tables: list[Path], sizes: list[int],
                   expected: dict | None = None) -> list[str]:
    """report.json invariants, cross-checked against the features tables:
    analyze and features compute counts and mean closeness independently."""
    report = checks.load_json(report_path)
    if report is None:
        return ["report.json missing"]
    errors = checks.cdf_errors(report)
    samples = [s for c in report["corpora"] for s in c["samples"]]
    if [len(c["samples"]) for c in report["corpora"]] != sizes:
        errors.append(f"report corpus sizes differ from {sizes}")
    cols = {}
    for table in tables:
        if not table.exists():
            return errors + [f"{table.name} missing for the cross-check"]
        for col in ("node_count", "edge_count", "closeness_mean"):
            cols.setdefault(col, {}).update(checks.column(table, col))
    for s in samples:
        sid = s["sample_id"]
        if sid not in cols["node_count"]:
            errors.append(f"{sid}: in report.json but not in the features table")
            continue
        if (s["node_count"], s["edge_count"]) != \
                (cols["node_count"][sid], cols["edge_count"][sid]):
            errors.append(f"{sid}: report counts differ from features.csv")
        if not checks.close(s["avg_closeness"], cols["closeness_mean"][sid]):
            errors.append(f"{sid}: avg_closeness {s['avg_closeness']!r} != "
                          f"closeness_mean {cols['closeness_mean'][sid]!r}")
        if expected and s["component_count"] != expected[sid]["components"]:
            errors.append(f"{sid}: {s['component_count']} components, "
                          f"expected {expected[sid]['components']}")
    return errors[:5]


# --- large-cfg: cfg-json whole-program exports ---------------------------

BLOCK = 16
UNKNOWN_BASE = 0xF000_0000  # no function is placed this high


def _block(addr, rng, jump=None, fail=None):
    return {"addr": addr, "size": BLOCK, "ninstr": rng.randint(1, 8),
            "jump": jump, "fail": fail, "calls": []}


def _chain_function(rng: random.Random, base: int, n: int) -> list[dict]:
    """Straight-line code with forward if/else branches and loop back-edges."""
    addr = [base + BLOCK * i for i in range(n)]
    blocks = []
    for i in range(n):
        b = _block(addr[i], rng)
        if i + 1 < n:
            r = rng.random()
            if r < 0.25 and i + 2 < n:
                b["jump"], b["fail"] = addr[min(n - 1, i + rng.randint(2, 6))], addr[i + 1]
            elif r < 0.35 and i > 0:
                b["jump"], b["fail"] = addr[i - rng.randint(1, min(i, 8))], addr[i + 1]
            else:
                b["jump"] = addr[i + 1]
        blocks.append(b)
    return blocks


def _diamond_function(rng: random.Random, base: int, diamonds: int) -> list[dict]:
    """`diamonds` stacked if/else diamonds: 2**diamonds shortest paths end to end."""
    heads = [base + 3 * BLOCK * k for k in range(diamonds + 1)]
    blocks = []
    for k in range(diamonds):
        then_, else_ = heads[k] + BLOCK, heads[k] + 2 * BLOCK
        blocks += [_block(heads[k], rng, jump=else_, fail=then_),
                   _block(then_, rng, jump=heads[k + 1]),
                   _block(else_, rng, jump=heads[k + 1])]
    blocks.append(_block(heads[-1], rng))
    return blocks


def make_program(rng: random.Random, sample_id: str, blocks: int | None = None,
                 diamonds: int | None = None) -> tuple[dict, dict]:
    """A cfg-json document and the facts the checks expect of it.

    main calls a tree of helpers (plus a few extra call edges), a few calls
    target unknown addresses, and a few functions are never called and call
    nothing, so each is its own weak component.
    """
    # fixed sizes keep the largest component, and so the O(n*m) cost and
    # the n*n pair-distance list, the same size on every seed
    uncalled = [12, 12, 12]
    n_called = rng.randint(4, 6)
    if diamonds is not None:
        helper_sizes = [rng.randint(4, 8) for _ in range(n_called)]
    else:
        rest = blocks - sum(uncalled)
        weights = [2.0 * n_called] + [rng.uniform(1.0, 3.0) for _ in range(n_called)]
        helper_sizes = [max(5, int(rest * w / sum(weights))) for w in weights[1:]]
        main_size = rest - sum(helper_sizes)

    def base(f):
        return 0x1000 + f * 0x10_0000

    funcs = [_diamond_function(rng, base(0), diamonds) if diamonds is not None
             else _chain_function(rng, base(0), main_size)]
    funcs += [_chain_function(rng, base(1 + i), n) for i, n in enumerate(helper_sizes)]
    funcs += [_chain_function(rng, base(1 + n_called + i), n) for i, n in enumerate(uncalled)]

    def add_call(caller: int, target: int):
        # calls from the diamond chain hang off its last block, so they add
        # no shortcut across the diamonds
        fn = funcs[caller]
        b = fn[-1] if diamonds is not None and caller == 0 else fn[rng.randrange(len(fn))]
        b["calls"].append(target)

    for i in range(1, n_called + 1):
        add_call(rng.randrange(i), funcs[i][0]["addr"])
    for _ in range(3):
        add_call(rng.randrange(n_called + 1), funcs[1 + rng.randrange(n_called)][0]["addr"])
    dropped = rng.randint(2, 4)
    for _ in range(dropped):
        add_call(rng.randrange(n_called + 1), UNKNOWN_BASE + BLOCK * rng.randrange(1 << 20))

    doc = {"sample_id": sample_id, "functions": [
        {"name": "main" if i == 0 else f"sub_{fn[0]['addr']:x}", "entry": fn[0]["addr"],
         "blocks": fn} for i, fn in enumerate(funcs)]}
    known = {b["addr"] for fn in funcs for b in fn}
    edges = set()
    for fn in funcs:
        for b in fn:
            for t in (b["jump"], b["fail"], *b["calls"]):
                if t is not None and t in known:
                    edges.add((b["addr"], t))
    facts = {"nodes": len(known), "edges": len(edges),
             "components": 1 + len(uncalled), "dropped_calls": dropped}
    return doc, facts


class LargeCfg(Workload):
    name = "large-cfg"
    sizes = (400, 650, 1000)
    diamonds = 72
    diamonds_ref = REFERENCE / "large-cfg" / "diamonds.csv.gz"
    samples = 1 + len(sizes)
    expected_calls = {"features.extract_features": samples,
                      "ingest.parse_canonical": 2 * samples}

    def prepare(self, inputs, seed):
        super().prepare(inputs, seed)
        self.facts = {}
        # the diamond chain is the same for every seed, so its reference
        # row is checked on every run
        programs = [make_program(random.Random(72), "diamonds", diamonds=self.diamonds)]
        rng = random.Random(seed)
        programs += [make_program(rng, f"prog-{n}", blocks=n) for n in self.sizes]
        inputs.mkdir(parents=True, exist_ok=True)
        for doc, facts in programs:
            (inputs / f"{doc['sample_id']}.json").write_text(json.dumps(doc))
            self.facts[doc["sample_id"]] = facts

    def expected_counts(self):
        return {**super().expected_counts(),
                "ingest.dropped_calls": sum(f["dropped_calls"] for f in self.facts.values())}

    def steps(self, inputs, out):
        return [
            _cli("ingest", "ingest", "--format", "cfg-json", "-o", str(out / "graphs"),
                 {"dir": str(inputs), "glob": "*.json"}, outputs=["graphs"]),
            _cli("features", "features", str(out / "graphs"), "-o", str(out / "features.csv"),
                 outputs=["features.csv"], reference=["features.csv"]),
            _cli("analyze", "analyze", "--names", "programs", "-o", str(out / "report.json"),
                 str(out / "graphs"), outputs=["report.json"], reference=["report.json"]),
        ]

    def invariants(self, step, out, result):
        if step["name"] == "ingest":
            errors = []
            for sid, facts in self.facts.items():
                g = checks.load_json(out / "graphs" / f"{sid}.graph.json")
                if g is None or (len(g["nodes"]), len(g["edges"])) != \
                        (facts["nodes"], facts["edges"]):
                    errors.append(f"{sid}: canonical graph missing or with wrong counts")
            return errors
        if step["name"] == "features":
            path = out / "features.csv"
            errors = checks.table_errors(path, self.samples, "")
            if errors:
                return errors
            for col, fact in (("node_count", "nodes"), ("edge_count", "edges")):
                got = checks.column(path, col)
                for sid, facts in self.facts.items():
                    if got.get(sid) != facts[fact]:
                        errors.append(f"{sid}: {col} {got.get(sid)}, expected {facts[fact]}")
            errors += checks.compare_tables(
                path.read_bytes(), checks.read_reference(self.diamonds_ref),
                name="diamonds row", only_reference_ids=True)
            return errors
        if step["name"] == "analyze":
            return _report_errors(out / "report.json", [out / "features.csv"],
                                  [self.samples], self.facts)
        return []

    def record_reference(self, steps, out):
        super().record_reference(steps, out)
        header, *rows = (out / "features.csv").read_bytes().splitlines(keepends=True)
        checks.write_reference(self.diamonds_ref,
                               header + b"".join(r for r in rows if r.startswith(b"diamonds,")))


# --- table-cv: the acceptance-criterion-4 table --------------------------


class TableCv(Workload):
    name = "table-cv"
    malicious, benign = 2000, 250
    # a smaller fixed-seed table, on which each kind is trained and its
    # model compared with the reference on every run
    fixed_malicious, fixed_benign = 400, 50
    samples = malicious + benign + fixed_malicious + fixed_benign
    # criterion 4 uses the default 100 trees (about 25 s of CV on 2 cores);
    # 8 trees keep the same per-tree split search and let a run hold
    # enough passes for a steady median on a noisy shared machine
    trees = "8"
    kinds = ("rf", "logreg", "svm")
    expected_calls = {"features.extract_features": 0, "ingest.parse_canonical": 0}

    def prepare(self, inputs, seed):
        super().prepare(inputs, seed)
        inputs.mkdir(parents=True, exist_ok=True)
        self.table = inputs / "features.csv"
        self.fixed_table = inputs / "fixed.csv"
        _write_gaussian_table(self.table, random.Random(seed), self.malicious, self.benign)
        _write_gaussian_table(self.fixed_table, random.Random(FIXED_SEED),
                              self.fixed_malicious, self.fixed_benign)

    def _rf_trees(self, kind: str) -> tuple[str, ...]:
        return ("--rf-trees", self.trees) if kind == "rf" else ()

    def steps(self, inputs, out):
        s = [_cli(f"evaluate-{kind}", "evaluate", str(self.table), "--kind", kind,
                  "--k", "10", *self._rf_trees(kind), "-o", str(out / f"{kind}.json"),
                  outputs=[f"{kind}.json"], reference=[f"{kind}.json"])
             for kind in self.kinds]
        s.append(_cli("train", "train", str(self.table), "--kind", "rf",
                      *self._rf_trees("rf"), "-o", str(out / "model.json"),
                      outputs=["model.json"]))
        s += [_cli(f"train-fixed-{kind}", "train", str(self.fixed_table), "--kind", kind,
                   *self._rf_trees(kind), "-o", str(out / f"fixed-{kind}.json"),
                   outputs=[f"fixed-{kind}.json"], fixed=[f"fixed-{kind}.json"])
              for kind in self.kinds]
        return s

    def _predictions(self, out: Path) -> str:
        """The saved model's labels for the training table, read back through
        the package's own loader so a model-format change still checks."""
        from cfgrank import features, learn

        model = learn.model_from_json((out / "model.json").read_bytes())
        rows = features.parse_feature_table(self.table.read_bytes())
        return "".join("1" if learn.predict(model, r) == "malicious" else "0" for r in rows)

    def invariants(self, step, out, result):
        if step["name"].startswith("train-fixed-"):
            model = out / f"fixed-{step['name'][12:]}.json"
            return [] if model.exists() else [f"{model.name} missing"]
        if step["name"] == "train":
            if not (out / "model.json").exists():
                return ["model.json missing"]
            predicted = self._predictions(out)
            truth = "1" * self.malicious + "0" * self.benign
            accuracy = sum(p == t for p, t in zip(predicted, truth)) / len(truth)
            errors = [] if accuracy >= 0.95 else [f"training accuracy {accuracy:.3f}"]
            ref = self.reference_dir() / "predictions.txt.gz"
            if ref.exists() and checks.read_reference(ref).decode() != predicted:
                errors.append("model predictions differ from reference")
            return errors
        payload = checks.load_json(out / f"{step['name'][9:]}.json")
        if payload is None:
            return [f"{step['name']}: output missing"]
        min_ar = 95.0 if payload["kind"] == "rf" else 80.0
        return checks.confusion_errors(payload, self.malicious + self.benign, 10, min_ar)

    def record_reference(self, steps, out):
        super().record_reference(steps, out)
        checks.write_reference(self.reference_dir() / "predictions.txt.gz",
                               self._predictions(out).encode())


def _write_gaussian_table(path: Path, rng: random.Random, malicious: int, benign: int):
    """The criterion-4 table: malicious rows N(1.5, 1), benign rows N(0, 1)."""
    from cfgrank.features import FEATURE_NAMES

    lines = [",".join(("sample_id", *FEATURE_NAMES, "label"))]
    for prefix, n, mu, label in (("m", malicious, 1.5, "malicious"),
                                 ("b", benign, 0.0, "benign")):
        for i in range(n):
            values = ",".join(f"{rng.gauss(mu, 1.0):.17g}" for _ in FEATURE_NAMES)
            lines.append(f"{prefix}{i},{values},{label}")
    path.write_text("\n".join(lines) + "\n")


WORKLOADS = {w.name: w for w in (SbcCorpus, LargeCfg, TableCv)}
