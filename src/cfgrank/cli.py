"""Command-line entry point.

Subcommands: ingest, gen, features, analyze, train, evaluate.
Exit codes: 0 success, 1 usage error, 2 input parse/validation error,
3 data/experiment error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# numpy's OpenBLAS starts a spinning worker thread per core as it loads; the
# feature matrices are 23 columns wide, so one thread is all they can use.
# Set before the package imports below load numpy; a value set by the user wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import features as feat  # noqa: E402
from . import graph, ingest, learn, report, sbc  # noqa: E402

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_DATA = 3

FORMATS = ("cfg-json", "edgelist", "sbc")


class UsageError(Exception):
    pass


class InputError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for parse errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _checked(convert, ok, rule: str):
    """An argparse type: convert the text, then require ok(value)."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    return parse


_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_positive_float = _checked(float, lambda v: math.isfinite(v) and v > 0, "finite and > 0")
_nonnegative_float = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                              "finite and >= 0")
_finite_float = _checked(float, math.isfinite, "finite")


def _write(path: Path, data: bytes):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)


def _json_line(payload) -> bytes:
    """Compact JSON with sorted keys on one line; a NaN or an infinity,
    which JSON cannot hold, is a data error."""
    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as e:
        raise DataError(str(e)) from None
    return (text + "\n").encode("utf-8")


def _parse_one(path: Path, fmt: str, call_edges: bool = True):
    data = path.read_bytes()
    if fmt == "cfg-json":
        doc = ingest.parse_cfg_json(data)
        return ingest.document_to_cfg(doc, include_call_edges=call_edges)
    if fmt == "edgelist":
        return ingest.parse_edge_list(data, sample_id=path.stem)
    program = sbc.decode(data)
    return sbc.recover_cfg(program, sample_id=path.stem)


def _output_name(sample_id: str, written: set[str]) -> str:
    """The sample_id, if it is one path component inside the output
    directory that this run has not written yet."""
    if sample_id in ("", ".", "..") or any(c in sample_id for c in "/\\\0"):
        raise ingest.SchemaError("sample_id", f"{sample_id!r} is not a safe file name")
    if sample_id in written:
        raise ingest.SchemaError("sample_id", f"{sample_id!r} was already written by this run")
    return sample_id


def cmd_ingest(args) -> int:
    out_dir = Path(args.out)
    paths = [Path(p) for p in args.paths]
    written: set[str] = set()
    failures: list[tuple[Path, Exception]] = []
    for path in paths:
        try:
            cfg = _parse_one(path, args.format, args.call_edges)
            name = _output_name(cfg.sample_id, written)
        except (ingest.IngestError, sbc.SbcError, OSError) as e:
            failures.append((path, e))
            if not args.keep_going:
                print(f"error: {path}: {e}", file=sys.stderr)
                return EXIT_INPUT
            continue
        _write(out_dir / f"{name}.graph.json", ingest.write_canonical(cfg))
        written.add(name)
    for path, err in failures:
        print(f"failed: {path}: {err}", file=sys.stderr)
    print(f"parsed {len(written)} failed {len(failures)}")
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.count < 1:
        raise UsageError("count must be >= 1")
    out_dir = Path(args.out)
    programs = sbc.generate_corpus(args.count, args.profile, args.seed)
    manifest = []
    width = max(4, len(str(args.count - 1)))
    for i, program in enumerate(programs):
        sample_id = f"{args.profile}-{i:0{width}d}"
        _write(out_dir / f"{sample_id}.sbc", sbc.encode(program))
        manifest.append({"sample_id": sample_id, "seed": args.seed + i,
                         "file": f"{sample_id}.sbc"})
    _write(out_dir / "manifest.json",
           _json_line({"profile": args.profile, "count": args.count,
                       "seed": args.seed, "samples": manifest}))
    print(f"generated {args.count} {args.profile} sample(s) in {out_dir}")
    return EXIT_OK


def _load_graph_dir(graph_dir: Path):
    paths = sorted(graph_dir.glob("*.graph.json"))
    if not paths:
        raise InputError(f"no *.graph.json files in {graph_dir}")
    try:
        return [ingest.parse_canonical(p.read_bytes()) for p in paths]
    except (ingest.IngestError, graph.GraphError, OSError) as e:
        raise InputError(str(e)) from e


def cmd_features(args) -> int:
    graphs = _load_graph_dir(Path(args.graph_dir))
    graphs.sort(key=lambda g: g.sample_id)
    rows = feat.extract_features_many(graphs)
    if args.label:
        rows = [feat.FeatureVector(r.sample_id, r.values, args.label) for r in rows]
    _write(Path(args.out), feat.write_feature_table(rows))
    print(f"wrote {len(rows)} feature row(s) to {args.out}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    names = args.names.split(",")
    if len(names) != len(args.graph_dirs):
        raise UsageError(f"{len(names)} name(s) for {len(args.graph_dirs)} directory(ies)")
    all_stats = []
    for name, d in zip(names, args.graph_dirs):
        graphs = _load_graph_dir(Path(d))
        graphs.sort(key=lambda g: g.sample_id)
        all_stats.append(report.corpus_stats(graphs, name))
    comparisons = []
    for i in range(len(all_stats)):
        for j in range(i + 1, len(all_stats)):
            summary = report.compare(all_stats[i], all_stats[j],
                                     "avg_closeness", args.threshold)
            comparisons.append({
                "corpus_a": all_stats[i].corpus_name,
                "corpus_b": all_stats[j].corpus_name,
                "metric": summary.metric,
                "threshold": summary.threshold,
                "fraction_a_below": summary.fraction_a_below,
                "fraction_b_below": summary.fraction_b_below,
                "rule_accuracy": summary.rule_accuracy,
            })
    payload = {
        "corpora": [report.stats_to_dict(s) for s in all_stats],
        "comparisons": comparisons,
    }
    _write(Path(args.out), _json_line(payload))
    print(f"analyzed {len(all_stats)} corpus(es) into {args.out}")
    return EXIT_OK


def _load_dataset(path: Path) -> learn.LabeledDataset:
    try:
        rows = feat.parse_feature_table(path.read_bytes())
    except (feat.FeatureTableError, OSError) as e:
        raise InputError(str(e)) from e
    labeled = [r for r in rows if r.label is not None]
    return learn.LabeledDataset(tuple(labeled))


def _hyper_from_args(args) -> learn.HyperParams:
    hyper = learn.HyperParams()
    for name in ("logreg_lr", "logreg_l2", "logreg_epochs", "svm_lambda",
                 "svm_steps", "rf_trees", "rf_min_leaf", "rf_max_depth"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(hyper, name, value)
    return hyper


def cmd_train(args) -> int:
    data = _load_dataset(Path(args.features_csv))
    model = learn.train(args.kind, data, _hyper_from_args(args), seed=args.seed)
    _write(Path(args.out), learn.model_to_json(model))
    print(f"trained {args.kind} on {len(data)} sample(s); model in {args.out}")
    return EXIT_OK


def _fmt_rate(v) -> str:
    return "-" if v is None else f"{v:.1f}"


def cmd_evaluate(args) -> int:
    if args.k < 2:
        raise UsageError("k must be >= 2")
    data = _load_dataset(Path(args.features_csv))
    matrix, metrics_report = learn.cross_validate(
        args.kind, data, _hyper_from_args(args), k=args.k, seed=args.seed)
    print(f"fold-averaged confusion matrix ({args.kind}, k={args.k}):")
    print(f"  actual malicious: predicted malicious {matrix.tp:.1f}  benign {matrix.fn:.1f}")
    print(f"  actual benign:    predicted malicious {matrix.fp:.1f}  benign {matrix.tn:.1f}")
    header = ["FNR", "FPR", "FDR", "FOR", "F1", "AR"]
    values = [metrics_report.fnr, metrics_report.fpr, metrics_report.fdr,
              metrics_report.for_, metrics_report.f1, metrics_report.ar]
    print("  ".join(f"{h:>6}" for h in header))
    print("  ".join(f"{_fmt_rate(v):>6}" for v in values))
    if args.out:
        payload = {
            "kind": args.kind,
            "k": args.k,
            "seed": args.seed,
            "confusion_matrix_fold_averaged": {
                "tp": matrix.tp, "fn": matrix.fn, "fp": matrix.fp, "tn": matrix.tn,
            },
            "metrics": dict(zip(("fnr", "fpr", "fdr", "for", "f1", "ar"), values)),
        }
        _write(Path(args.out), _json_line(payload))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="cfgrank",
                     description="CFG-based binary analysis and classification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="convert inputs to canonical graph files")
    p.add_argument("paths", nargs="+")
    p.add_argument("--format", choices=FORMATS, required=True)
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--keep-going", action="store_true")
    p.add_argument("--no-call-edges", dest="call_edges", action="store_false")
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("gen", help="generate a synthetic bytecode corpus")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--profile", choices=("enmeshed", "fragmented"), required=True)
    p.add_argument("-o", "--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("features", help="extract feature vectors from graphs")
    p.add_argument("graph_dir")
    p.add_argument("--label", choices=(feat.LABEL_MALICIOUS, feat.LABEL_BENIGN))
    p.add_argument("-o", "--out", required=True, help="output CSV path")
    p.set_defaults(fn=cmd_features)

    p = sub.add_parser("analyze", help="corpus statistics, CDFs, and comparison")
    p.add_argument("graph_dirs", nargs="+")
    p.add_argument("--names", required=True, help="comma-separated corpus names")
    p.add_argument("--threshold", type=_finite_float, default=0.2,
                   help="avg_closeness threshold for the comparison rule")
    p.add_argument("-o", "--out", required=True, help="output JSON path")
    p.set_defaults(fn=cmd_analyze)

    def learner(p):
        p.add_argument("features_csv")
        p.add_argument("--kind", choices=learn.KINDS, required=True)
        p.add_argument("--logreg-lr", dest="logreg_lr", type=_positive_float)
        p.add_argument("--logreg-l2", dest="logreg_l2", type=_nonnegative_float)
        p.add_argument("--logreg-epochs", dest="logreg_epochs", type=_positive_int)
        p.add_argument("--svm-lambda", dest="svm_lambda", type=_positive_float)
        p.add_argument("--svm-steps", dest="svm_steps", type=_positive_int)
        p.add_argument("--rf-trees", dest="rf_trees", type=_positive_int)
        p.add_argument("--rf-min-leaf", dest="rf_min_leaf", type=_positive_int)
        p.add_argument("--rf-max-depth", dest="rf_max_depth", type=_positive_int)
        p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("train", help="fit one classifier and save the model")
    learner(p)
    p.add_argument("-o", "--out", required=True, help="output model JSON path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="stratified k-fold cross-validation")
    learner(p)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("-o", "--out", help="optional output JSON path")
    p.set_defaults(fn=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"cfgrank: usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (InputError, ingest.IngestError, sbc.SbcError) as e:
        print(f"cfgrank: input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (DataError, learn.LearnError) as e:
        print(f"cfgrank: data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
