"""Command-line entry point.

Subcommands: ingest, gen, features, analyze, train, evaluate.
Exit codes: 0 success; a CfgrankError ends the command with one
`cfgrank: KIND error: MESSAGE` line on stderr and its exit code, 1 usage
error, 2 input error (unreadable, malformed or invalid input, unwritable
output), 3 data error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import reprlib
import sys
from pathlib import Path

# numpy's OpenBLAS starts a spinning worker thread per core as it loads; the
# feature matrices are 23 columns wide, so one thread is all they can use.
# Set before the package imports below load numpy; a value set by the user wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import CfgrankError, InputError, UsageError, json_line  # noqa: E402
from . import features as feat  # noqa: E402
from . import ingest, learn, report, sbc  # noqa: E402

FORMATS = ("cfg-json", "edgelist", "sbc")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the contract reserves 2 for parse errors
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(UsageError.exit_code)


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


def _read(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror}") from None


def _write(path: Path, data: bytes):
    """Write data to path, making its directory at the first write that
    finds it missing; a failed write is retried after the mkdir, so every
    error is the one that mkdir, then the write, would raise."""
    try:
        try:
            path.write_bytes(data)
        except OSError:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    except OSError as e:
        raise InputError(f"cannot write {path}: {e.strerror}") from None


def _output_name(sample_id: str, written: set[str]) -> str:
    """The sample_id, if it is one path component inside the output
    directory that this run has not written yet, and `<sample_id>.graph.json`
    is a file name of at most 255 bytes in strict UTF-8."""
    try:
        unsafe = len(f"{sample_id}.graph.json".encode("utf-8")) > 255
    except UnicodeEncodeError:  # a lone surrogate, from a JSON "\ud800" escape
        unsafe = True
    if unsafe or sample_id in ("", ".", "..") or any(c in sample_id for c in "/\\\0"):
        raise ingest.SchemaError("sample_id", f"{reprlib.repr(sample_id)} is not a safe file name")
    if sample_id in written:
        raise ingest.SchemaError("sample_id", f"{reprlib.repr(sample_id)} was already written by this run")
    return sample_id


def _parse_one(path: Path, fmt: str, call_edges: bool, written: set[str]):
    """The Cfg in one ingest input and the name to write it under; an error
    in the file's content names the file."""
    data = _read(path)
    try:
        if fmt == "cfg-json":
            doc = ingest.parse_cfg_json(data)
            # named before the conversion logs its dropped edges, so that a
            # file that fails prints one line
            name = _output_name(doc.sample_id, written)
            return ingest.document_to_cfg(doc, include_call_edges=call_edges), name
        if fmt == "edgelist":
            cfg = ingest.parse_edge_list(data, sample_id=path.stem)
        else:
            cfg = sbc.recover_cfg(sbc.decode(data), sample_id=path.stem)
        return cfg, _output_name(cfg.sample_id, written)
    except InputError as e:
        raise InputError(f"{path}: {e}") from None


def cmd_ingest(args) -> int:
    out_dir = Path(args.out)
    written: set[str] = set()
    failures: list[InputError] = []
    for path in map(Path, args.paths):
        try:
            cfg, name = _parse_one(path, args.format, args.call_edges, written)
        except InputError as e:
            if not args.keep_going:
                raise
            failures.append(e)
            continue
        _write(out_dir / f"{name}.graph.json", ingest.write_canonical(cfg))
        written.add(name)
    for err in failures:
        print(f"failed: {err}", file=sys.stderr)
    print(f"parsed {len(written)} failed {len(failures)}")
    return 0


def cmd_gen(args) -> int:
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
           json_line({"profile": args.profile, "count": args.count,
                      "seed": args.seed, "samples": manifest}))
    print(f"generated {args.count} {args.profile} sample(s) in {out_dir}")
    return 0


def _graph_paths(graph_dir: Path) -> list[Path]:
    """sorted(graph_dir.glob("*.graph.json")) from one os.scandir, sorted on
    the names: every entry whose name ends in .graph.json, a dotfile or a
    directory too, and none if the directory cannot be listed."""
    try:
        with os.scandir(graph_dir) as entries:
            names = sorted(e.name for e in entries if e.name.endswith(".graph.json"))
    except OSError:
        names = []
    return [graph_dir / name for name in names]


def _load_graph_dir(graph_dir: Path):
    """The canonical graphs in a directory, by sample_id; an error in a
    file's content names the file."""
    paths = _graph_paths(graph_dir)
    if not paths:
        raise InputError(f"no *.graph.json files in {graph_dir}")
    graphs = []
    for path in paths:
        data = _read(path)
        try:
            graphs.append(ingest.parse_canonical(data))
        except InputError as e:
            raise InputError(f"{path}: {e}") from None
    return sorted(graphs, key=lambda g: g.sample_id)


def cmd_features(args) -> int:
    graphs = _load_graph_dir(Path(args.graph_dir))
    rows = feat.extract_features_many(graphs)
    if args.label:
        rows = [feat.FeatureVector(r.sample_id, r.values, args.label) for r in rows]
    _write(Path(args.out), feat.write_feature_table(rows))
    print(f"wrote {len(rows)} feature row(s) to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    names = args.names.split(",")
    if len(names) != len(args.graph_dirs):
        raise UsageError(f"{len(names)} name(s) for {len(args.graph_dirs)} directory(ies)")
    for i, name in enumerate(names):
        if not name:
            raise UsageError("--names: a corpus name is empty")
        if name in names[:i]:
            raise UsageError(f"--names: {reprlib.repr(name)} is given twice")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError:  # undecodable argv bytes
            raise UsageError(f"--names: {reprlib.repr(name)} is not valid UTF-8") from None
    corpora = [report.corpus_stats(_load_graph_dir(Path(d)), name)
               for name, d in zip(names, args.graph_dirs)]
    _write(Path(args.out), json_line(report.payload(corpora, args.threshold)))
    print(f"analyzed {len(corpora)} corpus(es) into {args.out}")
    return 0


def _load_dataset(path: Path) -> learn.LabeledDataset:
    return learn.LabeledDataset.from_arrays(*feat.read_labeled_table(_read(path)))


def _hyper_from_args(args) -> learn.HyperParams:
    """HyperParams with each learner flag that was given; a flag's dest is
    its field's name."""
    return learn.HyperParams(**{f.name: v for f in dataclasses.fields(learn.HyperParams)
                                if (v := getattr(args, f.name)) is not None})


def cmd_train(args) -> int:
    data = _load_dataset(Path(args.features_csv))
    model = learn.train(args.kind, data, _hyper_from_args(args), seed=args.seed)
    _write(Path(args.out), learn.model_to_json(model))
    print(f"trained {args.kind} on {len(data)} sample(s); model in {args.out}")
    return 0


def _fmt_rate(v) -> str:
    return "-" if v is None else f"{v:.1f}"


def cmd_evaluate(args) -> int:
    data = _load_dataset(Path(args.features_csv))
    matrix, metrics_report = learn.cross_validate(
        args.kind, data, _hyper_from_args(args), k=args.k, seed=args.seed)
    print(f"fold-averaged confusion matrix ({args.kind}, k={args.k}):")
    print(f"  actual malicious: predicted malicious {matrix.tp:.1f}  benign {matrix.fn:.1f}")
    print(f"  actual benign:    predicted malicious {matrix.fp:.1f}  benign {matrix.tn:.1f}")
    # MetricReport's fields name the rates; for_ dodges the keyword
    rates = {name.rstrip("_"): v for name, v in vars(metrics_report).items()}
    print("  ".join(f"{name.upper():>6}" for name in rates))
    print("  ".join(f"{_fmt_rate(v):>6}" for v in rates.values()))
    if args.out:
        _write(Path(args.out), json_line({
            "kind": args.kind, "k": args.k, "seed": args.seed,
            "confusion_matrix_fold_averaged": vars(matrix),
            "metrics": rates,
        }))
    return 0


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
    p.add_argument("--count", type=_positive_int, required=True)
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
        # numpy's generators take no negative seed; gen's random.Random does
        p.add_argument("--seed", type=_checked(int, lambda v: v >= 0, ">= 0"), default=42)

    p = sub.add_parser("train", help="fit one classifier and save the model")
    learner(p)
    p.add_argument("-o", "--out", required=True, help="output model JSON path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="stratified k-fold cross-validation")
    learner(p)
    p.add_argument("--k", type=_checked(int, lambda v: v >= 2, ">= 2"), default=10)
    p.add_argument("-o", "--out", help="optional output JSON path")
    p.set_defaults(fn=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CfgrankError as e:
        print(f"cfgrank: {e.kind} error: {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
