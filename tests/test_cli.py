import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cfgrank
from cfgrank import features as feat
from cfgrank import ingest, metrics, sbc
from cfgrank.cli import DataError, _json_line, main
from cfgrank.graph import BasicBlock, build_cfg
from oracles import random_cfg


def run(*argv):
    return main(list(argv))


def run_subprocess(*argv):
    """The CLI in a fresh interpreter, so that a traceback or a warning
    would show on its stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cfgrank.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "cfgrank.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def write_cfg_json(path, sample_id="s", addr=0):
    payload = {
        "sample_id": sample_id,
        "functions": [{"name": "f", "entry": addr, "blocks": [
            {"addr": addr, "size": 4, "ninstr": 1, "jump": None,
             "fail": addr + 4, "calls": []},
            {"addr": addr + 4, "size": 4, "ninstr": 1, "jump": None,
             "fail": None, "calls": []},
        ]}],
    }
    path.write_text(json.dumps(payload))


def write_dangling_graph(tmp_path):
    """A canonical graph dir whose one edge points at no block."""
    graphs_dir = tmp_path / "graphs"
    graphs_dir.mkdir()
    (graphs_dir / "d.graph.json").write_text(json.dumps({
        "sample_id": "d", "nodes": [{"addr": 0, "size": 4, "ninstr": 1}],
        "edges": [[0, 99]]}))
    return graphs_dir


def make_features_csv(path, n_pos=30, n_neg=30, shift=10.0, seed=5):
    rng = random.Random(seed)
    rows = []
    for i in range(n_pos):
        rows.append(feat.FeatureVector(
            f"m{i}", tuple(rng.gauss(shift, 1.0) for _ in range(23)), "malicious"))
    for i in range(n_neg):
        rows.append(feat.FeatureVector(
            f"b{i}", tuple(rng.gauss(0.0, 1.0) for _ in range(23)), "benign"))
    path.write_bytes(feat.write_feature_table(rows))


class TestIngestCommand:
    def test_three_valid_files(self, tmp_path, capsys):
        for i in range(3):
            write_cfg_json(tmp_path / f"in{i}.json", sample_id=f"s{i}")
        out = tmp_path / "graphs"
        code = run("ingest", "--format", "cfg-json", "-o", str(out),
                   *(str(tmp_path / f"in{i}.json") for i in range(3)))
        assert code == 0
        assert sorted(p.name for p in out.glob("*.graph.json")) == [
            "s0.graph.json", "s1.graph.json", "s2.graph.json"]
        assert "parsed 3 failed 0" in capsys.readouterr().out

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        out = tmp_path / "graphs"
        assert run("ingest", "--format", "cfg-json", "-o", str(out), str(bad)) == 2
        assert not list(out.glob("*.graph.json")) if out.exists() else True

    def test_keep_going_mixed(self, tmp_path, capsys):
        write_cfg_json(tmp_path / "good.json", sample_id="good")
        (tmp_path / "bad.json").write_text("{nope")
        out = tmp_path / "graphs"
        code = run("ingest", "--format", "cfg-json", "-o", str(out),
                   "--keep-going", str(tmp_path / "good.json"),
                   str(tmp_path / "bad.json"))
        assert code == 0
        captured = capsys.readouterr()
        assert "parsed 1 failed 1" in captured.out
        assert "bad.json" in captured.err

    def test_edgelist_and_sbc_formats(self, tmp_path):
        (tmp_path / "g.edges").write_text("0 1\n1 2\n")
        program = sbc.generate_corpus(1, "enmeshed", 4)[0]
        (tmp_path / "p.sbc").write_bytes(sbc.encode(program))
        out = tmp_path / "graphs"
        assert run("ingest", "--format", "edgelist", "-o", str(out),
                   str(tmp_path / "g.edges")) == 0
        assert run("ingest", "--format", "sbc", "-o", str(out),
                   str(tmp_path / "p.sbc")) == 0
        assert (out / "g.graph.json").exists()
        assert (out / "p.graph.json").exists()

    @pytest.mark.parametrize("sample_id", [
        "../escaped", "", ".", "..", "a/b", "a\\b", "a\0b", "/abs"])
    def test_unsafe_sample_id_exits_2(self, tmp_path, capsys, sample_id):
        write_cfg_json(tmp_path / "in.json", sample_id=sample_id)
        out = tmp_path / "out" / "graphs"
        assert run("ingest", "--format", "cfg-json", "-o", str(out),
                   str(tmp_path / "in.json")) == 2
        assert "is not a safe file name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["in.json"]

    def test_unsafe_sample_id_keep_going(self, tmp_path, capsys):
        write_cfg_json(tmp_path / "bad.json", sample_id="../escaped")
        write_cfg_json(tmp_path / "good.json", sample_id="good")
        out = tmp_path / "graphs"
        assert run("ingest", "--format", "cfg-json", "-o", str(out), "--keep-going",
                   str(tmp_path / "bad.json"), str(tmp_path / "good.json")) == 0
        assert "parsed 1 failed 1" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.rglob("*.graph.json")) == ["good.graph.json"]

    def test_duplicate_sample_id_exits_2(self, tmp_path, capsys):
        write_cfg_json(tmp_path / "a.json", sample_id="same")
        write_cfg_json(tmp_path / "b.json", sample_id="same", addr=100)
        out = tmp_path / "graphs"
        assert run("ingest", "--format", "cfg-json", "-o", str(out),
                   str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 2
        err = capsys.readouterr().err
        assert "b.json" in err and "already written by this run" in err
        first = json.loads((out / "same.graph.json").read_text())
        assert first["nodes"][0]["addr"] == 0
        assert run("ingest", "--format", "cfg-json", "-o", str(tmp_path / "kg"),
                   "--keep-going", str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
        assert "parsed 1 failed 1" in capsys.readouterr().out

    def test_bad_format_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("ingest", "--format", "elf", "-o", str(tmp_path), "x")
        assert exc.value.code == 1


class TestGenCommand:
    def test_deterministic_directories(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("gen", "--count", "10", "--profile", "enmeshed",
                       "--seed", "42", "-o", str(out)) == 0
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_fragmented_sample_multi_component(self, tmp_path):
        out = tmp_path / "c"
        assert run("gen", "--count", "1", "--profile", "fragmented",
                   "--seed", "7", "-o", str(out)) == 0
        from cfgrank.graph import largest_component
        sbc_files = list(out.glob("*.sbc"))
        assert len(sbc_files) == 1
        g = sbc.recover_cfg(sbc.decode(sbc_files[0].read_bytes()))
        assert largest_component(g).count >= 2

    def test_zero_count_usage_error(self, tmp_path):
        assert run("gen", "--count", "0", "--profile", "enmeshed",
                   "-o", str(tmp_path / "z")) == 1

    def test_manifest_lists_samples(self, tmp_path):
        out = tmp_path / "m"
        run("gen", "--count", "3", "--profile", "fragmented", "-o", str(out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["seed"] for s in manifest["samples"]] == [42, 43, 44]


class TestFeaturesCommand:
    def test_pipeline_equals_library(self, tmp_path):
        rng = random.Random(3)
        graphs_dir = tmp_path / "graphs"
        graphs_dir.mkdir()
        graphs = []
        for i in range(5):
            g = random_cfg(rng, rng.randint(1, 8), rng.randint(0, 10),
                           sample_id=f"g{i}")
            graphs.append(g)
            (graphs_dir / f"g{i}.graph.json").write_bytes(ingest.write_canonical(g))
        out_csv = tmp_path / "features.csv"
        assert run("features", str(graphs_dir), "--label", "malicious",
                   "-o", str(out_csv)) == 0
        rows = feat.parse_feature_table(out_csv.read_bytes())
        assert [r.sample_id for r in rows] == sorted(g.sample_id for g in graphs)
        by_id = {g.sample_id: g for g in graphs}
        for row in rows:
            direct = feat.extract_features(by_id[row.sample_id])
            assert row.values == direct.values
            assert row.label == "malicious"

    def test_same_bytes_under_any_sweep_budget(self, tmp_path, monkeypatch):
        # one source per block, every graph its own group, against the default
        assert run("gen", "--count", "12", "--profile", "enmeshed", "--seed", "7",
                   "-o", str(tmp_path / "gen")) == 0
        assert run("ingest", "--format", "sbc", "-o", str(tmp_path / "graphs"),
                   *sorted(str(p) for p in (tmp_path / "gen").glob("*.sbc"))) == 0
        assert run("features", str(tmp_path / "graphs"), "-o", str(tmp_path / "a.csv")) == 0
        monkeypatch.setattr(metrics, "SWEEP_SLOTS", 1)
        assert run("features", str(tmp_path / "graphs"), "-o", str(tmp_path / "b.csv")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_invalid_graph_exits_2(self, tmp_path):
        graphs_dir = tmp_path / "graphs"
        graphs_dir.mkdir()
        (graphs_dir / "x.graph.json").write_text("{broken")
        assert run("features", str(graphs_dir), "-o", str(tmp_path / "f.csv")) == 2

    def test_dangling_edge_exits_2(self, tmp_path, capsys):
        graphs_dir = write_dangling_graph(tmp_path)
        assert run("features", str(graphs_dir), "-o", str(tmp_path / "f.csv")) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "cfgrank: input error: edge endpoint address 99 does not match any block"]
        assert not (tmp_path / "f.csv").exists()


class TestAnalyzeCommand:
    def _gen_graph_dir(self, tmp_path, profile, name, count=10, seed=1):
        sbc_dir = tmp_path / f"{name}-sbc"
        run("gen", "--count", str(count), "--profile", profile,
            "--seed", str(seed), "-o", str(sbc_dir))
        graph_dir = tmp_path / f"{name}-graphs"
        run("ingest", "--format", "sbc", "-o", str(graph_dir),
            *sorted(str(p) for p in sbc_dir.glob("*.sbc")))
        return graph_dir

    def test_two_corpora_report(self, tmp_path):
        enm = self._gen_graph_dir(tmp_path, "enmeshed", "e")
        frag = self._gen_graph_dir(tmp_path, "fragmented", "f")
        out = tmp_path / "report.json"
        assert run("analyze", "--names", "iot,android", "-o", str(out),
                   str(enm), str(frag)) == 0
        payload = json.loads(out.read_text())
        assert [c["corpus"] for c in payload["corpora"]] == ["iot", "android"]
        comparison = payload["comparisons"][0]
        assert comparison["metric"] == "avg_closeness"
        assert comparison["threshold"] == 0.2
        assert comparison["rule_accuracy"] >= 0.9
        for c in payload["corpora"]:
            for pts in c["cdfs"].values():
                fractions = [f for _, f in pts]
                assert fractions == sorted(fractions)
                assert fractions[-1] == 1.0

    def test_dangling_edge_exits_2(self, tmp_path, capsys):
        graphs_dir = write_dangling_graph(tmp_path)
        assert run("analyze", "--names", "a", "-o", str(tmp_path / "r.json"),
                   str(graphs_dir)) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "cfgrank: input error: edge endpoint address 99 does not match any block"]
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "x"])
    def test_non_finite_threshold_usage_error(self, tmp_path, value):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            run("analyze", "--names", "a,b", "--threshold", value, "-o", str(out),
                str(tmp_path / "a"), str(tmp_path / "b"))
        assert exc.value.code == 1
        assert not out.exists()

    def test_names_mismatch_usage_error(self, tmp_path):
        enm = self._gen_graph_dir(tmp_path, "enmeshed", "e2", count=2)
        assert run("analyze", "--names", "a,b", "-o",
                   str(tmp_path / "r.json"), str(enm)) == 1


class TestTrainEvaluateCommands:
    def test_train_writes_model(self, tmp_path):
        csv_path = tmp_path / "features.csv"
        make_features_csv(csv_path)
        out = tmp_path / "model.json"
        assert run("train", str(csv_path), "--kind", "logreg", "-o", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["kind"] == "logreg" and payload["version"] == 1

    def test_evaluate_separable_rf(self, tmp_path, capsys):
        csv_path = tmp_path / "features.csv"
        make_features_csv(csv_path)
        out = tmp_path / "metrics.json"
        assert run("evaluate", str(csv_path), "--kind", "rf",
                   "--rf-trees", "15", "-o", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload["metrics"]["ar"] == 100.0
        stdout = capsys.readouterr().out
        assert "FNR" in stdout and "AR" in stdout

    def test_single_class_exits_3(self, tmp_path):
        csv_path = tmp_path / "features.csv"
        make_features_csv(csv_path, n_pos=30, n_neg=0)
        assert run("evaluate", str(csv_path), "--kind", "rf") == 3

    def test_class_smaller_than_k_exits_3(self, tmp_path):
        csv_path = tmp_path / "features.csv"
        make_features_csv(csv_path, n_pos=30, n_neg=5)
        assert run("evaluate", str(csv_path), "--kind", "logreg") == 3

    def test_golden_reports_reproducible(self, tmp_path):
        csv_path = tmp_path / "features.csv"
        make_features_csv(csv_path, n_pos=25, n_neg=25, shift=2.0, seed=9)
        outputs = {}
        for kind in ("logreg", "svm", "rf"):
            blobs = []
            for attempt in range(2):
                out = tmp_path / f"{kind}-{attempt}.json"
                assert run("evaluate", str(csv_path), "--kind", kind,
                           "--rf-trees", "10", "--seed", "11",
                           "-o", str(out)) == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1]
            outputs[kind] = blobs[0]
        assert len(set(outputs.values())) >= 2  # kinds actually differ

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("flag,value", [
        ("--rf-trees", "0"), ("--rf-min-leaf", "0"), ("--rf-max-depth", "-1"),
        ("--svm-steps", "0"), ("--logreg-epochs", "-3"), ("--rf-trees", "x"),
        ("--svm-lambda", "0"), ("--svm-lambda", "nan"), ("--logreg-lr", "-0.1"),
        ("--logreg-lr", "inf"), ("--logreg-l2", "-1e-4"), ("--logreg-l2", "nan"),
    ])
    def test_bad_hyperparameter_usage_error(self, tmp_path, command, flag, value):
        # the CSV does not exist: the flag must be rejected before it is read
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            run(command, str(tmp_path / "missing.csv"), "--kind", "rf",
                flag, value, "-o", str(out))
        assert exc.value.code == 1
        assert not out.exists()

    def test_boundary_hyperparameters_accepted(self, tmp_path):
        csv_path = tmp_path / "features.csv"
        make_features_csv(csv_path)
        out = tmp_path / "model.json"
        assert run("train", str(csv_path), "--kind", "logreg", "--logreg-l2", "0",
                   "--logreg-epochs", "1", "-o", str(out)) == 0
        assert run("train", str(csv_path), "--kind", "rf", "--rf-trees", "1",
                   "--rf-min-leaf", "1", "--rf-max-depth", "1", "-o", str(out)) == 0
        assert len(json.loads(out.read_text())["trees"]) == 1

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_non_utf8_table_exits_2(self, tmp_path, capsys, command):
        csv_path = tmp_path / "features.csv"
        csv_path.write_bytes(b"sample_id,label\n\xff\n")
        out = tmp_path / "out.json"
        assert run(command, str(csv_path), "--kind", "rf", "-o", str(out)) == 2
        assert capsys.readouterr().err == \
            "cfgrank: input error: not valid UTF-8 at byte 16\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_empty_table_exits_3(self, tmp_path, capsys, command):
        csv_path = tmp_path / "features.csv"
        csv_path.write_bytes(feat.write_feature_table([]))
        out = tmp_path / "out.json"
        assert run(command, str(csv_path), "--kind", "rf", "-o", str(out)) == 3
        assert capsys.readouterr().err == \
            "cfgrank: data error: dataset has no labeled samples\n"
        assert not out.exists()


    def test_non_finite_model_exits_3(self, tmp_path, capsys):
        # a learning rate this large overflows the weights to NaN
        csv_path = tmp_path / "features.csv"
        make_features_csv(csv_path)
        out = tmp_path / "model.json"
        assert run("train", str(csv_path), "--kind", "logreg", "--logreg-lr", "1e300",
                   "-o", str(out)) == 3
        assert capsys.readouterr().err == ("cfgrank: data error: logreg model has a NaN "
                                           "or infinite parameter; JSON cannot hold it\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_report_writer_refuses_non_finite(self, value):
        # the JSON that gen, analyze and evaluate write would not parse
        with pytest.raises(DataError, match="Out of range float"):
            _json_line({"metrics": {"ar": value}})


class TestRemovedFlags:
    @pytest.mark.parametrize("argv", [
        ("features", "graphs", "--jobs", "2", "-o", "f.csv"),
        ("analyze", "graphs", "--names", "a", "--seed", "1", "-o", "r.json"),
        ("features", "graphs", "--seed", "1", "-o", "f.csv"),
        ("ingest", "x.json", "--format", "cfg-json", "--seed", "1", "-o", "out"),
        ("evaluate", "f.csv", "--kind", "rf", "--jobs", "2"),
    ])
    def test_usage_error(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(*argv)
        assert exc.value.code == 1
        assert list(tmp_path.iterdir()) == []


class TestUnwritableOutput:
    """An -o that cannot be written is an input error on one stderr line."""

    @pytest.mark.parametrize("command",
                             ["gen", "ingest", "features", "analyze", "train", "evaluate"])
    def test_exits_2(self, tmp_path, command):
        src = tmp_path / "src.json"
        write_cfg_json(src)
        graphs = tmp_path / "graphs"
        assert run("ingest", "--format", "cfg-json", "-o", str(graphs), str(src)) == 0
        table = tmp_path / "features.csv"
        make_features_csv(table)
        (tmp_path / "file").write_text("")
        under_file = str(tmp_path / "file" / "out")
        argv = {
            "gen": ["gen", "--count", "1", "--profile", "enmeshed", "-o", under_file],
            "ingest": ["ingest", "--format", "cfg-json", "-o", under_file, str(src)],
            "features": ["features", str(graphs), "-o", str(graphs)],
            "analyze": ["analyze", str(graphs), "--names", "a", "-o", str(graphs)],
            "train": ["train", str(table), "--kind", "logreg", "-o", str(graphs)],
            "evaluate": ["evaluate", str(table), "--kind", "logreg", "-o", str(graphs)],
        }[command]
        done = run_subprocess(*argv)
        assert done.returncode == 2
        [line] = done.stderr.splitlines()
        assert line.startswith("cfgrank: input error: cannot write ")
        assert "Traceback" not in done.stderr


class TestDeeplyNestedJson:
    """JSON nested past the interpreter's recursion limit is an input error."""

    @pytest.mark.parametrize("command", ["features", "analyze", "ingest"])
    def test_exits_2(self, tmp_path, command):
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        nested = graphs / "deep.graph.json"
        nested.write_text("[" * 100000)
        out = tmp_path / "out"
        argv = {
            "features": ["features", str(graphs), "-o", str(out)],
            "analyze": ["analyze", str(graphs), "--names", "a", "-o", str(out)],
            "ingest": ["ingest", "--format", "cfg-json", "-o", str(out), str(nested)],
        }[command]
        done = run_subprocess(*argv)
        assert done.returncode == 2
        [line] = done.stderr.splitlines()
        prefix = f"error: {nested}: " if command == "ingest" else "cfgrank: input error: "
        assert line == prefix + "invalid JSON at byte offset 0: nested too deeply to parse"
        assert "Traceback" not in done.stderr
        assert not out.exists()


class TestDivergedLinearModel:
    """A learning rate that overflows the weights is a data error, with no
    numpy warning on the way."""

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_exits_3(self, tmp_path, command):
        table = tmp_path / "features.csv"
        make_features_csv(table)
        out = tmp_path / "out.json"
        done = run_subprocess(command, str(table), "--kind", "logreg", "--logreg-lr", "1e300",
                              *(["--k", "4"] if command == "evaluate" else []), "-o", str(out))
        assert done.returncode == 3
        assert done.stderr.splitlines() == [
            "cfgrank: data error: logreg model has a NaN or infinite parameter; "
            "JSON cannot hold it"]
        assert done.stdout == ""
        assert not out.exists()


class TestDeterminism:
    def test_every_subcommand_byte_identical(self, tmp_path):
        src = tmp_path / "src.json"
        write_cfg_json(src, sample_id="d")
        for run_id in ("r1", "r2"):
            base = tmp_path / run_id
            run("ingest", "--format", "cfg-json", "-o", str(base / "graphs"), str(src))
            run("gen", "--count", "4", "--profile", "fragmented", "--seed", "3",
                "-o", str(base / "gen"))
            run("ingest", "--format", "sbc", "-o", str(base / "gen-graphs"),
                *sorted(str(p) for p in (base / "gen").glob("*.sbc")))
            run("features", str(base / "gen-graphs"), "--label", "malicious",
                "-o", str(base / "features.csv"))
            run("analyze", "--names", "a", "-o", str(base / "report.json"),
                str(base / "gen-graphs"))
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        files1 = sorted(p.relative_to(r1) for p in r1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(r2) for p in r2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (r1 / rel).read_bytes() == (r2 / rel).read_bytes()


class TestBlasThreads:
    """Importing the CLI caps OpenBLAS at one thread unless the user chose."""

    def import_cli(self, **env):
        base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        base["PYTHONPATH"] = str(Path(cfgrank.__file__).resolve().parents[1])
        code = ("import os, cfgrank.cli; "
                "task = '/proc/self/task'; "
                "print(os.environ['OPENBLAS_NUM_THREADS'], "
                "len(os.listdir(task)) if os.path.isdir(task) else -1)")
        done = subprocess.run([sys.executable, "-c", code], env={**base, **env},
                              capture_output=True, text=True, timeout=60, check=True)
        value, threads = done.stdout.split()
        return value, int(threads)

    def test_unset_becomes_one_thread(self):
        value, threads = self.import_cli()
        assert value == "1"
        assert threads in (1, -1)  # -1: no /proc to count threads in

    def test_user_value_kept(self):
        value, _ = self.import_cli(OPENBLAS_NUM_THREADS="3")
        assert value == "3"
