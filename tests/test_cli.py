import csv
import importlib
import io
import json
import logging
import os
import pkgutil
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfgrank
from cfgrank import features as feat
from cfgrank import DataError, cli, ingest, json_line, learn, metrics, sbc
from cfgrank.cli import main
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


UNSAFE_SAMPLE_IDS = [
    "../escaped", "", ".", "..", "a/b", "a\\b", "a\0b", "/abs",
    # 256 bytes with ".graph.json"; a lone surrogate has no UTF-8 encoding
    pytest.param("x" * 245, id="x*245"), pytest.param("a\ud800", id="lone-surrogate")]


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

    @pytest.mark.parametrize("sample_id", UNSAFE_SAMPLE_IDS)
    def test_unsafe_sample_id_exits_2(self, tmp_path, capsys, sample_id):
        write_cfg_json(tmp_path / "in.json", sample_id=sample_id)
        out = tmp_path / "out" / "graphs"
        assert run("ingest", "--format", "cfg-json", "-o", str(out),
                   str(tmp_path / "in.json")) == 2
        assert "is not a safe file name" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["in.json"]

    @pytest.mark.parametrize("sample_id", UNSAFE_SAMPLE_IDS)
    def test_unsafe_sample_id_keep_going(self, tmp_path, capsys, sample_id):
        write_cfg_json(tmp_path / "bad.json", sample_id=sample_id)
        write_cfg_json(tmp_path / "good.json", sample_id="good")
        out = tmp_path / "graphs"
        assert run("ingest", "--format", "cfg-json", "-o", str(out), "--keep-going",
                   str(tmp_path / "bad.json"), str(tmp_path / "good.json")) == 0
        captured = capsys.readouterr()
        assert "parsed 1 failed 1" in captured.out
        [line] = captured.err.splitlines()
        assert line.startswith("failed: ") and "is not a safe file name" in line
        assert sorted(p.name for p in tmp_path.rglob("*.graph.json")) == ["good.graph.json"]

    def test_non_utf8_file_name_exits_2(self, tmp_path):
        # an edge list's sample_id is its file name, here with a byte that is no UTF-8
        src = tmp_path / (os.fsdecode(b"bad\xff") + ".edges")
        src.write_text("0 1\n")
        code, err = run_captured(["ingest", "--format", "edgelist", "-o", str(tmp_path / "out"),
                                  str(src)])
        assert code == 2 and "is not a safe file name" in err
        assert not (tmp_path / "out").exists()

    def test_longest_sample_id_written(self, tmp_path):
        # 244 bytes and ".graph.json" make the longest file name most systems allow
        write_cfg_json(tmp_path / "in.json", sample_id="x" * 244)
        out = tmp_path / "graphs"
        assert run("ingest", "--format", "cfg-json", "-o", str(out), str(tmp_path / "in.json")) == 0
        assert [p.name for p in out.iterdir()] == ["x" * 244 + ".graph.json"]

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
        assert largest_component(g).counts[0] >= 2

    def test_zero_count_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("gen", "--count", "0", "--profile", "enmeshed", "-o", str(tmp_path / "z"))
        assert exc.value.code == 1
        assert not (tmp_path / "z").exists()

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

    def test_graph_dir_lists_what_glob_lists(self, tmp_path, capsys):
        # dotfiles and a directory match too, names sort as str (upper case
        # first), and the first offender in that order is the one reported
        graphs_dir = tmp_path / "graphs"
        (graphs_dir / "x.graph.json").mkdir(parents=True)
        for name in ("b.graph.json", ".h.graph.json", ".graph.json", "B.graph.json",
                     "a b.graph.json", "\u00e9.graph.json", "a.graph.json.bak", "c.txt",
                     "a.GRAPH.json"):
            (graphs_dir / name).write_text("{broken")
        paths = cli._graph_paths(graphs_dir)
        assert paths == sorted(graphs_dir.glob("*.graph.json"))
        assert [p.name for p in paths] == [".graph.json", ".h.graph.json", "B.graph.json",
                                           "a b.graph.json", "b.graph.json", "x.graph.json",
                                           "\u00e9.graph.json"]
        assert cli._graph_paths(tmp_path / "missing") == []
        assert cli._graph_paths(graphs_dir / "c.txt") == []
        assert run("features", str(graphs_dir), "-o", str(tmp_path / "f.csv")) == 2
        assert capsys.readouterr().err.startswith(
            f"cfgrank: input error: {graphs_dir / '.graph.json'}: ")

    def test_invalid_graph_exits_2(self, tmp_path):
        graphs_dir = tmp_path / "graphs"
        graphs_dir.mkdir()
        (graphs_dir / "x.graph.json").write_text("{broken")
        assert run("features", str(graphs_dir), "-o", str(tmp_path / "f.csv")) == 2

    def test_dangling_edge_exits_2(self, tmp_path, capsys):
        graphs_dir = write_dangling_graph(tmp_path)
        assert run("features", str(graphs_dir), "-o", str(tmp_path / "f.csv")) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"cfgrank: input error: {graphs_dir / 'd.graph.json'}: "
                                    "edge endpoint address 99 does not match any block"]
        assert not (tmp_path / "f.csv").exists()

    def test_lone_surrogate_sample_id_exits_2(self, tmp_path, capsys):
        graphs_dir = tmp_path / "graphs"
        graphs_dir.mkdir()
        (graphs_dir / "s.graph.json").write_text(
            '{"sample_id": "a\\ud800", "nodes": [{"addr": 0, "size": 4, "ninstr": 1}], "edges": []}')
        assert run("features", str(graphs_dir), "-o", str(tmp_path / "f.csv")) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"cfgrank: input error: {graphs_dir / 's.graph.json'}: "
            "field '<root>.sample_id': 'a\\ud800' is not encodable as UTF-8"]
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
        assert err.splitlines() == [f"cfgrank: input error: {graphs_dir / 'd.graph.json'}: "
                                    "edge endpoint address 99 does not match any block"]
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

    @pytest.mark.parametrize("names, message", [
        ("", "a corpus name is empty"),
        ("a,", "a corpus name is empty"),
        ("a,a", "'a' is given twice"),
        # what Python makes of the argv bytes b"x\xff"
        ("x\udcff", "'x\\udcff' is not valid UTF-8"),
    ])
    def test_bad_names_usage_error(self, tmp_path, capsys, names, message):
        # the directories do not exist: the names are checked before any is read
        dirs = [str(tmp_path / f"missing{i}") for i in range(names.count(",") + 1)]
        out = tmp_path / "r.json"
        assert run("analyze", "--names", names, "-o", str(out), *dirs) == 1
        assert capsys.readouterr().err.splitlines() == [f"cfgrank: usage error: --names: {message}"]
        assert not out.exists()

    def test_undecodable_name_in_argv(self, tmp_path):
        done = run_subprocess("analyze", "--names", b"x\xff", "-o", str(tmp_path / "r.json"),
                              str(tmp_path / "missing"))
        assert done.returncode == 1
        assert done.stderr.splitlines() == [
            "cfgrank: usage error: --names: 'x\\udcff' is not valid UTF-8"]


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

    def test_huge_k_exits_3_before_allocating_folds(self, tmp_path):
        csv_path = tmp_path / "features.csv"
        make_features_csv(csv_path)
        assert run("evaluate", str(csv_path), "--kind", "rf", "--k", str(10 ** 12)) == 3

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
        ("--seed", "-1"),
    ])
    def test_bad_hyperparameter_usage_error(self, tmp_path, command, flag, value):
        # the CSV does not exist: the flag must be rejected before it is read
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            run(command, str(tmp_path / "missing.csv"), "--kind", "rf",
                flag, value, "-o", str(out))
        assert exc.value.code == 1
        assert not out.exists()

    @pytest.mark.parametrize("k", ["1", "0", "x"])
    def test_bad_k_usage_error(self, tmp_path, k):
        # the CSV does not exist: --k must be rejected before it is read
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            run("evaluate", str(tmp_path / "missing.csv"), "--kind", "rf", "--k", k,
                "-o", str(out))
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

    def test_rf_splits_between_adjacent_floats(self, tmp_path):
        # the midpoint of the two values rounds up to the upper one
        csv_path = tmp_path / "features.csv"
        csv_path.write_bytes(feat.write_feature_table([
            feat.FeatureVector(f"s{i}", (value,) + (0.5,) * 22, label)
            for i, (value, label) in enumerate([(1.0000000000000002, "malicious")] * 6
                                               + [(1.0000000000000004, "benign")] * 6)]))
        out = tmp_path / "model.json"
        assert run_captured(["train", str(csv_path), "--kind", "rf", "--rf-trees", "3",
                             "-o", str(out)]) == (0, "")
        split = [tree for tree in json.loads(out.read_text())["trees"] if "leaf" not in tree]
        assert split == [{"feature": 0, "threshold": 1.0000000000000002,
                          "left": {"leaf": 1.0}, "right": {"leaf": 0.0}}]

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
            json_line({"metrics": {"ar": value}})


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


class TestWrite:
    """cli._write makes a directory only when a write finds it missing,
    and fails with the message of a mkdir before every write."""

    @staticmethod
    def mkdir_then_write(path: Path, data: bytes) -> str:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        except OSError as e:
            return f"cannot write {path}: {e.strerror}"
        return ""

    @staticmethod
    def write(path: Path, data: bytes) -> str:
        try:
            cli._write(path, data)
        except cfgrank.InputError as e:
            return str(e)
        return ""

    @pytest.mark.parametrize("target", ["new/dirs/a.json", "file/a.json", "file/sub/a.json",
                                        "dir", "dir/a.json"])
    def test_same_outcome_as_mkdir_then_write(self, tmp_path, target):
        outcomes = {}
        for side, write in (("old", self.mkdir_then_write), ("new", self.write)):
            root = tmp_path / side
            (root / "dir").mkdir(parents=True)
            (root / "file").write_text("")
            message = write(root / target, b"x\n").replace(str(root), "ROOT")
            outcomes[side] = message, sorted(str(p.relative_to(root)) for p in root.rglob("*"))
        assert outcomes["old"] == outcomes["new"]

    def test_a_second_write_finds_the_directory(self, tmp_path, monkeypatch):
        made, mkdir = [], Path.mkdir

        def spy(self, *args, **kwargs):
            made.append(self)
            return mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", spy)
        for name in ("a.json", "b.json"):
            cli._write(tmp_path / "out" / name, b"x\n")
        assert made == [tmp_path / "out"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["a.json", "b.json"]


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
        assert line == (f"cfgrank: input error: {nested}: "
                        "invalid JSON at byte offset 0: nested too deeply to parse")
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


def run_captured(argv):
    """main(argv) in this process: (exit code, stderr). An exception that
    escapes main fails the calling test. cfgrank's warnings reach stderr as
    through logging's last-resort handler, which pytest's own log handlers
    would otherwise stand in for."""
    err = io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setLevel(logging.WARNING)
    logging.getLogger("cfgrank").addHandler(handler)
    try:
        with redirect_stderr(err), redirect_stdout(io.StringIO()):
            code = main(argv)
    finally:
        logging.getLogger("cfgrank").removeHandler(handler)
    return code, err.getvalue()


def files_under(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


# an edge-list token: a label, a non-ASCII digit that int() reads or
# refuses, or something that is no label at all
EDGE_TOKENS = st.one_of(
    st.integers(0, 2 ** 70).map(str),
    st.sampled_from(["²", "³", "٣", "০", "０", "-1", "+1", "1_0", "1.5", " ", "", "#",
                     ":", "\t", "\x00", "x"]),
    st.text(max_size=3))


@st.composite
def edge_list_files(draw):
    lines = []
    for tokens in draw(st.lists(st.lists(EDGE_TOKENS, max_size=3), max_size=6)):
        line = " ".join(tokens)
        lines.append(line + ":" if draw(st.booleans()) and len(tokens) == 1 else line)
    data = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode()
    if draw(st.sampled_from((False,) * 9 + (True,))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


# a features-CSV field: a number that the table can hold, one at an end of
# the float range, or text that is no finite number, now and then longer
# than csv.field_size_limit()
CSV_FIELDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1.7976931348623157e308", "-1.7976931348623157e308", "5e-324"]),
    st.sampled_from(["1e400", "nan", "-inf", "", "x", "1" * 400, '"', "a,b", "\x00", "\r",
                     "9" * (csv.field_size_limit() + 1)]),
    st.text(max_size=4))


@st.composite
def feature_tables(draw):
    """A features CSV of up to 8 rows, labeled in turn, with up to three
    fields replaced and now and then a mangled header, a field too many or
    an extra byte."""
    header = ["sample_id", *feat.FEATURE_NAMES, "label"]
    if draw(st.sampled_from((False,) * 9 + (True,))):
        header = draw(st.lists(st.sampled_from(header + ["x"]), max_size=26))
    rows = [[f"s{i}", *(str(i) for _ in feat.FEATURE_NAMES), ("malicious", "benign")[i % 2]]
            for i in range(draw(st.sampled_from((8, 8, 6, 4, 3, 0))))]
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        fields = rows[draw(st.integers(0, len(rows) - 1))]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(CSV_FIELDS)
    if rows and draw(st.sampled_from((False,) * 9 + (True,))):
        rows[-1].append("0")
    data = "\n".join(",".join(fields) for fields in [header, *rows]).encode()
    if draw(st.sampled_from((False,) * 9 + (True,))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b'"', b"\r", b"\n"))) + data[at:]
    return data


# cfg-json addresses: small enough that a target often matches a block, or
# past the int64 range; and values that are no non-negative integer at all
CFG_JSON_ADDRS = st.one_of(st.integers(0, 12), st.sampled_from([2 ** 63, 2 ** 64 + 1]))
CFG_JSON_BAD = st.sampled_from([-1, True, 1.5, "4", [], {}, None])
CFG_JSON_IDS = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["", ".", "..", "a/b", "a\\b", "a\0b", "x" * 245, "a\ud800", 7]))


@st.composite
def cfg_json_files(draw):
    """A cfg-json document of one to three functions of one to four blocks
    at distinct addresses, whose targets may match no block; now and then a
    field is missing or of the wrong type, or the bytes get an extra byte
    or are cut."""
    def fields(**good):
        # about one field in thirty is missing (None) or of the wrong type
        drawn = {name: draw(CFG_JSON_BAD if draw(st.integers(0, 29)) == 0 else strategy)
                 for name, strategy in good.items()}
        return {name: v for name, v in drawn.items() if v is not None or name in ("jump", "fail")}

    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    addrs = iter(draw(st.lists(CFG_JSON_ADDRS, min_size=sum(sizes), max_size=sum(sizes),
                               unique=True)))
    functions = []
    for size in sizes:
        own = [next(addrs) for _ in range(size)]
        blocks = [fields(addr=st.just(addr), size=CFG_JSON_ADDRS, ninstr=CFG_JSON_ADDRS,
                         jump=st.none() | CFG_JSON_ADDRS, fail=st.none() | CFG_JSON_ADDRS,
                         calls=st.lists(CFG_JSON_ADDRS, max_size=2))
                  for addr in own]
        functions.append(fields(name=st.just("f"), entry=st.sampled_from(own),
                                blocks=st.just(blocks)))
    data = json.dumps(fields(sample_id=CFG_JSON_IDS, functions=st.just(functions))).encode()
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from((b"\xff", b"", b"[" * 2000))) \
            + (b"" if draw(st.booleans()) else data[at:])
    return data


class TestFuzzedInputs:
    """Generated edge lists, cfg-json documents and feature tables through
    main: exit 0, 2 or 3, at most one stderr line and no traceback, and
    nothing written outside -o (nothing at all on failure)."""

    @settings(max_examples=200, deadline=None)
    @given(edge_list_files(), st.booleans())
    @example("² 1".encode(), False)
    @example("² 1".encode(), True)
    def test_edge_list_ingest(self, data, keep_going):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "in").mkdir()
            (root / "in" / "g.edges").write_bytes(data)
            code, err = run_captured(["ingest", "--format", "edgelist", "-o", str(root / "out"),
                                      *(["--keep-going"] if keep_going else []),
                                      str(root / "in" / "g.edges")])
            assert code in (0, 2, 3)
            assert len(err.splitlines()) <= 1 and "Traceback" not in err
            written = ["out/g.graph.json"] if code == 0 and not err else []
            assert files_under(root) == ["in/g.edges", *written]

    @settings(max_examples=300, deadline=None)
    @given(cfg_json_files(), st.booleans())
    # a dropped edge's warning, then the unsafe sample_id's error: two lines
    @example(b'{"sample_id": "", "functions": [{"name": "f", "entry": 0, "blocks": '
             b'[{"addr": 0, "fail": 1}]}]}', False)
    @example(b'{"sample_id": "", "functions": [{"name": "f", "entry": 0, "blocks": '
             b'[{"addr": 0, "fail": 1}]}]}', True)
    # a line break in the sample_id that the dropped-edge warning quotes
    @example(b'{"sample_id": "\\u0085", "functions": [{"name": "f", "entry": 0, "blocks": '
             b'[{"addr": 0, "calls": [1]}]}]}', False)
    def test_cfg_json_ingest(self, data, keep_going):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "in").mkdir()
            (root / "in" / "g.json").write_bytes(data)
            code, err = run_captured(["ingest", "--format", "cfg-json", "-o", str(root / "out"),
                                      *(["--keep-going"] if keep_going else []),
                                      str(root / "in" / "g.json")])
            assert code in (0, 2, 3)
            assert len(err.splitlines()) <= 1 and "Traceback" not in err
            written = [p for p in files_under(root) if p != "in/g.json"]
            if code == 0 and not err.startswith("failed: "):
                [path] = written
                sample_id = ingest.parse_canonical((root / path).read_bytes()).sample_id
                assert path == f"out/{sample_id}.graph.json"
            else:
                assert written == []

    @settings(max_examples=200, deadline=None)
    @given(feature_tables(), st.sampled_from(learn.KINDS))
    @example(b"sample_id\n" + b"9" * 131073, "rf")
    def test_features_csv_evaluate(self, data, kind):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            (root / "f.csv").write_bytes(data)
            code, err = run_captured(["evaluate", str(root / "f.csv"), "--kind", kind,
                                      "--k", "2", "--rf-trees", "3", "--logreg-epochs", "20",
                                      "--svm-steps", "50", "-o", str(root / "out.json")])
            assert code in (0, 2, 3)
            assert len(err.splitlines()) <= 1 and "Traceback" not in err
            written = ["out.json"] if code == 0 else []
            assert files_under(root) == sorted(["f.csv", *written])


class TestOneLineErrors:
    """The inputs that used to end in a traceback, and values too long to
    quote, each give one stderr line."""

    @pytest.mark.parametrize("keep_going", [False, True])
    def test_superscript_edge_label(self, tmp_path, keep_going):
        src = tmp_path / "g.edges"
        src.write_text("² 1\n")
        code, err = run_captured(["ingest", "--format", "edgelist", "-o", str(tmp_path / "out"),
                                  *(["--keep-going"] if keep_going else []), str(src)])
        line = f"{src}: malformed line 1: '² 1'"
        assert (code, err) == ((0, f"failed: {line}\n") if keep_going
                               else (2, f"cfgrank: input error: {line}\n"))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_field_over_csv_limit(self, tmp_path, command):
        table = tmp_path / "features.csv"
        make_features_csv(table)
        with table.open("a") as f:
            f.write("x," + "9" * (csv.field_size_limit() + 1) + "\n")
        out = tmp_path / "out.json"
        assert run_captured([command, str(table), "--kind", "rf", "-o", str(out)]) == (
            2, f"cfgrank: input error: line 62: field larger than field limit "
               f"({csv.field_size_limit()})\n")
        assert not out.exists()

    @pytest.mark.parametrize("addr", ["[" * 980 + "]" * 980, '"' + "x" * 2 ** 20 + '"'],
                             ids=["nested-980", "1MB-string"])
    def test_long_canonical_value(self, tmp_path, addr):
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        (graphs / "a.graph.json").write_text(
            '{"sample_id": "a", "nodes": [{"addr": ' + addr + ', "size": 0, "ninstr": 0}], '
            '"edges": []}')
        done = run_subprocess("features", str(graphs), "-o", str(tmp_path / "f.csv"))
        assert done.returncode == 2
        [line] = done.stderr.splitlines()
        assert line.startswith(f"cfgrank: input error: {graphs / 'a.graph.json'}: "
                               "field 'nodes[0].addr': expected integer")
        assert len(line) < 300 + len(str(graphs))

    def test_long_values_elsewhere(self, tmp_path):
        long = "7" * 2 ** 20
        (tmp_path / "g.edges").write_text(f"1 2 {long}\n")
        (tmp_path / "in.json").write_text(json.dumps({"sample_id": "/" + long, "functions": [
            {"name": "f", "entry": 0, "blocks": [{"addr": 0}]}]}))
        (tmp_path / "f.csv").write_text(",".join(["sample_id", *feat.FEATURE_NAMES, "label"])
                                        + "\nx," + ",".join(["0"] * 23) + ",m" + long[:100000])
        for argv in (["ingest", "--format", "edgelist", "-o", str(tmp_path / "o"),
                      str(tmp_path / "g.edges")],
                     ["ingest", "--format", "cfg-json", "-o", str(tmp_path / "o"),
                      str(tmp_path / "in.json")],
                     ["evaluate", str(tmp_path / "f.csv"), "--kind", "rf"]):
            code, err = run_captured(argv)
            assert code == 2
            assert len(err.splitlines()) == 1 and len(err) < 300 + len(str(tmp_path))

    def test_integer_too_long(self, tmp_path):
        graphs = tmp_path / "graphs"
        graphs.mkdir()
        (graphs / "a.graph.json").write_text('{"sample_id": "a", "nodes": [{"addr": '
                                             + "1" * 5000 + ', "size": 0, "ninstr": 0}]}')
        assert run_captured(["features", str(graphs), "-o", str(tmp_path / "f.csv")]) == (
            2, f"cfgrank: input error: {graphs / 'a.graph.json'}: invalid JSON at byte "
               "offset 0: integer with too many digits to parse\n")


class TestUnreadableInputs:
    """A path that cannot be read is one `cannot read` input error."""

    @pytest.mark.parametrize("case", ["missing-csv", "graph-dir-entry", "ingest-dir"])
    def test_exits_2(self, tmp_path, case):
        out = tmp_path / "out"
        graphs = tmp_path / "graphs"
        (graphs / "x.graph.json").mkdir(parents=True)
        unreadable, argv = {
            "missing-csv": (tmp_path / "missing.csv",
                            ["evaluate", str(tmp_path / "missing.csv"), "--kind", "rf",
                             "-o", str(out)]),
            "graph-dir-entry": (graphs / "x.graph.json",
                                ["features", str(graphs), "-o", str(out)]),
            "ingest-dir": (graphs, ["ingest", "--format", "edgelist", "-o", str(out),
                                    str(graphs)]),
        }[case]
        done = run_subprocess(*argv)
        assert done.returncode == 2
        [line] = done.stderr.splitlines()
        assert line.startswith(f"cfgrank: input error: cannot read {unreadable}: ")
        assert not out.exists()

    def test_keep_going_counts_it_failed(self, tmp_path):
        (tmp_path / "g.edges").write_text("0 1\n")
        code, err = run_captured(["ingest", "--format", "edgelist", "-o", str(tmp_path / "out"),
                                  "--keep-going", str(tmp_path), str(tmp_path / "g.edges")])
        assert code == 0
        assert err.startswith(f"failed: cannot read {tmp_path}: ")
        assert files_under(tmp_path / "out") == ["g.graph.json"]


def test_every_error_is_a_cfgrank_error():
    """Every exception class that a cfgrank module defines is a CfgrankError,
    except metrics' guard on an invariant that no input can break."""
    modules = [importlib.import_module(f"cfgrank.{m.name}")
               for m in pkgutil.iter_modules(cfgrank.__path__)]
    defined = {obj for mod in [cfgrank, *modules] for obj in vars(mod).values()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == mod.__name__}
    assert metrics.DisconnectedGraphError in defined and len(defined) > 10
    assert {c for c in defined if not issubclass(c, cfgrank.CfgrankError)} == {
        metrics.DisconnectedGraphError}
    assert {(c.kind, c.exit_code) for c in (cfgrank.UsageError, cfgrank.InputError,
                                             cfgrank.DataError)} == {
        ("usage", 1), ("input", 2), ("data", 3)}
