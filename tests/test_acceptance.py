"""Acceptance gate: one criterion per test class, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import json
import random
import time

import numpy as np
import pytest

from cfgrank import features as feat
from cfgrank import ingest, learn, metrics, report, sbc
from cfgrank.cli import main as cli_main
from cfgrank.graph import largest_component
from cfgrank.sbc import Opcode, SbcInstruction
from oracles import (PathStats, all_pairs_distances, brute_betweenness, brute_closeness, components,
                     random_cfg, random_connected_cfg, self_loop_nodes, summary_stats, sweeps)


def ok(criterion, detail=""):
    print(f"[acceptance] criterion {criterion}: PASS {detail}".rstrip())


TABLE1 = {
    # kind: (tp, fn, fp, tn), (fnr, fpr, fdr, for, f1, ar) as published
    "lr": ((16.6, 6.7, 9.5, 228.0), (28.5, 4.0, 36.3, 2.9, 67.0, 93.8)),
    "svm": ((22.3, 6.1, 3.8, 228.6), (20.7, 1.6, 14.5, 2.6, 81.8, 96.2)),
    "rf": ((23.6, 3.1, 2.5, 231.6), (11.6, 1.1, 9.6, 1.3, 89.5, 97.9)),
}


class TestCriterion1MetricReproduction:
    def _report(self, cells):
        return learn.compute_metrics(learn.ConfusionMatrix(*cells))

    def test_rf_row_tight(self):
        start = time.perf_counter()
        r = self._report(TABLE1["rf"][0])
        elapsed = time.perf_counter() - start
        fnr, fpr, fdr, for_, f1, ar = TABLE1["rf"][1]
        assert r.fnr == pytest.approx(fnr, abs=0.15)
        assert r.fpr == pytest.approx(fpr, abs=0.15)
        assert r.fdr == pytest.approx(fdr, abs=0.15)
        assert r.for_ == pytest.approx(for_, abs=0.15)
        assert r.ar == pytest.approx(ar, abs=0.15)
        assert r.f1 == pytest.approx(f1, abs=0.3)
        assert elapsed < 1e-3
        ok(1, f"(RF row, {elapsed * 1e6:.0f}us)")

    @pytest.mark.parametrize("kind", ["lr", "svm"])
    def test_lr_svm_rows(self, kind):
        r = self._report(TABLE1[kind][0])
        fnr, fpr, fdr, for_, f1, ar = TABLE1[kind][1]
        assert r.fpr == pytest.approx(fpr, abs=0.3)
        assert r.fdr == pytest.approx(fdr, abs=0.3)
        assert r.for_ == pytest.approx(for_, abs=0.3)
        assert r.f1 == pytest.approx(f1, abs=0.3)
        assert r.ar == pytest.approx(ar, abs=0.3)
        if kind == "lr":
            assert r.fnr == pytest.approx(fnr, abs=0.3)
        ok(1, f"({kind.upper()} row)")

    @pytest.mark.xfail(
        strict=True,
        reason="published SVM FNR (20.7) is inconsistent with the published "
               "confusion matrix: 100*6.1/(6.1+22.3) = 21.48")
    def test_svm_fnr_as_published(self):
        r = self._report(TABLE1["svm"][0])
        assert r.fnr == pytest.approx(20.7, abs=0.3)


class TestCriterion2OracleEquivalence:
    def test_500_random_graphs(self):
        start = time.perf_counter()
        rng = random.Random(20240)
        for trial in range(500):
            n = rng.randint(1, 9)
            g = random_connected_cfg(rng, n, rng.randint(0, 6),
                                     sample_id=f"t{trial}")
            adj = g.undirected_adjacency()
            [swept] = sweeps([adj])
            got_b = swept.betweenness()
            exp_b = brute_betweenness(g)
            got_c = swept.closeness
            exp_c = brute_closeness(g)
            for u in range(n):
                assert abs(got_b[u] - exp_b[u]) <= 1e-12
                assert abs(got_c[u] - exp_c[u]) <= 1e-12
            got_d = metrics.degree_scores(components([adj], [self_loop_nodes(g)])).tolist()
            nbrs = [set() for _ in range(n)]
            for u, v in g.edges:
                if u != v:
                    nbrs[u].add(v)
                    nbrs[v].add(u)
            loops = {u for u, v in g.edges if u == v}
            for u in range(n):
                direct = 0.0 if n == 1 else \
                    (len(nbrs[u]) + (1 if u in loops else 0)) / (n - 1)
                assert abs(got_d[u] - direct) <= 1e-12
            got_s = swept.path_stats()
            if n == 1:
                assert got_s == PathStats(0, 0, 0, 0, 0)
            else:
                dist = all_pairs_distances(g)
                values = [float(dist[(u, v)]) for u in range(n)
                          for v in range(u + 1, n)]
                exp_s = summary_stats(values)
                for f in ("min", "max", "mean", "median", "std"):
                    assert abs(getattr(got_s, f) - getattr(exp_s, f)) <= 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 30
        ok(2, f"(500 graphs, {elapsed:.1f}s)")


class TestCriterion3ComponentPhenomenon:
    def test_profiles_and_threshold_rule(self):
        start = time.perf_counter()
        frag = [sbc.recover_cfg(p, f"f{i}")
                for i, p in enumerate(sbc.generate_corpus(100, "fragmented", 71))]
        enm = [sbc.recover_cfg(p, f"e{i}")
               for i, p in enumerate(sbc.generate_corpus(100, "enmeshed", 71))]
        assert all(largest_component(g).counts[0] >= 2 for g in frag)
        assert all(largest_component(g).counts[0] == 1 for g in enm)
        stats_f = report.corpus_stats(frag, "fragmented")
        stats_e = report.corpus_stats(enm, "enmeshed")
        summary = report.compare(stats_e, stats_f, 0.2)
        assert summary.rule_accuracy >= 0.9
        elapsed = time.perf_counter() - start
        assert elapsed < 60
        ok(3, f"(rule accuracy {summary.rule_accuracy:.2f}, {elapsed:.1f}s)")


class TestCriterion4ClassifierSanity:
    def test_rf_on_imbalanced_gaussians(self):
        start = time.perf_counter()
        rng = random.Random(404)
        rows = []
        for i in range(2000):
            rows.append(feat.FeatureVector(
                f"m{i}", tuple(rng.gauss(1.5, 1.0) for _ in range(23)),
                "malicious"))
        for i in range(250):
            rows.append(feat.FeatureVector(
                f"b{i}", tuple(rng.gauss(0.0, 1.0) for _ in range(23)),
                "benign"))
        data = learn.LabeledDataset(tuple(rows))
        _, r = learn.cross_validate("rf", data, k=10, seed=17)
        assert r.ar >= 95.0
        assert r.fpr <= 5.0
        elapsed = time.perf_counter() - start
        assert elapsed < 120
        ok(4, f"(AR {r.ar:.1f}, FPR {r.fpr:.1f}, {elapsed:.0f}s)")

    def test_logreg_gradient_finite_differences(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(60, 23))
        y = rng.integers(0, 2, size=60)
        w = rng.normal(size=23) * 0.3
        b = -0.2
        _, grad_w, grad_b = learn.logreg_loss_and_grad(w, b, X, y, 1e-4)
        h = 1e-5
        for j in range(23):
            e = np.zeros(23)
            e[j] = h
            fd = (learn.logreg_loss_and_grad(w + e, b, X, y, 1e-4)[0]
                  - learn.logreg_loss_and_grad(w - e, b, X, y, 1e-4)[0]) / (2 * h)
            assert abs(grad_w[j] - fd) <= 1e-6 * max(1.0, abs(fd))
        fd_b = (learn.logreg_loss_and_grad(w, b + h, X, y, 1e-4)[0]
                - learn.logreg_loss_and_grad(w, b - h, X, y, 1e-4)[0]) / (2 * h)
        assert abs(grad_b - fd_b) <= 1e-6 * max(1.0, abs(fd_b))
        ok(4, "(gradient check)")


class TestCriterion5CliDeterminism:
    def test_all_subcommands_byte_identical(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({
            "sample_id": "d",
            "functions": [{"name": "f", "entry": 0, "blocks": [
                {"addr": 0, "size": 4, "ninstr": 1, "jump": 8, "fail": 4, "calls": []},
                {"addr": 4, "size": 4, "ninstr": 1, "jump": None, "fail": None, "calls": []},
                {"addr": 8, "size": 4, "ninstr": 1, "jump": None, "fail": None, "calls": []},
            ]}]}))
        for run_id in ("r1", "r2"):
            base = tmp_path / run_id
            assert cli_main(["ingest", "--format", "cfg-json",
                             "-o", str(base / "graphs"), str(src)]) == 0
            assert cli_main(["gen", "--count", "30", "--profile", "fragmented",
                             "--seed", "5", "-o", str(base / "frag")]) == 0
            assert cli_main(["gen", "--count", "30", "--profile", "enmeshed",
                             "--seed", "5", "-o", str(base / "enm")]) == 0
            for corpus in ("frag", "enm"):
                assert cli_main(["ingest", "--format", "sbc",
                                 "-o", str(base / f"{corpus}-graphs"),
                                 *sorted(str(p) for p in (base / corpus).glob("*.sbc"))]) == 0
            label = {"frag": "malicious", "enm": "benign"}
            for corpus in ("frag", "enm"):
                assert cli_main(["features", str(base / f"{corpus}-graphs"),
                                 "--label", label[corpus],
                                 "-o", str(base / f"{corpus}.csv")]) == 0
            merged = feat.parse_feature_table((base / "frag.csv").read_bytes()) \
                + feat.parse_feature_table((base / "enm.csv").read_bytes())
            (base / "all.csv").write_bytes(feat.write_feature_table(merged))
            assert cli_main(["analyze", "--names", "a,b",
                             "-o", str(base / "report.json"),
                             str(base / "frag-graphs"), str(base / "enm-graphs")]) == 0
            assert cli_main(["train", str(base / "all.csv"), "--kind", "logreg",
                             "--seed", "5", "-o", str(base / "model.json")]) == 0
            assert cli_main(["evaluate", str(base / "all.csv"), "--kind", "rf",
                             "--rf-trees", "10", "--seed", "5",
                             "-o", str(base / "metrics.json")]) == 0
        r1, r2 = tmp_path / "r1", tmp_path / "r2"
        files = sorted(p.relative_to(r1) for p in r1.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(r2) for p in r2.rglob("*") if p.is_file())
        for rel in files:
            assert (r1 / rel).read_bytes() == (r2 / rel).read_bytes(), rel
        ok(5, f"({len(files)} files byte-identical)")


class TestCriterion6RoundTrips:
    def test_200_randomized_instances(self):
        rng = random.Random(66)
        for trial in range(200):
            g = random_cfg(rng, rng.randint(1, 15), rng.randint(0, 25),
                           sample_id=f"g{trial}")
            assert ingest.parse_canonical(ingest.write_canonical(g)) == g
            rows = [feat.FeatureVector(
                f"s{trial}-{j}",
                tuple(rng.uniform(-1e6, 1e6) for _ in range(23)),
                rng.choice([None, "malicious", "benign"]))
                for j in range(rng.randint(0, 5))]
            assert feat.parse_feature_table(feat.write_feature_table(rows)) == rows
        ok(6, "(200 graph + 200 table round trips)")


class TestCriterion7SbcHandTraces:
    def test_branch_jump_program(self):
        p = (
            SbcInstruction(Opcode.BR, 3),
            SbcInstruction(Opcode.OP),
            SbcInstruction(Opcode.JMP, 4),
            SbcInstruction(Opcode.OP),
            SbcInstruction(Opcode.RET),
        )
        g = sbc.recover_cfg(p)
        assert [(b.address, b.instr_count) for b in g.blocks] == \
            [(0, 1), (1, 2), (3, 1), (4, 1)]
        assert set(g.edges) == {(0, 2), (0, 1), (1, 3), (2, 3)}
        assert (g.node_count, g.edge_count) == (4, 4)
        assert largest_component(g).counts[0] == 1

    def test_dead_code_program(self):
        p = (
            SbcInstruction(Opcode.HALT),
            SbcInstruction(Opcode.OP),
            SbcInstruction(Opcode.RET),
        )
        g = sbc.recover_cfg(p)
        assert [(b.address, b.instr_count) for b in g.blocks] == [(0, 1), (1, 2)]
        assert g.edges == ()
        assert largest_component(g).counts[0] == 2

    def test_minimal_program(self):
        g = sbc.recover_cfg((SbcInstruction(Opcode.RET),))
        assert (g.node_count, g.edge_count) == (1, 0)
        ok(7, "(3 hand-traced programs)")


class TestCriterion8CdfValidity:
    def test_random_corpora_cdfs(self):
        rng = random.Random(88)
        for trial in range(30):
            graphs = [random_cfg(rng, rng.randint(1, 10), rng.randint(0, 12),
                                 sample_id=f"c{trial}-{j}")
                      for j in range(rng.randint(1, 15))]
            stats = report.corpus_stats(graphs, f"c{trial}")
            for pts in stats.cdfs.values():
                fractions = [f for _, f in pts]
                values = [v for v, _ in pts]
                assert all(b >= a for a, b in zip(fractions, fractions[1:]))
                assert fractions[-1] == 1.0
                assert all(b > a for a, b in zip(values, values[1:]))
        ok(8, "(30 random corpora)")
