import math
import random
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgrank import DataError
from cfgrank.graph import BasicBlock, build_cfg
from cfgrank.report import (ComparisonSummary, CorpusStats, SampleRow,
                            compare, corpus_stats, empirical_cdf, payload)
from cfgrank.sbc import generate_corpus, recover_cfg
from oracles import (add_in_order, brute_closeness, largest_component_cfg, mixed_corpus,
                     union_find_components)


def path3():
    return build_cfg("p3", [BasicBlock(address=a) for a in (0, 4, 8)],
                     [(0, 4), (4, 8)])


def two_component():
    return build_cfg("tc", [BasicBlock(address=a) for a in (0, 4, 8)], [(0, 4)])


def singleton(sid="one"):
    return build_cfg(sid, [BasicBlock(address=0)], [])


class TestEmpiricalCdf:
    def test_direct_definition(self):
        assert empirical_cdf([1, 1, 2, 4]) == [(1, 0.5), (2, 0.75), (4, 1.0)]

    def test_singleton(self):
        assert empirical_cdf([7]) == [(7, 1.0)]

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="at least one value"):
            empirical_cdf([])

    def test_uniform_draws_track_true_cdf(self):
        rng = random.Random(2024)
        draws = [rng.random() for _ in range(1000)]
        worst = max(abs(f - v) for v, f in empirical_cdf(draws))
        assert worst < 0.06

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                    min_size=1, max_size=200))
    def test_valid_distribution_function(self, values):
        points = empirical_cdf(values)
        fractions = [f for _, f in points]
        assert fractions == sorted(fractions)
        assert fractions[-1] == 1.0
        xs = [v for v, _ in points]
        assert xs == sorted(set(xs))


class TestCorpusStats:
    def test_single_singleton_graph(self):
        stats = corpus_stats([singleton()], "c")
        assert stats.samples[0].avg_closeness == 0.0
        assert stats.cdfs["component_count"] == [(1.0, 1.0)]

    def test_mixed_component_cdf(self):
        stats = corpus_stats([path3(), two_component()], "c")
        assert stats.cdfs["component_count"] == [(1.0, 0.5), (2.0, 1.0)]

    def test_counts_match_graph_core(self):
        graphs = [recover_cfg(p, f"s{i}")
                  for i, p in enumerate(generate_corpus(20, "fragmented", 1))]
        stats = corpus_stats(graphs, "frag")
        for g, row in zip(graphs, stats.samples):
            assert row.node_count == g.node_count
            assert row.edge_count == g.edge_count
            assert row.component_count == len(union_find_components(
                g.node_count, [(u, v) for u, v in g.edges if u != v]))

    def test_fragmented_corpus_all_multi_component(self):
        graphs = [recover_cfg(p, f"s{i}")
                  for i, p in enumerate(generate_corpus(100, "fragmented", 13))]
        stats = corpus_stats(graphs, "frag")
        multi = sum(1 for r in stats.samples if r.component_count >= 2)
        assert multi == len(stats.samples)

    def test_avg_closeness_is_mean_sweep_closeness(self):
        graphs = [recover_cfg(p, f"{profile}-{i:03}")
                  for profile in ("enmeshed", "fragmented")
                  for i, p in enumerate(generate_corpus(400, profile, 11))] + mixed_corpus()
        stats = corpus_stats(graphs, "both")
        for g, row in zip(graphs, stats.samples, strict=True):
            scores = list(brute_closeness(largest_component_cfg(g)).values())
            assert row.avg_closeness == add_in_order(scores) / len(scores)
            assert corpus_stats([g], "one").samples == (row,)


class TestCompare:
    def test_separated_corpora(self):
        a = corpus_stats([singleton(f"a{i}") for i in range(4)], "a")
        b = corpus_stats([path3()], "b")
        # a avg_closeness all 0, b all > 0.5
        summary = compare(a, b, 0.3)
        assert summary.rule_accuracy == 1.0
        assert summary.fraction_a_below == 1.0
        assert summary.fraction_b_below == 0.0

    def test_identical_corpora_at_prior(self):
        a = corpus_stats([path3(), two_component()], "a")
        b = corpus_stats([path3(), two_component()], "b")
        summary = compare(a, b, 0.5)
        assert summary.rule_accuracy <= 0.5 + 1e-12

    def test_extreme_thresholds(self):
        a = corpus_stats([path3()], "a")
        b = corpus_stats([two_component()], "b")
        low = compare(a, b, -math.inf)
        assert low.fraction_a_below == 0.0 and low.fraction_b_below == 0.0
        high = compare(a, b, math.inf)
        assert high.fraction_a_below == 1.0 and high.fraction_b_below == 1.0

    def test_profiles_separate_at_paper_threshold(self):
        enm = corpus_stats(
            [recover_cfg(p, f"e{i}") for i, p in enumerate(generate_corpus(50, "enmeshed", 3))],
            "enmeshed")
        frag = corpus_stats(
            [recover_cfg(p, f"f{i}") for i, p in enumerate(generate_corpus(50, "fragmented", 3))],
            "fragmented")
        summary = compare(enm, frag, 0.2)
        # recount oracle
        e_vals = [r.avg_closeness for r in enm.samples]
        f_vals = [r.avg_closeness for r in frag.samples]
        e_below = sum(v < 0.2 for v in e_vals)
        f_below = sum(v < 0.2 for v in f_vals)
        expected = max(e_below + (50 - f_below), f_below + (50 - e_below)) / 100
        assert summary.rule_accuracy == pytest.approx(expected)
        assert summary.rule_accuracy >= 0.9


class TestPayload:
    def test_keys_are_the_record_fields(self):
        corpora = [corpus_stats([path3(), singleton()], "a"),
                   corpus_stats([two_component()], "b"),
                   corpus_stats([singleton("c")], "c")]
        out = payload(corpora, 0.3)
        assert set(out) == {"corpora", "comparisons"}

        def names(record):
            return [f.name for f in fields(record)]

        assert [list(c) for c in out["corpora"]] == [names(CorpusStats)] * 3
        assert [list(r) for c in out["corpora"] for r in c["samples"]] == [names(SampleRow)] * 4
        assert [list(s) for s in out["comparisons"]] == [names(ComparisonSummary)] * 3

    def test_every_pair_in_input_order(self):
        a, b, c = (corpus_stats([g], name) for g, name in
                   ((path3(), "a"), (two_component(), "b"), (singleton("s"), "c")))
        out = payload([a, b, c], 0.3)
        assert out["comparisons"] == [vars(compare(x, y, 0.3)) for x, y in
                                      ((a, b), (a, c), (b, c))]
        assert {s["metric"] for s in out["comparisons"]} == {"avg_closeness"}
        assert out["corpora"][0]["samples"] == [vars(r) for r in a.samples]
        assert out["corpora"][0]["cdfs"] is a.cdfs
        assert payload([a], 0.3)["comparisons"] == []
