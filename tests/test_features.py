import csv
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgrank import InputError, metrics
from cfgrank.features import (FEATURE_NAMES, BadValueError, FeatureVector,
                              N_FEATURES, NonFiniteValueError, extract_features,
                              extract_features_many, parse_feature_table,
                              write_feature_table)
from cfgrank.graph import BasicBlock, build_cfg
from oracles import (all_pairs_distances, brute_betweenness, brute_closeness,
                     largest_component_cfg, random_cfg)


def idx(name):
    return FEATURE_NAMES.index(name)


class TestSchema:
    def test_frozen_order(self):
        assert N_FEATURES == 23
        assert FEATURE_NAMES[0] == "betweenness_min"
        assert FEATURE_NAMES[5] == "closeness_min"
        assert FEATURE_NAMES[10] == "degree_min"
        assert FEATURE_NAMES[15] == "shortest_path_min"
        assert FEATURE_NAMES[20:] == ("density", "node_count", "edge_count")


class TestExtractFeatures:
    def test_singleton_graph(self):
        g = build_cfg("one", [BasicBlock(address=0)], [])
        fv = extract_features(g)
        expected = [0.0] * 23
        expected[idx("node_count")] = 1.0
        assert list(fv.values) == expected

    def test_path3_hand_values(self):
        g = build_cfg("p3", [BasicBlock(address=a) for a in (0, 4, 8)],
                      [(0, 4), (4, 8)])
        fv = extract_features(g)
        assert fv.values[idx("closeness_min")] == pytest.approx(2 / 3)
        assert fv.values[idx("closeness_max")] == 1.0
        assert fv.values[idx("closeness_mean")] == pytest.approx(7 / 9)
        assert fv.values[idx("closeness_median")] == pytest.approx(2 / 3)
        assert fv.values[idx("closeness_std")] == pytest.approx(0.1571, abs=1e-4)
        assert fv.values[idx("density")] == pytest.approx(1 / 3)
        assert fv.values[idx("node_count")] == 3.0
        assert fv.values[idx("edge_count")] == 2.0

    def test_matches_metric_oracles(self):
        rng = random.Random(17)
        for _ in range(30):
            g = random_cfg(rng, rng.randint(1, 9), rng.randint(0, 12))
            fv = extract_features(g)
            largest = largest_component_cfg(g)
            for base, oracle in (("betweenness", brute_betweenness),
                                 ("closeness", brute_closeness)):
                stats = metrics.summary_stats(list(oracle(largest).values()))
                assert fv.values[idx(f"{base}_min")] == pytest.approx(stats.min, abs=1e-12)
                assert fv.values[idx(f"{base}_max")] == pytest.approx(stats.max, abs=1e-12)
                assert fv.values[idx(f"{base}_mean")] == pytest.approx(stats.mean, abs=1e-12)
                assert fv.values[idx(f"{base}_median")] == pytest.approx(stats.median, abs=1e-12)
                assert fv.values[idx(f"{base}_std")] == pytest.approx(stats.std, abs=1e-12)
            if largest.node_count > 1:
                dist = all_pairs_distances(largest)
                values = [float(dist[(u, v)]) for u in range(largest.node_count)
                          for v in range(u + 1, largest.node_count)]
                stats = metrics.summary_stats(values)
                for stat in ("min", "max", "mean", "median", "std"):
                    assert fv.values[idx(f"shortest_path_{stat}")] == getattr(stats, stat)
            assert fv.values[idx("density")] == pytest.approx(
                len(g.edges) / (g.node_count * (g.node_count - 1))
                if g.node_count > 1 else 0.0)
            assert fv.values[idx("node_count")] == g.node_count
            assert fv.values[idx("edge_count")] == g.edge_count

    def test_batch_equals_one_graph_at_a_time(self):
        rng = random.Random(29)
        graphs = [random_cfg(rng, rng.randint(1, 30), rng.randint(0, 40), sample_id=f"g{i}")
                  for i in range(60)]
        batch = extract_features_many(graphs)
        assert batch == [extract_features(g) for g in graphs]
        for g, row in zip(graphs, batch):
            assert extract_features_many([g])[0] == row

    def test_no_edges_implies_zero_centrality_block(self):
        rng = random.Random(23)
        for _ in range(10):
            g = random_cfg(rng, rng.randint(1, 6), 0)
            fv = extract_features(g)
            assert all(v == 0.0 for v in fv.values[:20])


def random_vector(rng, label=None):
    return FeatureVector(
        sample_id=f"s{rng.randrange(10**6)}",
        values=tuple(rng.uniform(0, 100) for _ in range(23)),
        label=label,
    )


class TestFeatureTable:
    def test_empty_list_header_only(self):
        data = write_feature_table([])
        assert data.decode().count("\n") == 1
        assert parse_feature_table(data) == []

    def test_one_row_shape(self):
        rng = random.Random(1)
        data = write_feature_table([random_vector(rng, "malicious")])
        lines = data.decode().strip().split("\n")
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 25

    def test_nan_rejected(self):
        data = write_feature_table([])
        row = b"x," + b",".join([b"NaN"] + [b"0"] * 22) + b",\n"
        with pytest.raises(NonFiniteValueError):
            parse_feature_table(data + row)

    def test_bad_header(self):
        with pytest.raises(InputError, match="unexpected header"):
            parse_feature_table(b"a,b,c\n")

    def test_field_over_csv_limit_names_line(self):
        data = write_feature_table([]) + b"x," + b"9" * (csv.field_size_limit() + 1) + b"\n"
        with pytest.raises(InputError, match=r"^line 2: field larger than field limit"):
            parse_feature_table(data)

    def test_long_values_shown_short(self):
        data = write_feature_table([])
        with pytest.raises(BadValueError) as exc:
            parse_feature_table(data + b"x," + b",".join([b"y" * 100000] + [b"0"] * 22) + b",\n")
        assert len(str(exc.value)) < 100
        with pytest.raises(NonFiniteValueError) as exc:  # 100000 nines are inf
            parse_feature_table(data + b"x," + b",".join([b"9" * 100000] + [b"0"] * 22) + b",\n")
        assert len(str(exc.value)) < 100
        with pytest.raises(InputError, match="unexpected header") as exc:
            parse_feature_table(b",".join([b"z" * 100000] * 30) + b"\n")
        assert len(str(exc.value)) < 300

    def test_bad_label(self):
        data = write_feature_table([])
        row = b"x," + b",".join([b"0"] * 23) + b",weird\n"
        with pytest.raises(BadValueError):
            parse_feature_table(data + row)

    def test_round_trip_100_rows(self):
        rng = random.Random(12)
        rows = [random_vector(rng, rng.choice([None, "malicious", "benign"]))
                for _ in range(100)]
        assert parse_feature_table(write_feature_table(rows)) == rows

    @settings(max_examples=50, deadline=None)
    @given(st.lists(
        st.tuples(
            st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126,
                                           exclude_characters=',"'), max_size=8),
            st.lists(st.floats(allow_nan=False, allow_infinity=False,
                               width=64), min_size=23, max_size=23),
            st.sampled_from([None, "malicious", "benign"]),
        ), max_size=10))
    def test_round_trip_property(self, raw_rows):
        rows = [FeatureVector(sid, tuple(vals), label)
                for sid, vals, label in raw_rows]
        assert parse_feature_table(write_feature_table(rows)) == rows
