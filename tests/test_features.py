import csv
import io
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgrank import InputError, features, metrics
from cfgrank.features import (FEATURE_NAMES, BadValueError, FeatureVector,
                              N_FEATURES, NonFiniteValueError, extract_features,
                              extract_features_many, labeled_arrays,
                              parse_feature_table, read_labeled_table,
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


def table(*lines: str, end: str = "\n") -> bytes:
    """A features table: the header, then lines, each ended by end."""
    header = ",".join(["sample_id", *FEATURE_NAMES, "label"])
    return "".join(line + end for line in (header, *lines)).encode()


def plain_row(value: str = "0.5", sample_id: str = "s", label: str = "benign") -> str:
    return ",".join([sample_id, value, *["0.5"] * (N_FEATURES - 1), label])


# exact in .17g, adjacent floats, signed zeros, subnormals, the largest float
TABLE_NUMBERS = ["0", "-0", "1", "0.5", "-2.25", "1.0000000000000002", "5e-324",
                 "1.7976931348623157e+308", "12"]
# what float() takes and the csv module does not split (underscores, other
# digits, padding, signed and overflowing infinities, NaN) and what neither
# takes; sample_ids and labels that need quotes or are no label
TABLE_ODD = {
    "value": st.sampled_from(["1_0", "\u0661", " 1.5 ", "1.5\x0b", "+inf", "-inf", "1e400",
                              "1e-400", "nan", "", "x", "0x1", "1,5", '"2"', "2\n"]),
    "sample_id": st.text(alphabet='ab,"\n\r \0', max_size=4) | st.text(max_size=3),
    "label": st.sampled_from(["", "Benign", " benign", 'x"', "malicious,"]),
}
RARELY = st.integers(0, 9).map(lambda i: i == 0)


@st.composite
def feature_table_bytes(draw):
    """A features table of up to six labeled or unlabeled rows, with up to
    three odd sample_ids, values or labels, written by csv (quoted where
    needed) or joined on bare commas, with LF or CRLF line ends; now and
    then a mangled header, a field too many or too few, blank or
    whitespace lines, or a byte that is not UTF-8."""
    records = [["sample_id", *FEATURE_NAMES, "label"]]
    if draw(RARELY):
        records[0][draw(st.integers(0, N_FEATURES + 1))] = "x"
    for i in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, len(TABLE_NUMBERS) - 1))
        records.append([f"s{i}",
                        *(TABLE_NUMBERS[(start + j) % len(TABLE_NUMBERS)]
                          for j in range(N_FEATURES)),
                        draw(st.sampled_from(["malicious", "benign", ""]))])
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3))) if len(records) > 1 else 0):
        record = records[draw(st.integers(1, len(records) - 1))]
        column = draw(st.integers(0, N_FEATURES + 1))
        record[column] = draw(TABLE_ODD["sample_id" if column == 0 else
                                        "label" if column == N_FEATURES + 1 else "value"])
    if len(records) > 1 and draw(RARELY):
        record = records[draw(st.integers(1, len(records) - 1))]
        if draw(st.booleans()):
            record.insert(draw(st.integers(0, len(record))), "0")
        else:
            del record[draw(st.integers(0, len(record) - 1))]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.booleans()):
        buf = io.StringIO()
        csv.writer(buf, lineterminator=end).writerows(records)
        lines = buf.getvalue().split(end)[:-1]
    else:
        lines = [",".join(record) for record in records]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    data = (end.join(lines) + draw(st.sampled_from([end, ""]))).encode()
    if draw(RARELY):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def field_by_field(data: bytes):
    """labeled_arrays of parse_feature_table's labeled rows, or the class
    and message of what it raised."""
    try:
        rows = parse_feature_table(data)
    except InputError as e:
        return type(e), str(e)
    return labeled_arrays([r for r in rows if r.label is not None])


class TestLabeledTableParity:
    """read_labeled_table against parse_feature_table's rows."""

    @settings(max_examples=400, deadline=None)
    @given(feature_table_bytes())
    @example(table())
    @example(table()[:-1])
    @example(b"")
    @example(table(plain_row()))
    @example(table(plain_row(), end="\r\n"))
    @example(table(plain_row(sample_id='"a,b"')))
    @example(table("", "  ", plain_row()))
    @example(table(plain_row("1_0")))
    @example(table(plain_row("\u0661")))
    @example(table(plain_row(" 1.5 ")))
    @example(table(plain_row(), plain_row("+inf")))
    @example(table(plain_row("1e400")))
    @example(table(plain_row("nan")))
    @example(table(plain_row(label=""), plain_row()))
    @example(table(plain_row(label="weird")))
    @example(table(plain_row() + ",0"))
    @example(table(plain_row("0.5,0.5")))
    @example(table(plain_row()[2:]))
    @example(table(plain_row()[2:], plain_row("0.5,0.5")))
    @example(table(plain_row(sample_id='"a')))
    @example(table(plain_row(sample_id='"a'), plain_row(sample_id='b"')))
    @example(table(plain_row(sample_id="a\rb")))
    @example(table(plain_row(sample_id="a\0b")))
    @example(table(plain_row(sample_id="s" * (csv.field_size_limit() + 1))))
    @example(table(plain_row()) + b"\xff")
    def test_same_arrays_or_same_error(self, data):
        expected = field_by_field(data)
        try:
            got = read_labeled_table(data)
        except InputError as e:
            assert (type(e), str(e)) == expected
            return
        assert not isinstance(expected[0], type), expected
        for array, want in zip(got, expected):
            assert (array.dtype, array.shape) == (want.dtype, want.shape)
            assert array.tobytes() == want.tobytes()

    def test_plain_table_makes_no_rows(self, monkeypatch):
        rng = random.Random(8)
        rows = [random_vector(rng, rng.choice([None, "malicious", "benign"]))
                for _ in range(50)]
        data = write_feature_table(rows)
        expected = field_by_field(data)
        monkeypatch.setattr(features, "parse_feature_table", None)
        X, y = read_labeled_table(data)
        assert X.tobytes() == expected[0].tobytes()
        assert y.tolist() == expected[1].tolist() == [
            int(r.label == "malicious") for r in rows if r.label is not None]
