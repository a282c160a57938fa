import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfgrank import InputError
from cfgrank.cli import main
from cfgrank.graph import largest_components
from cfgrank.ingest import (DuplicateAddressError, EdgeListError,
                            JsonSyntaxError, SchemaError, document_to_cfg,
                            parse_canonical, parse_cfg_json, parse_edge_list,
                            write_canonical)
from oracles import random_cfg, reference_parse_canonical


def doc_bytes(sample_id="s", functions=None):
    return json.dumps({"sample_id": sample_id, "functions": functions or []}).encode()


def fn(name, entry, blocks):
    return {"name": name, "entry": entry, "blocks": blocks}


def blk(addr, **kw):
    record = {"addr": addr, "size": kw.pop("size", 4), "ninstr": kw.pop("ninstr", 1)}
    record.update(kw)
    return record


class TestParseCfgJson:
    def test_three_block_function(self):
        doc = parse_cfg_json(doc_bytes(functions=[
            fn("f", 0, [blk(0, jump=8, fail=4), blk(4), blk(8)]),
        ]))
        assert doc.sample_id == "s"
        assert len(doc.functions[0].blocks) == 3
        assert doc.functions[0].blocks[0].jump == 8

    def test_empty_functions(self):
        with pytest.raises(SchemaError):
            parse_cfg_json(doc_bytes(functions=[]))

    def test_duplicate_address_across_functions(self):
        with pytest.raises(DuplicateAddressError) as exc:
            parse_cfg_json(doc_bytes(functions=[
                fn("f1", 16, [blk(16)]),
                fn("f2", 16, [blk(16)]),
            ]))
        assert exc.value.address == 16

    def test_syntax_error_has_offset(self):
        with pytest.raises(JsonSyntaxError) as exc:
            parse_cfg_json(b'{"sample_id": "s", ')
        assert exc.value.offset > 0

    def test_missing_field_named(self):
        with pytest.raises(SchemaError) as exc:
            parse_cfg_json(b'{"functions": []}')
        assert "sample_id" in str(exc.value)

    def test_unknown_fields_ignored(self):
        doc = parse_cfg_json(json.dumps({
            "sample_id": "s", "banana": 1,
            "functions": [dict(fn("f", 0, [blk(0)]), extra=True)],
        }).encode())
        assert doc.functions[0].name == "f"

    def test_entry_must_match_block(self):
        with pytest.raises(SchemaError):
            parse_cfg_json(doc_bytes(functions=[fn("f", 99, [blk(0)])]))

    def test_jump_equals_fail_rejected(self):
        with pytest.raises(SchemaError):
            parse_cfg_json(doc_bytes(functions=[
                fn("f", 0, [blk(0, jump=4, fail=4), blk(4)]),
            ]))

    @pytest.mark.parametrize("payload", [
        b"[]",
        b'{"sample_id": 5, "functions": []}',
        b'{"sample_id": "s", "functions": [{"name": "f"}]}',
        b'{"sample_id": "s", "functions": [{"name": "f", "entry": 0, "blocks": [{"addr": -1}]}]}',
    ])
    def test_malformed_inputs_raise_structured_errors(self, payload):
        with pytest.raises((SchemaError, JsonSyntaxError)):
            parse_cfg_json(payload)


class TestDocumentToCfg:
    def test_unreachable_function_is_own_component(self):
        doc = parse_cfg_json(doc_bytes(functions=[
            fn("f1", 0, [blk(0, fail=4), blk(4)]),
            fn("f2", 100, [blk(100)]),
        ]))
        g = document_to_cfg(doc, include_call_edges=True)
        assert (g.node_count, g.edge_count) == (3, 1)
        assert largest_components([g]).counts[0] == 2

    def test_call_edge_merges_components(self):
        doc = parse_cfg_json(doc_bytes(functions=[
            fn("f1", 0, [blk(0, fail=4, calls=[100]), blk(4)]),
            fn("f2", 100, [blk(100)]),
        ]))
        g = document_to_cfg(doc, include_call_edges=True)
        assert g.edge_count == 2
        assert largest_components([g]).counts[0] == 1

    def test_call_edges_can_be_disabled(self):
        doc = parse_cfg_json(doc_bytes(functions=[
            fn("f1", 0, [blk(0, calls=[100])]),
            fn("f2", 100, [blk(100)]),
        ]))
        g = document_to_cfg(doc, include_call_edges=False)
        assert g.edge_count == 0

    def test_unresolvable_call_dropped(self, caplog):
        doc = parse_cfg_json(doc_bytes(functions=[
            fn("f1", 0, [blk(0, calls=[0xdead])]),
        ]))
        g = document_to_cfg(doc)
        assert g.edge_count == 0

    def test_dangling_jump_counted_and_logged(self, caplog):
        doc = parse_cfg_json(doc_bytes(sample_id="j", functions=[
            fn("f1", 0, [blk(0, jump=400)]),
        ]))
        with caplog.at_level("WARNING", logger="cfgrank.ingest"):
            g = document_to_cfg(doc)
        assert (g.node_count, g.edge_count) == (1, 0)
        assert [r.getMessage() for r in caplog.records] == [
            "'j': dropped 0 call(s) and 1 jump/fail edge(s) to addresses with no block"]

    def test_three_functions_cross_calls_match_hand_enumeration(self):
        doc = parse_cfg_json(doc_bytes(functions=[
            fn("main", 0, [blk(0, jump=8, fail=4, calls=[100]),
                           blk(4, calls=[200]), blk(8)]),
            fn("helper", 100, [blk(100, fail=104), blk(104, calls=[0])]),
            fn("leaf", 200, [blk(200)]),
        ]))
        g = document_to_cfg(doc, include_call_edges=True)
        # hand enumeration: 0->8, 0->4, 0->100, 4->200, 100->104, 104->0
        addr = {b.address: i for i, b in enumerate(g.blocks)}
        expected = {(addr[0], addr[8]), (addr[0], addr[4]), (addr[0], addr[100]),
                    (addr[4], addr[200]), (addr[100], addr[104]), (addr[104], addr[0])}
        assert set(g.edges) == expected
        assert g.node_count == 6


class TestEdgeList:
    def test_two_edges(self):
        g = parse_edge_list(b"0 1\n1 2\n")
        assert (g.node_count, g.edge_count) == (3, 2)

    def test_isolated_node(self):
        g = parse_edge_list(b"5:\n")
        assert (g.node_count, g.edge_count) == (1, 0)

    def test_comments_and_blanks(self):
        g = parse_edge_list(b"# header\n\n0 1\n")
        assert g.edge_count == 1

    def test_malformed_line_number(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list(b"0 1\nbogus line\n")
        assert exc.value.line_number == 2

    @pytest.mark.parametrize("line", ["\u00b2 1", "1 \u00b3", "\u00b2:", "1" * 5000 + " 1"],
                             ids=["superscript", "superscript-end", "superscript-node", "5000-digits"])
    def test_label_that_int_refuses(self, line):
        # a superscript is isdigit() but not isdecimal(), and int() reads
        # at most sys.get_int_max_str_digits() digits
        with pytest.raises(EdgeListError, match="malformed line 1"):
            parse_edge_list(line.encode())

    def test_non_ascii_decimal_digits_read(self):
        g = parse_edge_list("\u0663 \uff11\n".encode())
        assert [b.address for b in g.blocks] == [1, 3]

    def test_round_trip_200_lines(self):
        rng = random.Random(9)
        lines = []
        for _ in range(180):
            lines.append(f"{rng.randrange(50)} {rng.randrange(50)}")
        for n in range(50, 70):
            lines.append(f"{n}:")
        g = parse_edge_list(("\n".join(lines) + "\n").encode(), sample_id="rt")
        again = parse_canonical(write_canonical(g))
        assert again == g


class TestCanonical:
    def test_single_node_fixed_bytes(self):
        g = parse_edge_list(b"0:\n", sample_id="one")
        assert write_canonical(g) == (
            b'{"edges":[],"nodes":[{"addr":0,"ninstr":0,"size":0}],'
            b'"sample_id":"one"}\n')

    def test_deterministic(self):
        rng = random.Random(2)
        g = random_cfg(rng, 6, 9, sample_id="det")
        assert write_canonical(g) == write_canonical(g)

    def test_round_trip_random(self):
        rng = random.Random(33)
        for _ in range(50):
            g = random_cfg(rng, rng.randint(1, 12), rng.randint(0, 20))
            assert parse_canonical(write_canonical(g)) == g

    def test_node_count_equals_block_total(self):
        rng = random.Random(4)
        for _ in range(20):
            n_funcs = rng.randint(1, 4)
            functions = []
            base = 0
            total = 0
            for fi in range(n_funcs):
                n_blocks = rng.randint(1, 5)
                blocks = [blk(base + 4 * j) for j in range(n_blocks)]
                functions.append(fn(f"f{fi}", base, blocks))
                base += 4 * n_blocks + 16
                total += n_blocks
            doc = parse_cfg_json(doc_bytes(functions=functions))
            assert document_to_cfg(doc).node_count == total


# values of the wrong type or sign for a number of a canonical document,
# bools first: json gives True for true, and isinstance(True, int) holds
WRONG = (True, False, -1, -2 ** 70, "x", 1.5, None, [])
# and for any of its fields
JUNK = WRONG + ("", {}, [4], [4, 8, 12], {"addr": 0})


def _index(draw, seq):
    return draw(st.integers(0, len(seq) - 1))


def _shift_addresses(doc, draw):
    # every address at or beyond 2**64, consistently: still valid; an edge
    # end an earlier mutation made wrong ("x", None, 1.5, True) stays as it is
    base = draw(st.sampled_from((2 ** 64, 2 ** 64 - 4, 3 * 2 ** 70)))
    for n in doc["nodes"]:
        n["addr"] += base
    doc["edges"] = [[x + base if type(x) is int else x for x in e] for e in doc["edges"]]


def _shuffle_nodes(doc, draw):
    doc["nodes"] = draw(st.permutations(doc["nodes"]))


def _repeat_edge(doc, draw):
    if doc["edges"]:
        doc["edges"].insert(_index(draw, doc["edges"]), list(draw(st.sampled_from(doc["edges"]))))


def _self_loop(doc, draw):
    a = doc["nodes"][_index(draw, doc["nodes"])]["addr"]
    doc["edges"].append([a, a])


def _extra_key(doc, draw):
    target = draw(st.sampled_from([doc] + doc["nodes"]))
    target["note"] = draw(st.sampled_from(JUNK))


def _duplicate_address(doc, draw):
    nodes = doc["nodes"]
    nodes[_index(draw, nodes)]["addr"] = nodes[_index(draw, nodes)]["addr"]


def _dangling_edge(doc, draw):
    missing = max(n["addr"] for n in doc["nodes"]) + draw(st.integers(1, 9))
    a = doc["nodes"][_index(draw, doc["nodes"])]["addr"]
    doc["edges"].append(draw(st.sampled_from(([a, missing], [missing, a]))))


def _bad_node_field(doc, draw):
    node = doc["nodes"][_index(draw, doc["nodes"])]
    node[draw(st.sampled_from(("addr", "size", "ninstr")))] = draw(st.sampled_from(WRONG))


def _bad_edge(doc, draw):
    if not doc["edges"]:
        doc["edges"].append(draw(st.sampled_from(JUNK)))
    elif draw(st.booleans()):
        doc["edges"][_index(draw, doc["edges"])] = draw(st.sampled_from(JUNK))
    else:
        doc["edges"][_index(draw, doc["edges"])][draw(st.integers(0, 1))] = draw(
            st.sampled_from(WRONG))


def _bad_root_field(doc, draw):
    doc[draw(st.sampled_from(("sample_id", "nodes", "edges")))] = draw(st.sampled_from(JUNK))


def _missing_key(doc, draw):
    target = draw(st.sampled_from([doc] + doc["nodes"]))
    keys = sorted(target)
    if keys:
        del target[keys[_index(draw, keys)]]


def _non_object(doc, draw):
    doc.clear()
    doc["replace"] = draw(st.sampled_from(JUNK))


MUTATIONS = (_shift_addresses, _shuffle_nodes, _repeat_edge, _self_loop, _extra_key,
             _duplicate_address, _dangling_edge, _bad_node_field, _bad_edge,
             _bad_root_field, _missing_key, _non_object)


@st.composite
def canonical_files(draw):
    """The bytes of a valid canonical graph after up to three mutations,
    some of which keep it valid, and now and then a non-UTF-8 byte."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    g = random_cfg(rng, draw(st.integers(1, 8)), draw(st.integers(0, 12)), sample_id="m")
    doc = json.loads(write_canonical(g))
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        if isinstance(doc.get("nodes"), list) and doc["nodes"] and all(
                isinstance(n, dict) and isinstance(n.get("addr"), int) for n in doc["nodes"]) \
                and isinstance(doc.get("edges"), list) and all(
                isinstance(e, list) and len(e) == 2 for e in doc["edges"]):
            mutate(doc, draw)
    if "replace" in doc:
        doc = doc["replace"]
    data = json.dumps(doc).encode()
    if draw(st.sampled_from((False,) * 9 + (True,))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


def canonical_bytes(nodes, edges):
    return json.dumps({"sample_id": "m", "nodes": nodes, "edges": edges}).encode()


def one_by_one(data):
    """What the field-by-field reference parser makes of data: a Cfg, or the
    message of the first error it raises."""
    try:
        raw = json.loads(data.decode("utf-8"))
    except ValueError:  # UnicodeDecodeError, JSONDecodeError: no schema to check
        with pytest.raises(JsonSyntaxError) as e:
            parse_canonical(data)
        return str(e.value)
    try:
        return reference_parse_canonical(raw)
    except InputError as e:
        return str(e)


class TestCanonicalErrorParity:
    """The bulk-checked parse_canonical against the field-by-field checks,
    through features and analyze."""

    @settings(max_examples=400, deadline=None)
    @given(canonical_files())
    @example(canonical_bytes([{"addr": 0, "size": True, "ninstr": 1}], []))
    @example(canonical_bytes([{"addr": 0, "size": 0, "ninstr": 1}, {"addr": False}], []))
    @example(canonical_bytes([{"addr": 0, "size": 0, "ninstr": 0}], [[0, True]]))
    @example(canonical_bytes([{"addr": 2 ** 64, "size": 0, "ninstr": -1}], []))
    @example(canonical_bytes([{"addr": 8, "size": 0, "ninstr": 0}] * 2, []))
    @example(canonical_bytes([{"addr": 8, "size": 0, "ninstr": 0}], [[8, 8], [8, 2 ** 64]]))
    @example(b'{"sample_id": "a\\ud800", "nodes": [{"addr": 0, "size": 0, "ninstr": 0}], "edges": []}')
    def test_features_and_analyze(self, data):
        expected = one_by_one(data)
        if not isinstance(expected, str):
            assert parse_canonical(data) == expected
        valid = write_canonical(random_cfg(random.Random(1), 5, 6, sample_id="a"))
        with tempfile.TemporaryDirectory() as tmp:
            graphs, out = Path(tmp) / "graphs", Path(tmp) / "out"
            graphs.mkdir()
            # a valid file sorts first, so the mutated one is the first bad one
            (graphs / "a.graph.json").write_bytes(valid)
            (graphs / "m.graph.json").write_bytes(data)
            for argv in (["features", str(graphs), "-o", str(out)],
                         ["analyze", str(graphs), "--names", "c", "-o", str(out)]):
                err = io.StringIO()
                with redirect_stderr(err), redirect_stdout(io.StringIO()):
                    code = main(argv)
                if isinstance(expected, str):
                    assert code == 2
                    assert err.getvalue().splitlines() == [
                        f"cfgrank: input error: {graphs / 'm.graph.json'}: {expected}"]
                    assert not out.exists()
                else:
                    assert (code, err.getvalue()) == (0, "")
                    out.unlink()

    def test_first_bad_file_in_sorted_order_reported(self, tmp_path, capsys):
        (tmp_path / "b.graph.json").write_text('{"sample_id": "b", "nodes": []}')
        (tmp_path / "a.graph.json").write_text('{"sample_id": 1}')
        assert main(["features", str(tmp_path), "-o", str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr().err == (f"cfgrank: input error: {tmp_path / 'a.graph.json'}: "
                                           "field '<root>.sample_id': expected str, got 1\n")

    @pytest.mark.parametrize("parse", [parse_canonical, parse_cfg_json])
    def test_integer_too_long_is_a_syntax_error(self, parse):
        with pytest.raises(JsonSyntaxError, match="integer with too many digits"):
            parse(b'{"sample_id": "s", "nodes": [{"addr": ' + b"1" * 5000 + b"}]}")

    @pytest.mark.parametrize("parse", [parse_canonical, parse_cfg_json])
    def test_one_message_per_decode_failure(self, parse):
        with pytest.raises(JsonSyntaxError) as exc:
            parse(b'{"sample_id": "\xff"}')
        assert str(exc.value) == "invalid JSON at byte offset 15: not valid UTF-8"
        with pytest.raises(JsonSyntaxError) as exc:
            parse(b'{"sample_id": }')
        assert str(exc.value) == "invalid JSON at byte offset 14: Expecting value"

    def test_deep_nesting_is_a_syntax_error(self):
        for parse in (parse_canonical, parse_cfg_json):
            with pytest.raises(JsonSyntaxError, match="nested too deeply"):
                parse(b"[" * 100000)
