import json
import random

import pytest

from cfgrank.graph import largest_component
from cfgrank.ingest import (DuplicateAddressError, EdgeListError,
                            JsonSyntaxError, SchemaError, document_to_cfg,
                            parse_canonical, parse_cfg_json, parse_edge_list,
                            write_canonical)
from oracles import random_cfg


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
        assert largest_component(g).count == 2

    def test_call_edge_merges_components(self):
        doc = parse_cfg_json(doc_bytes(functions=[
            fn("f1", 0, [blk(0, fail=4, calls=[100]), blk(4)]),
            fn("f2", 100, [blk(100)]),
        ]))
        g = document_to_cfg(doc, include_call_edges=True)
        assert g.edge_count == 2
        assert largest_component(g).count == 1

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
            "j: dropped 0 call(s) and 1 jump/fail edge(s) to addresses with no block"]

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
