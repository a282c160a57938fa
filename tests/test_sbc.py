import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfgrank import InputError
from cfgrank.graph import largest_components
from cfgrank.sbc import (BadLengthError, Opcode, SbcInstruction,
                         TargetOutOfBoundsError, UnknownOpcodeError, decode,
                         encode, generate_corpus, recover_cfg)
from oracles import reference_recover_cfg


def prog(*instrs):
    return tuple(SbcInstruction(op, operand) for op, operand in instrs)


def record(opcode, operand=0):
    return bytes([opcode]) + operand.to_bytes(3, "big")


@st.composite
def valid_programs(draw):
    """Bytes of 1-40 records of all seven opcodes; a target is below the
    length, any other operand is arbitrary."""
    n = draw(st.integers(1, 40))
    ops = draw(st.lists(st.sampled_from(list(Opcode)), min_size=n, max_size=n))
    return b"".join(
        record(op, draw(st.integers(0, n - 1)) if op in (Opcode.JMP, Opcode.BR, Opcode.CALL)
               else draw(st.integers(0, 2 ** 24 - 1)))
        for op in ops)


class TestDecode:
    def test_jmp_decodes(self):
        p = decode(record(2, 3) + record(1) + record(1) + record(5))
        assert p[0] == (Opcode.JMP, 3)
        assert p[1] == (Opcode.OP, None)

    def test_empty_input(self):
        with pytest.raises(BadLengthError):
            decode(b"")

    def test_ragged_length(self):
        with pytest.raises(BadLengthError):
            decode(b"\x01\x00\x00")

    def test_unknown_opcode_reports_index(self):
        with pytest.raises(UnknownOpcodeError) as exc:
            decode(record(1) + record(9))
        assert exc.value.index == 1

    def test_out_of_bounds_target(self):
        with pytest.raises(TargetOutOfBoundsError):
            decode(record(2, 5) + record(5))

    @pytest.mark.parametrize("data, error, index", [
        (record(1) + record(2, 4) + record(1) + record(9), TargetOutOfBoundsError, 1),
        (record(1) + record(9) + record(1) + record(3, 4), UnknownOpcodeError, 1),
        (record(9) + b"\x02", BadLengthError, None),
        (record(9) + b"\x02\xff", BadLengthError, None),
        (record(9) + b"\x02\xff\xff", BadLengthError, None),
    ], ids=["target-then-opcode", "opcode-then-target", "5-bytes", "6-bytes", "7-bytes"])
    def test_first_bad_record_wins(self, data, error, index):
        with pytest.raises(error) as exc:
            decode(data)
        if index is None:
            assert exc.value.length == len(data)
        else:
            assert exc.value.index == index

    def test_fuzz_never_panics(self):
        rng = random.Random(99)
        for _ in range(300):
            data = bytes(rng.randrange(256) for _ in range(4 * rng.randint(1, 10)))
            try:
                p = decode(data)
            except InputError:
                continue
            assert len(p) == len(data) // 4

    def test_encode_round_trip(self):
        for profile in ("enmeshed", "fragmented"):
            for p in generate_corpus(10, profile, 5):
                assert decode(encode(p)) == p

    @pytest.mark.parametrize("operand", [-1, 2 ** 24])
    def test_encode_rejects_a_wide_operand(self, operand):
        with pytest.raises(OverflowError):
            encode(prog((Opcode.OP, None), (Opcode.JMP, operand)))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["enmeshed", "fragmented"]), st.integers(0, 2 ** 32))
    def test_generated_programs_round_trip(self, profile, seed):
        p = generate_corpus(1, profile, seed)[0]
        assert decode(encode(p)) == p


class TestRecoverCfg:
    @settings(max_examples=500, deadline=None)
    @given(valid_programs())
    def test_equals_reference(self, data):
        p = decode(data)
        assert recover_cfg(p, "s") == reference_recover_cfg(p, "s")

    def test_hand_trace_branch_jump(self):
        # 0:BR 3, 1:OP, 2:JMP 4, 3:OP, 4:RET
        p = prog((Opcode.BR, 3), (Opcode.OP, None), (Opcode.JMP, 4),
                 (Opcode.OP, None), (Opcode.RET, None))
        g = recover_cfg(p)
        assert [b.address for b in g.blocks] == [0, 1, 3, 4]
        assert [b.instr_count for b in g.blocks] == [1, 2, 1, 1]
        assert [b.size for b in g.blocks] == [4, 8, 4, 4]
        # B0->B2 (target 3), B0->B1 (fall-through), B1->B3 (jmp 4), B2->B3
        assert set(g.edges) == {(0, 2), (0, 1), (1, 3), (2, 3)}
        assert largest_components([g]).counts[0] == 1

    def test_hand_trace_dead_code(self):
        # 0:HALT, 1:OP, 2:RET
        p = prog((Opcode.HALT, None), (Opcode.OP, None), (Opcode.RET, None))
        g = recover_cfg(p)
        assert [b.address for b in g.blocks] == [0, 1]
        assert [b.instr_count for b in g.blocks] == [1, 2]
        assert g.edge_count == 0
        assert largest_components([g]).counts[0] == 2

    def test_hand_trace_minimal(self):
        g = recover_cfg(prog((Opcode.RET, None)))
        assert (g.node_count, g.edge_count) == (1, 0)

    def test_call_has_two_out_edges(self):
        # 0:CALL 3, 1:OP, 2:HALT, 3:RET
        p = prog((Opcode.CALL, 3), (Opcode.OP, None), (Opcode.HALT, None),
                 (Opcode.RET, None))
        g = recover_cfg(p)
        addr = {b.address: i for i, b in enumerate(g.blocks)}
        assert set(g.edges) == {(addr[0], addr[3]), (addr[0], addr[1])}

    def test_every_instruction_covered(self):
        rng = random.Random(14)
        for profile in ("enmeshed", "fragmented"):
            for p in generate_corpus(20, profile, rng.randrange(1000)):
                g = recover_cfg(p)
                assert sum(b.instr_count for b in g.blocks) == len(p)
                # block ranges must tile the program
                covered = sorted(
                    (b.address, b.address + b.instr_count) for b in g.blocks)
                assert covered[0][0] == 0
                for (_, end), (start, _) in zip(covered, covered[1:]):
                    assert end == start

    def test_edges_only_target_leaders(self):
        for p in generate_corpus(30, "enmeshed", 8):
            g = recover_cfg(p)
            leaders = {b.address for b in g.blocks}
            for _, v in g.edges:
                assert g.blocks[v].address in leaders


class TestGenerateCorpus:
    def test_deterministic(self):
        a = generate_corpus(1, "fragmented", 42)
        b = generate_corpus(1, "fragmented", 42)
        assert [encode(p) for p in a] == [encode(p) for p in b]

    def test_fragmented_multi_component(self):
        for p in generate_corpus(50, "fragmented", 7):
            assert largest_components([recover_cfg(p)]).counts[0] >= 2

    def test_enmeshed_single_component(self):
        for p in generate_corpus(50, "enmeshed", 7):
            assert largest_components([recover_cfg(p)]).counts[0] == 1

    def test_component_distributions_disjointly_shifted(self):
        frag = [largest_components([recover_cfg(p)]).counts[0]
                for p in generate_corpus(40, "fragmented", 3)]
        enm = [largest_components([recover_cfg(p)]).counts[0]
               for p in generate_corpus(40, "enmeshed", 3)]
        assert min(frag) > max(enm)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            generate_corpus(0, "enmeshed", 1)
        with pytest.raises(ValueError):
            generate_corpus(1, "spaghetti", 1)
