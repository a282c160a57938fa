"""Synthetic bytecode: decoding, linear-sweep CFG recovery, corpus generation.

The .sbc format packs one instruction per 4-byte record: an opcode byte
followed by a 24-bit big-endian operand. Addresses are instruction indices.
Linear sweep keeps dead code visible, so unreachable regions surface as
extra weak components in the recovered CFG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import IntEnum

from . import InputError
from .graph import BasicBlock, Cfg, build_cfg


class Opcode(IntEnum):
    NOP = 0
    OP = 1
    JMP = 2
    BR = 3
    CALL = 4
    RET = 5
    HALT = 6


# opcodes that carry a target operand
_TARGETED = {Opcode.JMP, Opcode.BR, Opcode.CALL}
# opcodes that end a basic block
_TERMINATORS = {Opcode.JMP, Opcode.BR, Opcode.CALL, Opcode.RET, Opcode.HALT}

RECORD_SIZE = 4


class BadLengthError(InputError):
    def __init__(self, length: int):
        super().__init__(f"program length {length} is not a positive multiple of {RECORD_SIZE}")
        self.length = length


class UnknownOpcodeError(InputError):
    def __init__(self, index: int, opcode: int):
        super().__init__(f"unknown opcode {opcode} at instruction {index}")
        self.index = index
        self.opcode = opcode


class TargetOutOfBoundsError(InputError):
    def __init__(self, index: int, target: int, length: int):
        super().__init__(
            f"instruction {index} targets {target}, outside program of {length} instructions")
        self.index = index
        self.target = target


@dataclass(frozen=True)
class SbcInstruction:
    index: int
    opcode: Opcode
    operand: int | None = None


@dataclass(frozen=True)
class SbcProgram:
    instructions: tuple[SbcInstruction, ...]

    def __len__(self) -> int:
        return len(self.instructions)


def decode(data: bytes) -> SbcProgram:
    """Decode .sbc bytes into a program, validating control-flow targets."""
    if len(data) == 0 or len(data) % RECORD_SIZE != 0:
        raise BadLengthError(len(data))
    n = len(data) // RECORD_SIZE
    instructions = []
    for i in range(n):
        rec = data[i * RECORD_SIZE:(i + 1) * RECORD_SIZE]
        try:
            op = Opcode(rec[0])
        except ValueError:
            raise UnknownOpcodeError(i, rec[0]) from None
        operand = None
        if op in _TARGETED:
            operand = int.from_bytes(rec[1:4], "big")
            if operand >= n:
                raise TargetOutOfBoundsError(i, operand, n)
        instructions.append(SbcInstruction(index=i, opcode=op, operand=operand))
    return SbcProgram(instructions=tuple(instructions))


def encode(p: SbcProgram) -> bytes:
    """Inverse of decode."""
    out = bytearray()
    for ins in p.instructions:
        out.append(int(ins.opcode))
        out += (ins.operand or 0).to_bytes(3, "big")
    return bytes(out)


def recover_cfg(p: SbcProgram, sample_id: str = "") -> Cfg:
    """Linear-sweep basic-block recovery.

    Leaders are index 0, every branch/jump/call target, and the successor of
    every BR and CALL. A block runs from its leader through the next
    terminator (inclusive) or up to the next leader. Blocks ending in a
    plain instruction fall through to the next block.
    """
    n = len(p.instructions)
    leaders = {0}
    for ins in p.instructions:
        if ins.opcode in _TARGETED:
            leaders.add(ins.operand)
        if ins.opcode in (Opcode.BR, Opcode.CALL) and ins.index + 1 < n:
            leaders.add(ins.index + 1)

    # carve instruction ranges: a new block starts at every leader and after
    # every terminator (linear sweep, so dead code still gets blocks)
    starts = []
    block_of_instr = [0] * n
    current = -1
    prev_terminated = True
    for i, ins in enumerate(p.instructions):
        if i in leaders or prev_terminated:
            starts.append(i)
            current += 1
        block_of_instr[i] = current
        prev_terminated = ins.opcode in _TERMINATORS

    blocks = []
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else n
        count = end - start
        blocks.append(BasicBlock(address=start, size=RECORD_SIZE * count, instr_count=count))

    edges: list[tuple[int, int]] = []
    for bi, start in enumerate(starts):
        end = starts[bi + 1] if bi + 1 < len(starts) else n
        last = p.instructions[end - 1]
        if last.opcode == Opcode.JMP:
            edges.append((start, starts[block_of_instr[last.operand]]))
        elif last.opcode in (Opcode.BR, Opcode.CALL):
            edges.append((start, starts[block_of_instr[last.operand]]))
            if end < n:
                edges.append((start, starts[block_of_instr[end]]))
        elif last.opcode in (Opcode.RET, Opcode.HALT):
            pass
        elif end < n:
            # block cut short by the next leader: plain fall-through
            edges.append((start, starts[block_of_instr[end]]))
    return build_cfg(sample_id, blocks, edges)


def _gen_enmeshed(rng: random.Random) -> SbcProgram:
    """Small, branch-dense, single-component program.

    Every instruction but the last is a conditional branch with a random
    target, so the fall-through chain keeps the graph connected while the
    branch chords keep distances (and thus closeness) high.
    """
    n = rng.randint(8, 14)
    instructions = []
    for i in range(n - 1):
        if rng.random() < 0.8:
            target = rng.randrange(n)
            instructions.append(SbcInstruction(i, Opcode.BR, target))
        else:
            instructions.append(SbcInstruction(i, Opcode.OP))
    instructions.append(SbcInstruction(n - 1, Opcode.HALT))
    return SbcProgram(instructions=tuple(instructions))


def _gen_fragmented(rng: random.Random) -> SbcProgram:
    """A long chain-like main region plus 2-8 unreachable function regions.

    The main region dominates in size so it is the largest component, and
    its sparse chain topology keeps average closeness low. Dead regions have
    no incoming edges, so each one is a separate component.
    """
    main_blocks = rng.randint(24, 40)
    instructions: list[SbcInstruction] = []

    def emit(op: Opcode, operand: int | None = None):
        instructions.append(SbcInstruction(len(instructions), op, operand))

    # main region: each block is OP + JMP to the next block's leader,
    # with a couple of extra forward chords
    block_leaders = []
    for b in range(main_blocks):
        block_leaders.append(len(instructions))
        emit(Opcode.OP)
        if b + 1 < main_blocks:
            emit(Opcode.JMP, len(instructions) + 1)
        else:
            emit(Opcode.HALT)
    for _ in range(rng.randint(0, 2)):
        src_block = rng.randrange(main_blocks - 1)
        dst_block = rng.randrange(main_blocks)
        # rewrite the JMP of src_block to a BR chord; fall-through persists
        jmp_at = block_leaders[src_block] + 1
        instructions[jmp_at] = SbcInstruction(jmp_at, Opcode.BR, block_leaders[dst_block])

    # dead regions: never referenced, each ends in RET
    for _ in range(rng.randint(2, 8)):
        region_len = rng.randint(1, 3)
        for _ in range(region_len - 1):
            emit(Opcode.OP)
        emit(Opcode.RET)
    return SbcProgram(instructions=tuple(instructions))


def generate_corpus(count: int, profile: str, seed: int) -> list[SbcProgram]:
    """Deterministic synthetic corpus; per-program sub-seed is seed + index."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if profile == "enmeshed":
        gen = _gen_enmeshed
    elif profile == "fragmented":
        gen = _gen_fragmented
    else:
        raise ValueError(f"unknown profile {profile!r}")
    return [gen(random.Random(seed + i)) for i in range(count)]
