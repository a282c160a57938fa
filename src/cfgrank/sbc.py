"""Synthetic bytecode: decoding, linear-sweep CFG recovery, corpus generation.

The .sbc format packs one instruction per 4-byte record, a 32-bit
big-endian word: an opcode byte followed by a 24-bit operand. A program is
a tuple of SbcInstruction, and addresses are positions in it.
Linear sweep keeps dead code visible, so unreachable regions surface as
extra weak components in the recovered CFG.
"""

from __future__ import annotations

import random
import struct
from enum import IntEnum
from typing import NamedTuple

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


# opcode byte -> Opcode
_OPCODES = tuple(Opcode)
# opcodes that carry a target operand
_TARGETED = {Opcode.JMP, Opcode.BR, Opcode.CALL}
# opcodes that end a basic block
_TERMINATORS = {Opcode.JMP, Opcode.BR, Opcode.CALL, Opcode.RET, Opcode.HALT}
# terminators with no edge to the next instruction
_NO_FALL_THROUGH = {Opcode.JMP, Opcode.RET, Opcode.HALT}

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


class SbcInstruction(NamedTuple):
    """One record; a program is a tuple of them, addressed by position."""
    opcode: Opcode
    operand: int | None = None


def decode(data: bytes) -> tuple[SbcInstruction, ...]:
    """Decode .sbc bytes into a program, validating control-flow targets.

    Raises the error of the first bad record."""
    n, ragged = divmod(len(data), RECORD_SIZE)
    if n == 0 or ragged:
        raise BadLengthError(len(data))
    program = []
    for i, (word,) in enumerate(struct.iter_unpack(">I", data)):
        op, operand = word >> 24, word & 0xFFFFFF
        if op >= len(_OPCODES):
            raise UnknownOpcodeError(i, op)
        op = _OPCODES[op]
        if op not in _TARGETED:
            operand = None
        elif operand >= n:
            raise TargetOutOfBoundsError(i, operand, n)
        program.append(SbcInstruction(op, operand))
    return tuple(program)


def encode(p: tuple[SbcInstruction, ...]) -> bytes:
    """Inverse of decode."""
    # x >> 24 is 0 exactly when 0 <= x < 2^24; a wider operand would spill into the opcode
    if any((operand or 0) >> 24 for _, operand in p):
        raise OverflowError("an operand does not fit in 24 bits")
    return struct.pack(f">{len(p)}I", *(op << 24 | (operand or 0) for op, operand in p))


def recover_cfg(p: tuple[SbcInstruction, ...], sample_id: str = "") -> Cfg:
    """Linear-sweep basic-block recovery.

    Blocks start at index 0, at every branch/jump/call target and after
    every terminator, so dead code still gets blocks. A block runs up to the
    next start. A block ending in JMP, BR or CALL has an edge to the target;
    one ending in anything but JMP, RET or HALT falls through to the next.
    """
    n = len(p)
    starts = sorted({0} | {operand for op, operand in p if op in _TARGETED}
                    | {i + 1 for i, (op, _) in enumerate(p[:-1]) if op in _TERMINATORS})
    blocks, edges = [], []
    for start, end in zip(starts, starts[1:] + [n]):
        count = end - start
        blocks.append(BasicBlock(address=start, size=RECORD_SIZE * count, instr_count=count))
        op, operand = p[end - 1]
        if op in _TARGETED:
            edges.append((start, operand))
        if op not in _NO_FALL_THROUGH and end < n:
            edges.append((start, end))
    return build_cfg(sample_id, blocks, edges)


def _gen_enmeshed(rng: random.Random) -> tuple[SbcInstruction, ...]:
    """Small, branch-dense, single-component program.

    Every instruction but the last is a conditional branch with a random
    target, so the fall-through chain keeps the graph connected while the
    branch chords keep distances (and thus closeness) high.
    """
    n = rng.randint(8, 14)
    program = []
    for _ in range(n - 1):
        if rng.random() < 0.8:
            program.append(SbcInstruction(Opcode.BR, rng.randrange(n)))
        else:
            program.append(SbcInstruction(Opcode.OP))
    program.append(SbcInstruction(Opcode.HALT))
    return tuple(program)


def _gen_fragmented(rng: random.Random) -> tuple[SbcInstruction, ...]:
    """A long chain-like main region plus 2-8 unreachable function regions.

    The main region dominates in size so it is the largest component, and
    its sparse chain topology keeps average closeness low. Dead regions have
    no incoming edges, so each one is a separate component.
    """
    main_blocks = rng.randint(24, 40)
    # main region: block b is OP + JMP to block b + 1 (the last one OP + HALT),
    # so block b starts at 2b
    program = []
    for b in range(1, main_blocks):
        program += [SbcInstruction(Opcode.OP), SbcInstruction(Opcode.JMP, 2 * b)]
    program += [SbcInstruction(Opcode.OP), SbcInstruction(Opcode.HALT)]
    for _ in range(rng.randint(0, 2)):
        src_block = rng.randrange(main_blocks - 1)
        dst_block = rng.randrange(main_blocks)
        # rewrite the JMP of src_block to a BR chord; fall-through persists
        program[2 * src_block + 1] = SbcInstruction(Opcode.BR, 2 * dst_block)

    # dead regions: never referenced, each ends in RET
    for _ in range(rng.randint(2, 8)):
        region_len = rng.randint(1, 3)
        program += [SbcInstruction(Opcode.OP)] * (region_len - 1)
        program.append(SbcInstruction(Opcode.RET))
    return tuple(program)


def generate_corpus(count: int, profile: str, seed: int,
                    ) -> list[tuple[SbcInstruction, ...]]:
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
