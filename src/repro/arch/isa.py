"""A64-lite: the guest instruction set.

A compact, ARMv8-flavoured 64-bit RISC ISA used as the *target* architecture
of the virtual platforms.  It is expressive enough to run the repository's
bare-metal workloads and the synthetic Linux kernel: two exception levels
(EL0/EL1), system registers, IRQ/SVC exceptions, WFI, exclusive monitors for
spinlocks, and an MMU.

Instructions are fixed 32-bit words with a uniform custom encoding (this is
a didactic encoding, *not* binary-compatible with real A64):

    word[31:26]  opcode
    word[25:21]  rd / rt
    word[20:16]  rn
    word[15:11]  rm / rs
    word[15:0]   imm16 (register-less forms)
    ...          per-opcode immediate layouts, documented on each opcode

Register index 31 addresses the stack pointer; x0–x30 are general purpose
(x30 doubles as the link register, as on real ARM).
"""

from __future__ import annotations

import enum
from typing import NamedTuple

WORD_SIZE = 4
NUM_REGS = 32
SP = 31
LR = 30


class Op(enum.IntEnum):
    """Opcode space (6 bits)."""

    NOP = 0
    MOVZ = 1      # rd, imm16, shift(0/16/32/48)
    MOVK = 2      # rd, imm16, shift
    ADDI = 3      # rd, rn, uimm12
    SUBI = 4      # rd, rn, uimm12
    ADD = 5       # rd, rn, rm
    SUB = 6       # rd, rn, rm
    MUL = 7       # rd, rn, rm
    UDIV = 8      # rd, rn, rm (div by zero -> 0, as on ARM)
    UREM = 9      # rd, rn, rm (remainder; by zero -> rn)
    AND = 10      # rd, rn, rm
    ORR = 11      # rd, rn, rm
    EOR = 12      # rd, rn, rm
    ANDI = 13     # rd, rn, uimm11
    ORRI = 14     # rd, rn, uimm11
    EORI = 15     # rd, rn, uimm11
    LSLI = 16     # rd, rn, uimm6
    LSRI = 17     # rd, rn, uimm6
    ASRI = 18     # rd, rn, uimm6
    CMP = 19      # rn, rm (SUBS discarding result)
    CMPI = 20     # rn, uimm12
    MOV = 21      # rd, rn
    LDR = 22      # rd, [rn + simm16] (8 bytes)
    STR = 23      # rd, [rn + simm16]
    LDRW = 24     # rd, [rn + simm16] (4 bytes, zero-extend)
    STRW = 25     # rd, [rn + simm16]
    LDRB = 26     # rd, [rn + simm16] (1 byte, zero-extend)
    STRB = 27     # rd, [rn + simm16]
    LDXR = 28     # rd, [rn] (exclusive)
    STXR = 29     # rs, rd, [rn] (rs = 0 success / 1 fail)
    B = 30        # simm26 (word offset)
    BL = 31       # simm26
    BCOND = 32    # cond(4), simm22 (word offset)
    CBZ = 33      # rt, simm21 (word offset)
    CBNZ = 34     # rt, simm21
    BR = 35       # rn
    RET = 36      # rn (defaults to x30)
    SVC = 37      # imm16
    ERET = 38
    MRS = 39      # rd, sysreg16
    MSR = 40      # sysreg16, rn
    MSRI = 41     # DAIF set/clear: op(1) | imm2 (I-bit mask ops)
    WFI = 42
    HLT = 43      # imm16 (simulation exit / semihosting)
    BRK = 44      # imm16 (breakpoint -> sync exception)
    DMB = 45      # barrier (architectural no-op here)
    ADR = 46      # rd, simm21 (byte offset, PC-relative)
    UDF = 47      # undefined instruction -> sync exception
    YIELD = 48    # hint, no-op


class Cond(enum.IntEnum):
    EQ = 0
    NE = 1
    HS = 2
    LO = 3
    MI = 4
    PL = 5
    VS = 6
    VC = 7
    HI = 8
    LS = 9
    GE = 10
    LT = 11
    GT = 12
    LE = 13
    AL = 14


class SysReg(enum.IntEnum):
    """System registers reachable via MRS/MSR (16-bit id space)."""

    VBAR_EL1 = 0x000
    ELR_EL1 = 0x001
    SPSR_EL1 = 0x002
    ESR_EL1 = 0x003
    FAR_EL1 = 0x004
    SCTLR_EL1 = 0x005
    TTBR0_EL1 = 0x006
    MAIR_EL1 = 0x007
    MPIDR_EL1 = 0x008
    CURRENT_EL = 0x009
    DAIF = 0x00A
    CNTFRQ_EL0 = 0x00B
    CNTVCT_EL0 = 0x00C
    TPIDR_EL0 = 0x00D
    TPIDR_EL1 = 0x00E
    MIDR_EL1 = 0x00F
    SP_EL0 = 0x010


class Instruction(NamedTuple):
    """A decoded instruction.  Fields unused by an opcode are zero."""

    op: Op
    rd: int = 0
    rn: int = 0
    rm: int = 0
    imm: int = 0
    cond: Cond = Cond.AL

    def __repr__(self) -> str:
        return (
            f"Instruction({self.op.name}, rd={self.rd}, rn={self.rn}, "
            f"rm={self.rm}, imm={self.imm}, cond={self.cond.name})"
        )


class DecodeError(Exception):
    """Raised on malformed instruction words."""


def _check_reg(value: int, what: str) -> int:
    if not 0 <= value < NUM_REGS:
        raise DecodeError(f"{what} out of range: {value}")
    return value


def _signed(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def _unsigned(value: int, bits: int) -> int:
    return value & ((1 << bits) - 1)


# Immediate layout metadata: opcode -> (kind)
_REG3 = {Op.ADD, Op.SUB, Op.MUL, Op.UDIV, Op.UREM, Op.AND, Op.ORR, Op.EOR}
_REG2_IMM12 = {Op.ADDI, Op.SUBI}
_REG2_IMM11 = {Op.ANDI, Op.ORRI, Op.EORI}
_REG2_IMM6 = {Op.LSLI, Op.LSRI, Op.ASRI}
_MEM = {Op.LDR, Op.STR, Op.LDRW, Op.STRW, Op.LDRB, Op.STRB}
_IMM16_ONLY = {Op.SVC, Op.HLT, Op.BRK}
_NO_OPERANDS = {Op.NOP, Op.ERET, Op.WFI, Op.DMB, Op.YIELD, Op.UDF}


def encode(inst: Instruction) -> int:
    """Encode a decoded instruction back to its 32-bit word."""
    op = Op(inst.op)
    word = int(op) << 26
    if op in _NO_OPERANDS:
        return word
    if op in (Op.MOVZ, Op.MOVK):
        if inst.imm & 0xFFFF != inst.imm:
            raise DecodeError(f"{op.name} imm16 out of range: {inst.imm}")
        if inst.rm not in (0, 1, 2, 3):
            raise DecodeError(f"{op.name} shift slot must encode 0..3, got {inst.rm}")
        # layout: rd[25:21] shift[17:16] imm16[15:0]
        return word | (inst.rd << 21) | (inst.rm << 16) | inst.imm
    if op in _REG3:
        return word | (inst.rd << 21) | (inst.rn << 16) | (inst.rm << 11)
    if op in _REG2_IMM12:
        return word | (inst.rd << 21) | (inst.rn << 16) | _unsigned(inst.imm, 12)
    if op in _REG2_IMM11:
        return word | (inst.rd << 21) | (inst.rn << 16) | _unsigned(inst.imm, 11)
    if op in _REG2_IMM6:
        return word | (inst.rd << 21) | (inst.rn << 16) | _unsigned(inst.imm, 6)
    if op is Op.CMP:
        return word | (inst.rn << 16) | (inst.rm << 11)
    if op is Op.CMPI:
        return word | (inst.rn << 16) | _unsigned(inst.imm, 12)
    if op is Op.MOV:
        return word | (inst.rd << 21) | (inst.rn << 16)
    if op in _MEM:
        return word | (inst.rd << 21) | (inst.rn << 16) | _unsigned(inst.imm, 16)
    if op is Op.LDXR:
        return word | (inst.rd << 21) | (inst.rn << 16)
    if op is Op.STXR:
        return word | (inst.rd << 21) | (inst.rn << 16) | (inst.rm << 11)
    if op in (Op.B, Op.BL):
        return word | _unsigned(inst.imm, 26)
    if op is Op.BCOND:
        return word | (int(inst.cond) << 22) | _unsigned(inst.imm, 22)
    if op in (Op.CBZ, Op.CBNZ):
        return word | (inst.rd << 21) | _unsigned(inst.imm, 21)
    if op in (Op.BR, Op.RET):
        return word | (inst.rn << 16)
    if op in _IMM16_ONLY:
        return word | _unsigned(inst.imm, 16)
    if op is Op.MRS:
        return word | (inst.rd << 21) | _unsigned(inst.imm, 16)
    if op is Op.MSR:
        return word | (inst.rn << 16) | _unsigned(inst.imm, 16)
    if op is Op.MSRI:
        # rm bit0: 1=set, 0=clear; imm: DAIF mask bits
        return word | ((inst.rm & 1) << 21) | _unsigned(inst.imm, 4)
    if op is Op.ADR:
        return word | (inst.rd << 21) | _unsigned(inst.imm, 21)
    raise DecodeError(f"cannot encode opcode {op!r}")


def decode(word: int) -> Instruction:
    """Decode a 32-bit word into an :class:`Instruction`."""
    if not 0 <= word < (1 << 32):
        raise DecodeError(f"instruction word out of range: {word:#x}")
    opcode = (word >> 26) & 0x3F
    try:
        op = Op(opcode)
    except ValueError:
        raise DecodeError(f"unknown opcode {opcode} in word {word:#010x}") from None
    if op in _NO_OPERANDS:
        return Instruction(op)
    rd = (word >> 21) & 0x1F
    rn = (word >> 16) & 0x1F
    rm = (word >> 11) & 0x1F
    imm16 = word & 0xFFFF
    if op in (Op.MOVZ, Op.MOVK):
        return Instruction(op, rd=rd, rm=(word >> 16) & 0x3, imm=imm16)
    if op in _REG3:
        return Instruction(op, rd=rd, rn=rn, rm=rm)
    if op in _REG2_IMM12:
        return Instruction(op, rd=rd, rn=rn, imm=word & 0xFFF)
    if op in _REG2_IMM11:
        return Instruction(op, rd=rd, rn=rn, imm=word & 0x7FF)
    if op in _REG2_IMM6:
        return Instruction(op, rd=rd, rn=rn, imm=word & 0x3F)
    if op is Op.CMP:
        return Instruction(op, rn=rn, rm=rm)
    if op is Op.CMPI:
        return Instruction(op, rn=rn, imm=word & 0xFFF)
    if op is Op.MOV:
        return Instruction(op, rd=rd, rn=rn)
    if op in _MEM:
        return Instruction(op, rd=rd, rn=rn, imm=_signed(imm16, 16))
    if op is Op.LDXR:
        return Instruction(op, rd=rd, rn=rn)
    if op is Op.STXR:
        return Instruction(op, rd=rd, rn=rn, rm=rm)
    if op in (Op.B, Op.BL):
        return Instruction(op, imm=_signed(word & 0x3FFFFFF, 26))
    if op is Op.BCOND:
        try:
            cond = Cond((word >> 22) & 0xF)
        except ValueError:
            raise DecodeError(
                f"unknown condition {(word >> 22) & 0xF} in word {word:#010x}") from None
        return Instruction(op, cond=cond, imm=_signed(word & 0x3FFFFF, 22))
    if op in (Op.CBZ, Op.CBNZ):
        return Instruction(op, rd=rd, imm=_signed(word & 0x1FFFFF, 21))
    if op in (Op.BR, Op.RET):
        return Instruction(op, rn=rn)
    if op in _IMM16_ONLY:
        return Instruction(op, imm=imm16)
    if op is Op.MRS:
        return Instruction(op, rd=rd, imm=imm16)
    if op is Op.MSR:
        return Instruction(op, rn=rn, imm=imm16)
    if op is Op.MSRI:
        return Instruction(op, rm=(word >> 21) & 1, imm=word & 0xF)
    if op is Op.ADR:
        return Instruction(op, rd=rd, imm=_signed(word & 0x1FFFFF, 21))
    raise DecodeError(f"unhandled opcode in decode: {op!r}")  # pragma: no cover


#: Opcodes that terminate a basic block (used by the DBT cost model).
BLOCK_TERMINATORS = frozenset({
    Op.B, Op.BL, Op.BCOND, Op.CBZ, Op.CBNZ, Op.BR, Op.RET,
    Op.SVC, Op.ERET, Op.HLT, Op.BRK, Op.UDF, Op.WFI,
})

#: Opcodes that access data memory (used by the ISS software-MMU cost model).
MEMORY_OPS = frozenset({
    Op.LDR, Op.STR, Op.LDRW, Op.STRW, Op.LDRB, Op.STRB, Op.LDXR, Op.STXR,
})
