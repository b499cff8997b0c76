"""A64-lite encode/decode, including a hypothesis round-trip over the
entire instruction space."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.isa import (
    BLOCK_TERMINATORS,
    MEMORY_OPS,
    Cond,
    DecodeError,
    Instruction,
    Op,
    decode,
    encode,
)


class TestEncodeDecodeBasics:
    def test_nop_is_zero_word(self):
        assert encode(Instruction(Op.NOP)) == 0
        assert decode(0).op is Op.NOP

    def test_movz_with_shift(self):
        inst = Instruction(Op.MOVZ, rd=3, rm=2, imm=0xBEEF)
        assert decode(encode(inst)) == inst

    def test_reg3(self):
        inst = Instruction(Op.ADD, rd=1, rn=2, rm=3)
        assert decode(encode(inst)) == inst

    def test_memory_signed_offset(self):
        inst = Instruction(Op.LDR, rd=5, rn=31, imm=-48)
        assert decode(encode(inst)) == inst

    def test_branch_negative_offset(self):
        inst = Instruction(Op.B, imm=-100)
        assert decode(encode(inst)) == inst

    def test_bcond_fields(self):
        inst = Instruction(Op.BCOND, cond=Cond.LE, imm=-3)
        round_tripped = decode(encode(inst))
        assert round_tripped.cond is Cond.LE
        assert round_tripped.imm == -3

    def test_stxr_three_registers(self):
        inst = Instruction(Op.STXR, rd=1, rn=2, rm=3)
        assert decode(encode(inst)) == inst

    def test_msri_set_and_clear(self):
        set_inst = Instruction(Op.MSRI, rm=1, imm=0x2)
        clr_inst = Instruction(Op.MSRI, rm=0, imm=0x2)
        assert decode(encode(set_inst)) == set_inst
        assert decode(encode(clr_inst)) == clr_inst

    def test_adr_negative(self):
        inst = Instruction(Op.ADR, rd=7, imm=-4096)
        assert decode(encode(inst)) == inst


class TestDecodeErrors:
    def test_unknown_opcode(self):
        with pytest.raises(DecodeError):
            decode(0x3F << 26)

    def test_out_of_range_word(self):
        with pytest.raises(DecodeError):
            decode(1 << 32)
        with pytest.raises(DecodeError):
            decode(-1)

    def test_bcond_unknown_condition(self):
        # Condition field 15 names no Cond; it is undecodable, not a ValueError.
        with pytest.raises(DecodeError):
            decode((Op.BCOND << 26) | (0xF << 22))

    def test_movz_imm_out_of_range_rejected_on_encode(self):
        with pytest.raises(DecodeError):
            encode(Instruction(Op.MOVZ, rd=0, imm=0x10000))

    def test_movz_bad_shift_slot(self):
        with pytest.raises(DecodeError):
            encode(Instruction(Op.MOVZ, rd=0, rm=4, imm=0))


class TestClassification:
    def test_terminators_include_all_branches(self):
        for op in (Op.B, Op.BL, Op.BCOND, Op.CBZ, Op.CBNZ, Op.BR, Op.RET,
                   Op.SVC, Op.ERET, Op.HLT, Op.WFI):
            assert op in BLOCK_TERMINATORS

    def test_memory_ops(self):
        for op in (Op.LDR, Op.STR, Op.LDRB, Op.STXR):
            assert op in MEMORY_OPS
        assert Op.ADD not in MEMORY_OPS


# -- hypothesis: full-ISA encode/decode round trip --------------------------

_regs = st.integers(0, 31)


def _inst(op, rd=None, rn=None, rm=None, imm=None, cond=None):
    """Instruction strategy with every unspecified field pinned to zero
    (st.builds would otherwise fill optional NamedTuple fields randomly)."""
    return st.builds(
        Instruction,
        op=st.just(op),
        rd=rd if rd is not None else st.just(0),
        rn=rn if rn is not None else st.just(0),
        rm=rm if rm is not None else st.just(0),
        imm=imm if imm is not None else st.just(0),
        cond=cond if cond is not None else st.just(Cond.AL),
    )


def _instruction_strategy():
    choices = []
    choices.append(_inst(Op.NOP))
    for op in (Op.MOVZ, Op.MOVK):
        choices.append(_inst(op, rd=_regs, rm=st.integers(0, 3), imm=st.integers(0, 0xFFFF)))
    for op in (Op.ADD, Op.SUB, Op.MUL, Op.UDIV, Op.UREM, Op.AND, Op.ORR, Op.EOR):
        choices.append(_inst(op, rd=_regs, rn=_regs, rm=_regs))
    for op in (Op.ADDI, Op.SUBI):
        choices.append(_inst(op, rd=_regs, rn=_regs, imm=st.integers(0, 0xFFF)))
    for op in (Op.ANDI, Op.ORRI, Op.EORI):
        choices.append(_inst(op, rd=_regs, rn=_regs, imm=st.integers(0, 0x7FF)))
    for op in (Op.LSLI, Op.LSRI, Op.ASRI):
        choices.append(_inst(op, rd=_regs, rn=_regs, imm=st.integers(0, 63)))
    choices.append(_inst(Op.CMP, rn=_regs, rm=_regs))
    choices.append(_inst(Op.CMPI, rn=_regs, imm=st.integers(0, 0xFFF)))
    choices.append(_inst(Op.MOV, rd=_regs, rn=_regs))
    for op in (Op.LDR, Op.STR, Op.LDRW, Op.STRW, Op.LDRB, Op.STRB):
        choices.append(_inst(op, rd=_regs, rn=_regs, imm=st.integers(-0x8000, 0x7FFF)))
    choices.append(_inst(Op.LDXR, rd=_regs, rn=_regs))
    choices.append(_inst(Op.STXR, rd=_regs, rn=_regs, rm=_regs))
    for op in (Op.B, Op.BL):
        choices.append(_inst(op, imm=st.integers(-(1 << 25), (1 << 25) - 1)))
    choices.append(_inst(Op.BCOND, cond=st.sampled_from(list(Cond)), imm=st.integers(-(1 << 21), (1 << 21) - 1)))
    for op in (Op.CBZ, Op.CBNZ):
        choices.append(_inst(op, rd=_regs, imm=st.integers(-(1 << 20), (1 << 20) - 1)))
    for op in (Op.BR, Op.RET):
        choices.append(_inst(op, rn=_regs))
    for op in (Op.SVC, Op.HLT, Op.BRK):
        choices.append(_inst(op, imm=st.integers(0, 0xFFFF)))
    for op in (Op.ERET, Op.WFI, Op.DMB, Op.YIELD, Op.UDF):
        choices.append(_inst(op))
    choices.append(_inst(Op.MRS, rd=_regs, imm=st.integers(0, 0xFFFF)))
    choices.append(_inst(Op.MSR, rn=_regs, imm=st.integers(0, 0xFFFF)))
    choices.append(_inst(Op.MSRI, rm=st.integers(0, 1), imm=st.integers(0, 0xF)))
    choices.append(_inst(Op.ADR, rd=_regs, imm=st.integers(-(1 << 20), (1 << 20) - 1)))
    return st.one_of(choices)


class TestRoundTripProperty:
    @given(_instruction_strategy())
    def test_encode_decode_roundtrip(self, inst):
        word = encode(inst)
        assert 0 <= word < (1 << 32)
        assert decode(word) == inst

    @given(st.integers(0, (1 << 32) - 1))
    def test_decode_never_crashes_unexpectedly(self, word):
        try:
            inst = decode(word)
        except DecodeError:
            return
        # Anything decodable re-encodes to *a* valid word of the same opcode.
        assert decode(encode(inst)).op is inst.op
