"""Differential check of the interpreter's chunk cache.

A random A64-lite program runs twice on a bare interpreter: once stepped
with ``run(1)``, so every entry runs one instruction, and once with large
budgets, so whole chunks run from the cache.  The two runs must leave the
same registers, counters, RAM and exit sequence.  The programs mix ALU
ops, loads and stores (some into their own code), branch loops,
``MRS CNTVCT``, IRQ masking with ``MSRI``, ``SVC`` through the vector
table back with ``ERET``, and MMIO loads and stores.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.isa import Cond, Instruction, Op, SysReg, encode
from repro.arch.registers import CpuState
from repro.iss.executor import ExitReason, GuestMemoryMap
from repro.iss.interpreter import Interpreter

CODE = 0x1000
VBAR = 0x4000
DATA = 0x8000
MMIO = 0x9000_0000
#: retired instructions per run of a program
LIMIT = 300

#: Registers the program only reads: the word its stores write into its
#: own code, the code base, the data base and the MMIO base.
WORD_REG, CODE_REG, DATA_REG, MMIO_REG = 6, 7, 8, 9

#: Words the program may store into its own code.
REPLACEMENTS = [encode(inst) for inst in (
    Instruction(Op.MOVZ, rd=1, imm=7),
    Instruction(Op.ADDI, rd=2, rn=2, imm=1),
    Instruction(Op.NOP),
    Instruction(Op.B, imm=2),
)]

#: Synchronous vectors: skip the instruction that trapped, count and
#: return; or count and trap again, a fault loop that retires an
#: instruction per fault and so never reads as wedged.
SYNC_VECTORS = [
    [
        Instruction(Op.MRS, rd=10, imm=SysReg.ELR_EL1),
        Instruction(Op.ADDI, rd=10, rn=10, imm=4),
        Instruction(Op.MSR, rn=10, imm=SysReg.ELR_EL1),
        Instruction(Op.ADDI, rd=11, rn=11, imm=1),
        Instruction(Op.ERET),
    ],
    [
        Instruction(Op.ADDI, rd=11, rn=11, imm=1),
        Instruction(Op.UDF),
    ],
]

#: IRQ vector: count, return with IRQs masked (SPSR.I is bit 7).
IRQ_VECTOR = [
    Instruction(Op.ADDI, rd=12, rn=12, imm=1),
    Instruction(Op.MRS, rd=13, imm=SysReg.SPSR_EL1),
    Instruction(Op.ORRI, rd=13, rn=13, imm=0x80),
    Instruction(Op.MSR, rn=13, imm=SysReg.SPSR_EL1),
    Instruction(Op.ERET),
]

_dest = st.integers(0, 5)
_src = st.integers(0, 9)
#: a branch target or a code slot to store into, placed by :func:`_place`
_slot = st.integers(0, 63)

_BRANCHES = {Op.B, Op.CBZ, Op.CBNZ, Op.BCOND}

_INSTRUCTION = st.one_of(
    st.builds(Instruction, st.sampled_from([Op.ADD, Op.SUB, Op.MUL, Op.UDIV,
                                            Op.AND, Op.ORR, Op.EOR]),
              rd=_dest, rn=_src, rm=_src),
    st.builds(Instruction, st.sampled_from([Op.ADDI, Op.SUBI]),
              rd=_dest, rn=_src, imm=st.integers(0, 0xFFF)),
    st.builds(Instruction, st.just(Op.MOVZ), rd=_dest, rm=st.integers(0, 3),
              imm=st.integers(0, 0xFFFF)),
    st.builds(Instruction, st.just(Op.CMP), rn=_src, rm=_src),
    st.builds(Instruction, st.just(Op.CMPI), rn=_src, imm=st.integers(0, 16)),
    st.builds(Instruction, st.sampled_from([Op.LDR, Op.LDRW, Op.LDRB]), rd=_dest,
              rn=st.sampled_from([DATA_REG, DATA_REG, CODE_REG, MMIO_REG]),
              imm=st.integers(0, 0x40)),
    st.builds(Instruction, st.sampled_from([Op.STR, Op.STRW, Op.STRB]), rd=_src,
              rn=st.sampled_from([DATA_REG, MMIO_REG]), imm=st.integers(0, 0x40)),
    # A store into the program's own code (``imm`` is a slot until placed).
    st.builds(Instruction, st.sampled_from([Op.STRW, Op.STRW, Op.STRB]),
              rd=st.sampled_from([WORD_REG, WORD_REG, 0]), rn=st.just(CODE_REG), imm=_slot),
    st.builds(Instruction, st.just(Op.B), imm=_slot),
    st.builds(Instruction, st.sampled_from([Op.CBZ, Op.CBNZ]), rd=_dest, imm=_slot),
    st.builds(Instruction, st.just(Op.BCOND),
              cond=st.sampled_from([Cond.EQ, Cond.NE, Cond.LO, Cond.GE]), imm=_slot),
    st.builds(Instruction, st.just(Op.MRS), rd=_dest, imm=st.just(SysReg.CNTVCT_EL0)),
    st.builds(Instruction, st.just(Op.MSRI), rm=st.integers(0, 1), imm=st.just(2)),
    st.builds(Instruction, st.just(Op.SVC), imm=st.integers(0, 3)),
    st.just(Instruction(Op.WFI)),
)


def _place(body):
    """Turn slots into branch offsets and store offsets inside the program,
    and end it with two HLTs.  Half the stores into code hit one of the
    next three instructions, which may sit in the store's own chunk."""
    length = len(body)
    placed = []
    for index, inst in enumerate(body):
        if inst.op in _BRANCHES:
            inst = inst._replace(imm=inst.imm % (length + 1) - index)
        elif inst.rn == CODE_REG and inst.op in (Op.STRW, Op.STRB):
            slot = index + 1 + inst.imm % 3 if inst.imm < 32 else inst.imm
            inst = inst._replace(imm=4 * (slot % length))
        placed.append(inst)
    return placed + [Instruction(Op.HLT), Instruction(Op.HLT)]


programs = st.lists(_INSTRUCTION, min_size=4, max_size=24).map(_place)


def build(program, seed_regs, word, irq, sync_vector):
    memory = GuestMemoryMap()
    ram = bytearray(0x1_0000)
    memory.add_slot(0, memoryview(ram))
    for base, code in ((CODE, program), (VBAR, sync_vector), (VBAR + 0x80, IRQ_VECTOR)):
        memory.write(base, b"".join(encode(inst).to_bytes(4, "little") for inst in code))
    state = CpuState()
    state.pc = CODE
    state.write_sysreg(SysReg.VBAR_EL1, VBAR)
    for index, value in enumerate(seed_regs):
        state.write_reg(index, value)
    state.regs[WORD_REG] = word
    state.regs[CODE_REG] = CODE
    state.regs[DATA_REG] = DATA
    state.regs[MMIO_REG] = MMIO
    interp = Interpreter(state, memory)
    interp.set_irq(irq)
    return interp, ram


def drive(interp, budget):
    """Run to HLT, an error or LIMIT retired instructions in runs of at most
    ``budget``; return the exits other than BUDGET as (reason, pc)."""
    state = interp.state
    exits = []
    while state.instret < LIMIT:
        info = interp.run(min(budget, LIMIT - state.instret))
        if info.reason is ExitReason.BUDGET:
            continue
        exits.append((info.reason, info.pc))
        if info.reason is ExitReason.MMIO:
            request = info.mmio
            if request.is_write:
                interp.complete_mmio()
            else:
                value = (request.address * 0x9E37 + state.instret) % (1 << (8 * request.size))
                interp.complete_mmio(value.to_bytes(request.size, "little"))
        elif info.reason is not ExitReason.WFI:
            break
    return exits


def outcome(program, seed_regs, word, irq, sync_vector, budget):
    interp, ram = build(program, seed_regs, word, irq, sync_vector)
    exits = drive(interp, budget)
    return interp.state.snapshot(), interp.sample_stats(), bytes(ram), exits


@given(programs, st.lists(st.integers(0, 0xFFFF), min_size=6, max_size=6),
       st.sampled_from(REPLACEMENTS), st.booleans(), st.sampled_from(SYNC_VECTORS),
       st.sampled_from([5, LIMIT]))
@settings(max_examples=200, deadline=None)
def test_chunked_run_matches_stepped_run(program, seed_regs, word, irq, sync_vector,
                                         budget):
    stepped = outcome(program, seed_regs, word, irq, sync_vector, 1)
    chunked = outcome(program, seed_regs, word, irq, sync_vector, budget)
    assert chunked == stepped
