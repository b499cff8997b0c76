"""Differential check of the interpreter's chunk cache.

A random A64-lite program runs twice on a bare interpreter: once stepped
with ``run(1)``, so every entry runs one instruction, and once with large
budgets, so whole chunks run from the cache.  The two runs must leave the
same registers, counters, RAM and exit sequence.  The programs mix ALU
ops, loads and stores (some into their own code), branch loops,
``MRS CNTVCT``, IRQ masking with ``MSRI``, ``SVC`` through the vector
table back with ``ERET``, and MMIO loads and stores.

The same programs also run with the MMU on, where chunks are keyed by
virtual PC and their fetches are counted as TLB hits in bulk.  There the
code crosses a 4 KiB page, data sits on several pages (one read-only, one
unmapped, one mapping an MMIO page), the TLB holds as few as two entries,
and the runs must also agree on TLB hits, misses and page walks.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.isa import Cond, Instruction, Op, SysReg, encode
from repro.arch.mmu import PAGE_SIZE, PageTableBuilder
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

#: With the MMU on the code starts eight instructions before a page
#: boundary.  Loads and stores reach three writable data pages, a
#: read-only page, an unmapped page and a page that maps the MMIO window,
#: each through its own base register; ``TTBR_REG`` holds the table root.
MMU_CODE = 0x2000 - 0x20
DATA2_REG, DATA3_REG, RO_REG, UNMAPPED_REG, TTBR_REG = 14, 15, 16, 17, 18
MMU_BASES = {DATA_REG: 0x8000, DATA2_REG: 0x9000, DATA3_REG: 0xA000,
             RO_REG: 0xB000, UNMAPPED_REG: 0xC000, MMIO_REG: 0xD000}
#: Pages backed by RAM: the two code pages, the vectors, the data pages.
MMU_PAGES = (0x1000, 0x2000, VBAR, 0x8000, 0x9000, 0xA000, 0xB000)
TABLES = 0x3_0000

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

_COMMON = (
    st.builds(Instruction, st.sampled_from([Op.ADD, Op.SUB, Op.MUL, Op.UDIV,
                                            Op.AND, Op.ORR, Op.EOR]),
              rd=_dest, rn=_src, rm=_src),
    st.builds(Instruction, st.sampled_from([Op.ADDI, Op.SUBI]),
              rd=_dest, rn=_src, imm=st.integers(0, 0xFFF)),
    st.builds(Instruction, st.just(Op.MOVZ), rd=_dest, rm=st.integers(0, 3),
              imm=st.integers(0, 0xFFFF)),
    st.builds(Instruction, st.just(Op.CMP), rn=_src, rm=_src),
    st.builds(Instruction, st.just(Op.CMPI), rn=_src, imm=st.integers(0, 16)),
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


def _instructions(load_bases, store_bases, *extra):
    """A strategy for one program instruction; loads and stores address
    ``imm`` bytes past one of the given base registers."""
    return st.one_of(
        *_COMMON,
        st.builds(Instruction, st.sampled_from([Op.LDR, Op.LDRW, Op.LDRB]), rd=_dest,
                  rn=st.sampled_from(load_bases), imm=st.integers(0, 0x40)),
        st.builds(Instruction, st.sampled_from([Op.STR, Op.STRW, Op.STRB]), rd=_src,
                  rn=st.sampled_from(store_bases), imm=st.integers(0, 0x40)),
        *extra,
    )


_INSTRUCTION = _instructions([DATA_REG, DATA_REG, CODE_REG, MMIO_REG], [DATA_REG, MMIO_REG])

_MMU_BASE = st.sampled_from(sorted(MMU_BASES) + [CODE_REG])
_MMU_INSTRUCTION = _instructions(
    sorted(MMU_BASES) + [DATA_REG, CODE_REG], sorted(MMU_BASES) + [DATA_REG],
    st.builds(Instruction, st.just(Op.LDXR), rd=_dest, rn=_MMU_BASE),
    st.builds(Instruction, st.just(Op.STXR), rd=_dest, rn=_MMU_BASE, rm=_src),
    # Rewriting TTBR0 flushes the TLB.
    st.just(Instruction(Op.MSR, rn=TTBR_REG, imm=SysReg.TTBR0_EL1)),
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
mmu_programs = st.lists(_MMU_INSTRUCTION, min_size=4, max_size=24).map(_place)


def _map_pages(ram, identity):
    """Build the MMU-on page tables in ``ram``; return their root and the
    VA -> PA map of RAM pages.  The non-identity map puts the pages in
    reverse order, so code crossing its VA page jumps back in PA."""
    tables = PageTableBuilder(ram, TABLES)
    pages = {}
    for index, va in enumerate(MMU_PAGES):
        pages[va] = va if identity else 0x1_0000 + PAGE_SIZE * (len(MMU_PAGES) - index)
        tables.map_page(va, pages[va], writable=va != MMU_BASES[RO_REG])
    tables.map_page(MMU_BASES[MMIO_REG], MMIO)
    return tables.root, pages


def build(program, seed_regs, word, irq, sync_vector, mmu=None):
    """A bare interpreter loaded with ``program``; ``mmu`` is None to run
    with the MMU off, else ``(identity, tlb_capacity)``."""
    memory = GuestMemoryMap()
    ram = bytearray(0x1_0000 if mmu is None else 0x4_0000)
    memory.add_slot(0, memoryview(ram))
    state = CpuState()
    code, pages, capacity = CODE, None, 512
    if mmu is not None:
        identity, capacity = mmu
        code = MMU_CODE
        root, pages = _map_pages(ram, identity)
        state.regs[TTBR_REG] = root
        for reg, va in MMU_BASES.items():
            state.regs[reg] = va
        state.write_sysreg(SysReg.TTBR0_EL1, root)
        state.write_sysreg(SysReg.SCTLR_EL1, 1)
    for base, words in ((code, program), (VBAR, sync_vector), (VBAR + 0x80, IRQ_VECTOR)):
        for va in range(base, base + 4 * len(words), 4):
            pa = va if pages is None else pages[va & ~(PAGE_SIZE - 1)] | va % PAGE_SIZE
            memory.write(pa, encode(words[(va - base) // 4]).to_bytes(4, "little"))
    state.pc = code
    state.write_sysreg(SysReg.VBAR_EL1, VBAR)
    for index, value in enumerate(seed_regs):
        state.write_reg(index, value)
    state.regs[WORD_REG] = word
    state.regs[CODE_REG] = code
    if mmu is None:
        state.regs[DATA_REG] = DATA
        state.regs[MMIO_REG] = MMIO
    interp = Interpreter(state, memory, tlb_capacity=capacity)
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


def outcome(program, seed_regs, word, irq, sync_vector, budget, mmu=None):
    interp, ram = build(program, seed_regs, word, irq, sync_vector, mmu)
    exits = drive(interp, budget)
    tlb = interp.mmu.tlb
    return (interp.state.snapshot(), interp.sample_stats(), bytes(ram), exits,
            (tlb.hits, tlb.misses, interp.mmu.walks))


@given(programs, st.lists(st.integers(0, 0xFFFF), min_size=6, max_size=6),
       st.sampled_from(REPLACEMENTS), st.booleans(), st.sampled_from(SYNC_VECTORS),
       st.sampled_from([5, LIMIT]))
@settings(max_examples=200, deadline=None)
def test_chunked_run_matches_stepped_run(program, seed_regs, word, irq, sync_vector,
                                         budget):
    stepped = outcome(program, seed_regs, word, irq, sync_vector, 1)
    chunked = outcome(program, seed_regs, word, irq, sync_vector, budget)
    assert chunked == stepped


@given(mmu_programs, st.lists(st.integers(0, 0xFFFF), min_size=6, max_size=6),
       st.sampled_from(REPLACEMENTS), st.booleans(), st.sampled_from(SYNC_VECTORS),
       st.booleans(), st.sampled_from([2, 3, 4, 512]), st.sampled_from([5, LIMIT]))
@settings(max_examples=300, deadline=None)
def test_chunked_run_matches_stepped_run_with_mmu(program, seed_regs, word, irq,
                                                  sync_vector, identity, capacity, budget):
    mmu = (identity, capacity)
    stepped = outcome(program, seed_regs, word, irq, sync_vector, 1, mmu)
    chunked = outcome(program, seed_regs, word, irq, sync_vector, budget, mmu)
    assert chunked == stepped
