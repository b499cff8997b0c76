"""Functional interpreter: instruction semantics and the exit protocol."""

import pytest

from repro.arch.assembler import assemble
from repro.arch.isa import Instruction, Op, SysReg, encode
from repro.arch.mmu import PageTableBuilder
from repro.arch.registers import CpuState
from repro.iss.executor import ExitReason
from repro.iss.interpreter import _HANDLERS, GlobalMonitor, Interpreter
from repro.snapshot import Snapshot
from repro.systemc.time import SimTime
from repro.vp import GuestSoftware, VpConfig, build_platform

MMIO_BASE = 0x9000_0000


def run_to_halt(guest, source, budget=100_000):
    harness = guest(source)
    info = harness.run(budget)
    assert info.reason is ExitReason.HALT, info
    return harness


class TestArithmetic:
    def test_movz_movk_build_64bit(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x0, #0x1111, lsl #48
    movk x0, #0x2222, lsl #32
    movk x0, #0x3333, lsl #16
    movk x0, #0x4444
    hlt #0
""")
        assert harness.reg(0) == 0x1111222233334444

    def test_add_sub_wraparound(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0
    sub x1, x1, #1       // 0 - 1 wraps to all ones
    add x2, x1, #2
    hlt #0
""")
        assert harness.reg(1) == 0xFFFFFFFFFFFFFFFF
        assert harness.reg(2) == 1

    def test_mul_udiv_urem(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #7
    movz x2, #3
    mul x3, x1, x2
    udiv x4, x1, x2
    urem x5, x1, x2
    movz x6, #0
    udiv x7, x1, x6     // division by zero gives 0 (ARM semantics)
    hlt #0
""")
        assert harness.reg(3) == 21
        assert harness.reg(4) == 2
        assert harness.reg(5) == 1
        assert harness.reg(7) == 0

    def test_logic_and_shifts(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0xF0F0
    movz x2, #0x0FF0
    and x3, x1, x2
    orr x4, x1, x2
    eor x5, x1, x2
    lsl x6, x1, #4
    lsr x7, x1, #4
    andi x8, x1, #0xF0
    orri x9, x1, #0xF
    eori x10, x1, #0x1
    hlt #0
""")
        assert harness.reg(3) == 0x0FF0 & 0xF0F0
        assert harness.reg(4) == 0xFFF0
        assert harness.reg(5) == 0xF0F0 ^ 0x0FF0
        assert harness.reg(6) == 0xF0F00
        assert harness.reg(7) == 0xF0F
        assert harness.reg(8) == 0xF0
        assert harness.reg(9) == 0xF0FF
        assert harness.reg(10) == 0xF0F1

    def test_asr_sign_extends(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x8000, lsl #48
    asr x2, x1, #60
    hlt #0
""")
        assert harness.reg(2) == 0xFFFFFFFFFFFFFFF8

    def test_mov_register(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #55
    mov x2, x1
    hlt #0
""")
        assert harness.reg(2) == 55


class TestBranches:
    @pytest.mark.parametrize("cond,a,b,taken", [
        ("eq", 5, 5, True), ("eq", 5, 6, False),
        ("ne", 5, 6, True), ("ne", 5, 5, False),
        ("lo", 4, 5, True), ("lo", 5, 4, False),
        ("hs", 5, 5, True), ("hs", 4, 5, False),
        ("hi", 6, 5, True), ("hi", 5, 5, False),
        ("ls", 5, 5, True), ("ls", 6, 5, False),
        ("lt", 4, 5, True), ("lt", 5, 4, False),
        ("ge", 5, 5, True), ("ge", 4, 5, False),
        ("gt", 6, 5, True), ("gt", 5, 5, False),
        ("le", 5, 5, True), ("le", 6, 5, False),
    ])
    def test_conditions_unsigned_small(self, guest, cond, a, b, taken):
        harness = run_to_halt(guest, f"""
_start:
    movz x1, #{a}
    movz x2, #{b}
    movz x0, #0
    cmp x1, x2
    b.{cond} hit
    b end
hit:
    movz x0, #1
end:
    hlt #0
""")
        assert harness.reg(0) == (1 if taken else 0)

    def test_signed_comparison_negative(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0
    sub x1, x1, #5       // -5
    movz x2, #3
    movz x0, #0
    cmp x1, x2
    b.lt hit             // -5 < 3 signed
    b end
hit:
    movz x0, #1
end:
    hlt #0
""")
        assert harness.reg(0) == 1

    def test_unsigned_comparison_wrapped(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0
    sub x1, x1, #5       // huge unsigned value
    movz x2, #3
    movz x0, #0
    cmp x1, x2
    b.hi hit             // unsigned: 2^64-5 > 3
    b end
hit:
    movz x0, #1
end:
    hlt #0
""")
        assert harness.reg(0) == 1

    def test_bl_ret_and_br(self, guest):
        harness = run_to_halt(guest, """
_start:
    bl fn
    movz x2, #2
    adr x3, target
    br x3
    hlt #1
target:
    hlt #0
fn:
    movz x1, #1
    ret
""")
        assert harness.reg(1) == 1
        assert harness.reg(2) == 2
        assert harness.run(10).halt_code == 0

    def test_loop_with_cbnz(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x0, #0
    movz x1, #10
loop:
    add x0, x0, x1
    sub x1, x1, #1
    cbnz x1, loop
    hlt #0
""")
        assert harness.reg(0) == 55


class TestMemory:
    def test_sizes_and_zero_extension(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2000
    movz x2, #0xBEEF
    movk x2, #0xDEAD, lsl #16
    str x2, [x1]
    ldr x3, [x1]
    ldrw x4, [x1]
    ldrb x5, [x1]
    strb x2, [x1, #16]
    ldr x6, [x1, #16]
    hlt #0
""")
        assert harness.reg(3) == 0xDEADBEEF
        assert harness.reg(4) == 0xDEADBEEF
        assert harness.reg(5) == 0xEF
        assert harness.reg(6) == 0xEF

    def test_negative_offsets(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2010
    movz x2, #77
    str x2, [x1, #-8]
    ldr x3, [x1, #-8]
    hlt #0
""")
        assert harness.reg(3) == 77

    def test_strw_truncates(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2000
    movz x2, #0x1
    movk x2, #0x1, lsl #32    // bit 32 set
    strw x2, [x1]
    ldr x3, [x1]
    hlt #0
""")
        assert harness.reg(3) == 1


class TestExclusives:
    def test_ldxr_stxr_success(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2000
    movz x2, #5
    str x2, [x1]
    ldxr x3, [x1]
    add x3, x3, #1
    stxr x4, x3, [x1]
    ldr x5, [x1]
    hlt #0
""")
        assert harness.reg(4) == 0      # success
        assert harness.reg(5) == 6

    def test_stxr_without_reservation_fails(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2000
    movz x3, #9
    stxr x4, x3, [x1]
    ldr x5, [x1]
    hlt #0
""")
        assert harness.reg(4) == 1      # failure
        assert harness.reg(5) == 0

    @staticmethod
    def _second_core(first, core_id=1):
        """Another core sharing the first harness's memory and monitor."""
        from repro.arch.registers import CpuState
        from repro.iss.interpreter import Interpreter

        state = CpuState(core_id)
        state.pc = first.image.entry
        return state, Interpreter(state, first.memory, first.interp.monitor)

    def test_other_core_store_breaks_reservation(self, guest):
        source = """
_start:
    mrs x0, MPIDR_EL1
    cbnz x0, core1
    // core 0: take a reservation, then halt (pretend it got preempted)
    movz x1, #0x2000
    ldxr x3, [x1]
    hlt #0
core1:
    movz x1, #0x2000
    movz x2, #42
    str x2, [x1]
    hlt #0
"""
        first = guest(source, core_id=0)
        assert first.run().reason is ExitReason.HALT
        assert first.interp.monitor.check(0, 0x2000)
        _state, second = self._second_core(first)
        assert second.run(100).reason is ExitReason.HALT
        # The store from core 1 broke core 0's reservation.
        assert not first.interp.monitor.check(0, 0x2000)

    def test_spinlock_between_two_cores(self, guest):
        source = """
.equ LOCK, 0x3000
_start:
    movz x9, #LOCK
acquire:
    ldxr x1, [x9]
    cbnz x1, acquire
    movz x2, #1
    stxr x3, x2, [x9]
    cbnz x3, acquire
    // critical section: increment counter at LOCK+8
    ldr x4, [x9, #8]
    add x4, x4, #1
    str x4, [x9, #8]
    // release
    movz x5, #0
    str x5, [x9]
    hlt #0
"""
        first = guest(source, core_id=0)
        _state, second = self._second_core(first)
        assert first.run().reason is ExitReason.HALT
        assert second.run(10_000).reason is ExitReason.HALT
        assert first.memory.read(0x3008, 8) == (2).to_bytes(8, "little")


class TestMmio:
    def test_write_then_read_roundtrip(self, guest):
        harness = guest(f"""
_start:
    movz x1, #0x9000, lsl #16
    movz x2, #0x77
    strw x2, [x1]
    ldrw x3, [x1]
    hlt #0
""")
        info = harness.run()
        assert info.reason is ExitReason.MMIO
        assert info.mmio.is_write and info.mmio.address == MMIO_BASE
        assert info.mmio.data == (0x77).to_bytes(4, "little")
        harness.interp.complete_mmio(None)
        info = harness.run()
        assert info.reason is ExitReason.MMIO and not info.mmio.is_write
        harness.interp.complete_mmio((0x99).to_bytes(4, "little"))
        info = harness.run()
        assert info.reason is ExitReason.HALT
        assert harness.reg(3) == 0x99

    def test_run_during_pending_mmio_rejected(self, guest):
        harness = guest("""
_start:
    movz x1, #0x9000, lsl #16
    strw x1, [x1]
    hlt #0
""")
        assert harness.run().reason is ExitReason.MMIO
        with pytest.raises(RuntimeError):
            harness.run()

    def test_wrong_completion_size_rejected(self, guest):
        harness = guest("""
_start:
    movz x1, #0x9000, lsl #16
    ldrw x2, [x1]
    hlt #0
""")
        harness.run()
        with pytest.raises(ValueError):
            harness.interp.complete_mmio(b"\x00")   # needs 4 bytes

    def test_complete_without_pending_rejected(self, guest):
        harness = guest("_start:\n    hlt #0\n")
        with pytest.raises(RuntimeError):
            harness.interp.complete_mmio(None)

    def test_instret_counts_mmio_instruction_once(self, guest):
        harness = guest("""
_start:
    movz x1, #0x9000, lsl #16
    strw x1, [x1]
    hlt #0
""")
        harness.run()
        before = harness.state.instret
        harness.interp.complete_mmio(None)
        assert harness.state.instret == before + 1


class TestExceptionsAndSysregs:
    def test_svc_reaches_vector_and_eret_returns(self, guest):
        harness = run_to_halt(guest, """
.equ VBAR, 0x4000
_start:
    movz x1, #VBAR
    msr VBAR_EL1, x1
    svc #7
    movz x5, #1          // runs after eret
    hlt #0

.org VBAR               // sync exception vector (EL1)
    mrs x2, ESR_EL1
    mrs x3, ELR_EL1
    movz x4, #1
    eret
""")
        assert harness.reg(4) == 1
        assert harness.reg(5) == 1
        esr = harness.reg(2)
        assert (esr >> 26) == 0x15      # SVC class
        assert esr & 0xFFFF == 7

    def test_undefined_instruction_traps(self, guest):
        harness = run_to_halt(guest, """
.equ VBAR, 0x4000
_start:
    movz x1, #VBAR
    msr VBAR_EL1, x1
    udf
    hlt #1               // skipped: handler halts with 0

.org VBAR
    hlt #0
""")

    def test_el0_sysreg_access_traps(self, guest):
        harness = run_to_halt(guest, """
.equ VBAR, 0x4000
_start:
    movz x1, #VBAR
    msr VBAR_EL1, x1
    // drop to EL0 at el0_code
    adr x2, el0_code
    msr ELR_EL1, x2
    movz x3, #0          // SPSR: EL0, irqs enabled
    msr SPSR_EL1, x3
    eret
el0_code:
    mrs x4, TTBR0_EL1    // privileged: traps
    hlt #2

.org VBAR
    nop
.org VBAR + 0x100       // sync-from-EL0 vector
    hlt #0
""")

    def test_mrs_cntvct_reads_instruction_count(self, guest):
        harness = run_to_halt(guest, """
_start:
    nop
    nop
    mrs x1, CNTVCT_EL0
    hlt #0
""")
        assert harness.reg(1) == 2

    def test_daifset_daifclr(self, guest):
        harness = run_to_halt(guest, """
_start:
    msr daifclr, #2
    mrs x1, DAIF
    msr daifset, #2
    mrs x2, DAIF
    hlt #0
""")
        assert harness.reg(1) & (2 << 6) == 0
        assert harness.reg(2) & (2 << 6) != 0

    def test_fault_loop_is_error_exit(self, guest):
        # VBAR points at unmapped MMIO space: taking the exception refaults.
        harness = guest("""
_start:
    movz x1, #0x9000, lsl #16
    msr VBAR_EL1, x1
    udf
""")
        info = harness.run()
        assert info.reason is ExitReason.ERROR


class TestInterrupts:
    SOURCE = """
.equ VBAR, 0x4000
_start:
    movz x1, #VBAR
    msr VBAR_EL1, x1
    msr daifclr, #2      // unmask IRQs
    movz x2, #0
loop:
    add x2, x2, #1
    b loop

.org VBAR + 0x80        // IRQ vector (EL1)
    movz x3, #1
    hlt #0
"""

    def test_irq_taken_when_unmasked(self, guest):
        harness = guest(self.SOURCE)
        harness.run(10)
        harness.interp.set_irq(True)
        info = harness.run(100)
        assert info.reason is ExitReason.HALT
        assert harness.reg(3) == 1

    def test_irq_held_while_masked(self, guest):
        harness = guest("""
_start:
    movz x2, #0
loop:
    add x2, x2, #1
    b loop
""")
        harness.interp.set_irq(True)     # IRQs masked at reset
        info = harness.run(50)
        assert info.reason is ExitReason.BUDGET

    def test_wfi_with_pending_irq_falls_through(self, guest):
        harness = guest("""
_start:
    wfi
    movz x1, #1
    hlt #0
""")
        harness.interp.set_irq(True)     # masked IRQ: WFI still wakes
        info = harness.run(100)
        assert info.reason is ExitReason.HALT
        assert harness.reg(1) == 1

    def test_wfi_exits_when_idle(self, guest):
        harness = guest("""
_start:
    wfi
    movz x1, #1
    hlt #0
""")
        info = harness.run(100)
        assert info.reason is ExitReason.WFI
        # Wake up: execution continues after the WFI.
        info = harness.run(100)
        assert info.reason is ExitReason.HALT


class TestBreakpoints:
    def test_breakpoint_hits_before_execution(self, guest):
        harness = guest("""
_start:
    movz x1, #1
target:
    movz x2, #2
    hlt #0
""")
        target = harness.image.find_symbol("target")
        harness.interp.set_breakpoint(target)
        info = harness.run(100)
        assert info.reason is ExitReason.BREAKPOINT
        assert info.pc == target
        assert harness.reg(2) == 0
        # Resume: skips the breakpoint once, executes, halts.
        info = harness.run(100)
        assert info.reason is ExitReason.HALT
        assert harness.reg(2) == 2

    def test_breakpoint_in_loop_rehits(self, guest):
        harness = guest("""
_start:
    movz x1, #0
loop:
    add x1, x1, #1
    cmp x1, #3
    b.ne loop
    hlt #0
""")
        loop = harness.image.find_symbol("loop")
        harness.interp.set_breakpoint(loop)
        hits = 0
        while True:
            info = harness.run(100)
            if info.reason is ExitReason.HALT:
                break
            assert info.reason is ExitReason.BREAKPOINT
            hits += 1
        assert hits == 3

    def test_clear_breakpoint(self, guest):
        harness = guest("""
_start:
target:
    hlt #0
""")
        target = harness.image.find_symbol("target")
        harness.interp.set_breakpoint(target)
        harness.interp.clear_breakpoint(target)
        assert harness.run(10).reason is ExitReason.HALT

    def test_breakpoint_on_trapping_instruction_rehits(self, guest):
        # Stepping off the breakpoint faults into the vector; the next pass
        # through the loop must stop there again.
        harness = guest("""
.equ VBAR, 0x4000
_start:
    movz x1, #VBAR
    msr VBAR_EL1, x1
    movz x2, #0
loop:
    add x2, x2, #1
target:
    svc #0
    cmp x2, #3
    b.ne loop
    hlt #0

.org VBAR
    eret
""")
        target = harness.image.find_symbol("target")
        harness.interp.set_breakpoint(target)
        hits = 0
        while True:
            info = harness.run(100)
            if info.reason is ExitReason.HALT:
                break
            assert info.reason is ExitReason.BREAKPOINT
            assert info.pc == target
            hits += 1
        assert hits == 3
        assert harness.interp.exceptions == 3

    def test_breakpoint_on_emulated_instruction_rehits(self, guest):
        harness = guest("""
_start:
    movz x2, #0
loop:
    add x2, x2, #1
target:
    mul x3, x2, x2
    cmp x2, #3
    b.ne loop
    hlt #0
""")
        target = harness.image.find_symbol("target")
        harness.interp.unsupported_ops = {Op.MUL}
        harness.interp.set_breakpoint(target)
        hits = 0
        while True:
            info = harness.run(100)
            if info.reason is ExitReason.HALT:
                break
            if info.reason is ExitReason.EMULATION:
                harness.interp.emulate_one()
                continue
            assert info.reason is ExitReason.BREAKPOINT
            hits += 1
        assert hits == 3
        assert harness.reg(3) == 9

    def test_breakpoint_on_hlt_leaves_no_skip(self, guest):
        harness = guest("""
_start:
target:
    hlt #0
""")
        target = harness.image.find_symbol("target")
        harness.interp.set_breakpoint(target)
        assert harness.run(10).reason is ExitReason.BREAKPOINT
        assert harness.run(10).reason is ExitReason.HALT
        assert harness.interp._skip_breakpoint_pc is None


class TestBudgetAndStats:
    def test_budget_exit(self, guest):
        harness = guest("""
_start:
loop:
    b loop
""")
        info = harness.run(10)
        assert info.reason is ExitReason.BUDGET
        assert info.instructions == 10

    def test_block_statistics(self, guest):
        harness = guest("""
_start:
    movz x1, #3
loop:
    sub x1, x1, #1
    cbnz x1, loop
    hlt #0
""")
        harness.run()
        stats = harness.interp.sample_stats()
        # Static blocks: entry block + loop body (+ the halt slot).
        assert stats.blocks_translated <= 3
        assert stats.blocks_entered >= 4    # loop entered three times

    def test_memory_op_counting(self, guest):
        harness = run_to_halt(guest, """
_start:
    movz x1, #0x2000
    str x1, [x1]
    ldr x2, [x1]
    hlt #0
""")
        assert harness.interp.sample_stats().memory_ops == 2

    def test_halted_cpu_stays_halted(self, guest):
        harness = run_to_halt(guest, "_start:\n    hlt #5\n")
        info = harness.run(10)
        assert info.reason is ExitReason.HALT
        assert info.instructions == 0


def test_every_opcode_has_a_handler():
    assert set(_HANDLERS) == set(Op)


class TestCodeRewrite:
    """Code rewritten in RAM runs as the new instruction, whoever wrote it.

    Only decoding is cached, keyed by the instruction word, and every
    fetch reads the current word from RAM; no writer has to invalidate
    anything.
    """

    NEW_WORD = encode(Instruction(Op.MOVZ, rd=1, imm=2))     # movz x1, #2

    SELF_PATCHING = f"""
_start:
    movz x4, #0
    movz x3, #0
again:
patched:
    movz x1, #1
    add x4, x4, x1          // pass 1 adds 1, pass 2 must add 2
    cbnz x3, done
    movz x3, #1
    adr x5, patched
    add x5, x5, x7          // x7: VA offset of the store's alias
    movz x6, #{NEW_WORD & 0xFFFF}
    movk x6, #{NEW_WORD >> 16}, lsl #16
    strw x6, [x5]
    b again
done:
    hlt #0
"""

    def test_guest_store_over_executed_instruction(self, guest):
        harness = run_to_halt(guest, self.SELF_PATCHING)
        assert harness.reg(1) == 2
        assert harness.reg(4) == 3

    def test_host_write_between_runs(self, guest):
        harness = guest("""
_start:
patched:
    movz x1, #1
    add x4, x4, x1
    b _start
""")
        assert harness.run(3).reason is ExitReason.BUDGET
        assert harness.reg(4) == 1
        harness.ram[0:4] = self.NEW_WORD.to_bytes(4, "little")
        assert harness.run(3).reason is ExitReason.BUDGET
        assert harness.reg(1) == 2
        assert harness.reg(4) == 3

    def test_guest_store_through_alias_with_mmu_on(self, guest):
        harness = guest(self.SELF_PATCHING)
        tables = PageTableBuilder(harness.ram, 0x2_0000)
        tables.identity_map(0x0000, 0x1_0000)
        tables.map_range(0x1_0000, 0x0000, 0x1000)   # second VA for the code page
        state = harness.state
        state.regs[7] = 0x1_0000
        state.write_sysreg(SysReg.TTBR0_EL1, tables.root)
        state.write_sysreg(SysReg.SCTLR_EL1, 1)
        assert harness.run().reason is ExitReason.HALT
        assert harness.reg(1) == 2
        assert harness.reg(4) == 3
        assert harness.interp.mmu.tlb.hits > 0


def _chunk_cached(interp, pc):
    """True if the interpreter holds a chunk that starts at ``pc``."""
    return pc in interp._chunks


class TestChunkRewrite:
    """A cached chunk whose code is rewritten runs the new instruction at
    its next entry, whoever wrote the word; a breakpoint set inside a built
    chunk still stops there."""

    NEW_WORD = encode(Instruction(Op.MOVZ, rd=1, imm=2))     # movz x1, #2

    LOOP = """
_start:
    movz x4, #0
loop:
patched:
    movz x1, #1
    add x4, x4, x1
    b loop
"""

    def test_own_store_after_two_passes(self, guest):
        harness = run_to_halt(guest, f"""
_start:
    adr x5, patched
    movz x6, #{self.NEW_WORD & 0xFFFF}
    movk x6, #{self.NEW_WORD >> 16}, lsl #16
    movz x3, #0
    movz x4, #0
loop:
patched:
    movz x1, #1
    add x4, x4, x1
    add x3, x3, #1
    cmp x3, #2
    b.ne check
    strw x6, [x5]           // after the second pass
check:
    cmp x3, #4
    b.ne loop
    hlt #0
""")
        assert _chunk_cached(harness.interp, harness.image.find_symbol("patched"))
        assert harness.reg(1) == 2
        assert harness.reg(4) == 1 + 1 + 2 + 2

    def test_store_by_a_second_core(self, guest):
        harness = guest(self.LOOP + f"""
writer:
    adr x5, patched
    movz x6, #{self.NEW_WORD & 0xFFFF}
    movk x6, #{self.NEW_WORD >> 16}, lsl #16
    strw x6, [x5]
    hlt #0
""")
        patched = harness.image.find_symbol("patched")
        assert harness.run(1 + 3 * 3).reason is ExitReason.BUDGET
        assert _chunk_cached(harness.interp, patched)
        assert harness.reg(4) == 3
        other = CpuState(core_id=1)
        other.pc = harness.image.find_symbol("writer")
        writer = Interpreter(other, harness.memory, harness.interp.monitor)
        assert writer.run(100).reason is ExitReason.HALT
        assert harness.run(2 * 3).reason is ExitReason.BUDGET
        assert harness.reg(1) == 2
        assert harness.reg(4) == 3 + 2 + 2

    def _avp64(self):
        image = assemble(self.LOOP, base_address=0x1000)
        software = GuestSoftware(image=image, mode="interpreter", name="chunk-rewrite")
        config = VpConfig(num_cores=1, quantum=SimTime.us(10), parallel=False)
        vp = build_platform("avp64", config, software)
        vp.run(SimTime.us(30))
        interp = vp.cpus[0].executor
        patched = image.find_symbol("patched")
        assert _chunk_cached(interp, patched)
        assert interp.state.regs[1] == 1
        return vp, software, patched

    def test_host_write_to_platform_ram(self):
        vp, _, patched = self._avp64()
        state = vp.cpus[0].executor.state
        count = state.regs[4]
        vp.ram.data[patched:patched + 4] = self.NEW_WORD.to_bytes(4, "little")
        vp.run(SimTime.us(30))
        assert state.regs[1] == 2
        assert state.regs[4] > count + 2

    def test_snapshot_restore_with_other_code(self):
        vp, software, patched = self._avp64()
        child = Snapshot.capture(vp).fork(1)[0]
        child.poke_ram(patched, self.NEW_WORD.to_bytes(4, "little"))
        restored = child.restore(software)
        restored.run(SimTime.us(30))
        assert restored.cpus[0].executor.state.regs[1] == 2
        vp.run(SimTime.us(30))     # the snapshot's poke is its own
        assert vp.cpus[0].executor.state.regs[1] == 1

    def test_breakpoint_set_inside_a_built_chunk(self, guest):
        harness = guest("""
_start:
    movz x4, #0
loop:
    add x4, x4, #1
target:
    add x4, x4, #1
    b loop
""")
        assert harness.run(1 + 3 * 2).reason is ExitReason.BUDGET
        assert _chunk_cached(harness.interp, harness.image.find_symbol("loop"))
        target = harness.image.find_symbol("target")
        harness.interp.set_breakpoint(target)
        info = harness.run(100)
        assert info.reason is ExitReason.BREAKPOINT
        assert info.pc == target
        assert harness.reg(4) == 2 * 2 + 1


class TestChunkExitParity:
    """An exit or fault at the third instruction of a chunk leaves the core
    as the stepped run, one instruction per entry, does."""

    @staticmethod
    def _observe(harness, info):
        interp = harness.interp
        return (info.reason, info.pc, harness.state.pc, harness.state.instret,
                interp.memory_ops, interp.blocks_entered, interp.new_blocks,
                interp.exceptions)

    def _until_exit(self, harness, budget):
        while True:
            info = harness.run(budget)
            if info.reason is not ExitReason.BUDGET:
                return self._observe(harness, info)

    MMIO_SOURCE = f"""
_start:
    movz x9, #{MMIO_BASE >> 16}, lsl #16
    movz x4, #0
    b loop
loop:
    add x4, x4, #1
    add x4, x4, #1
    ldr x5, [x9]            // MMIO exit
    b loop
"""

    ABORT_SOURCE = f"""
.equ VBAR, 0x4000
_start:
    movz x1, #VBAR
    msr VBAR_EL1, x1
    movz x9, #{MMIO_BASE >> 16}, lsl #16
    movz x4, #0
    b loop
loop:
    add x4, x4, #1
    add x4, x4, #1
    ldxr x5, [x9]           // exclusive load from MMIO: data abort
    b loop

.org VBAR
    mrs x2, ELR_EL1
    hlt #0
"""

    def test_mmio_exits_match(self, guest):
        stepped, chunked = guest(self.MMIO_SOURCE), guest(self.MMIO_SOURCE)
        for round_ in range(3):
            assert self._until_exit(chunked, 100) == self._until_exit(stepped, 1)
            for harness in (stepped, chunked):
                harness.interp.complete_mmio(round_.to_bytes(8, "little"))
        assert _chunk_cached(chunked.interp, chunked.image.find_symbol("loop"))

    def test_data_abort_matches(self, guest):
        stepped, chunked = guest(self.ABORT_SOURCE), guest(self.ABORT_SOURCE)
        outcome = self._until_exit(chunked, 100)
        assert outcome[0] is ExitReason.HALT
        assert outcome == self._until_exit(stepped, 1)
        assert chunked.state.snapshot() == stepped.state.snapshot()
        assert chunked.reg(2) == chunked.image.find_symbol("loop") + 8
        assert _chunk_cached(chunked.interp, chunked.image.find_symbol("loop"))
