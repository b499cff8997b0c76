"""RV64-lite: the §VI RISC-V-on-RISC-V extension.

Everything above the executor is ISA-agnostic, so these tests run real
RV64IM encodings through the same simulated KVM and the same KvmCpu the
ARM guests use."""

import pytest

from repro.arch.riscv import (
    CAUSE_ECALL_M,
    CAUSE_ILLEGAL,
    CSR_MCAUSE,
    CSR_MEPC,
    CSR_MHARTID,
    CSR_MSTATUS,
    CSR_MTVEC,
    MASK64,
    MSTATUS_MIE,
    Rv64Builder,
    Rv64Interpreter,
    Rv64State,
)
from repro.iss.executor import ExitReason, GuestMemoryMap
from repro.kvm.api import Kvm, KvmExitReason

MMIO_BASE = 0x0900_0000


def run_program(build, ram_size=0x10000, budget=100_000, hart=0):
    rv = Rv64Builder(base=0x1000)
    build(rv)
    memory = GuestMemoryMap()
    memory.add_slot(0, memoryview(bytearray(ram_size)))
    memory.write(0x1000, rv.build())
    state = Rv64State(hart)
    state.pc = 0x1000
    interp = Rv64Interpreter(state, memory)
    info = interp.run(budget)
    return info, state, interp, memory


class TestAluAndImmediates:
    def test_li_addi_add(self):
        def build(rv):
            rv.li(5, 100)
            rv.addi(6, 5, 23)
            rv.add(7, 5, 6)
            rv.halt()

        info, state, _, _ = run_program(build)
        assert info.reason is ExitReason.HALT
        assert state.read_reg(7) == 223

    def test_x0_hardwired_to_zero(self):
        def build(rv):
            rv.addi(0, 0, 99)
            rv.add(5, 0, 0)
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(0) == 0
        assert state.read_reg(5) == 0

    def test_lui_sign_extends(self):
        def build(rv):
            rv.lui(5, 0x80000)
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(5) == (0xFFFFFFFF80000000)

    def test_sub_and_logic(self):
        def build(rv):
            rv.li(5, 0xF0F0)
            rv.li(6, 0x0FF0)
            rv.sub(7, 5, 6)
            rv.and_(8, 5, 6)
            rv.or_(9, 5, 6)
            rv.xor(10, 5, 6)
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(7) == 0xF0F0 - 0x0FF0
        assert state.read_reg(8) == 0xF0F0 & 0x0FF0
        assert state.read_reg(9) == 0xFFF0
        assert state.read_reg(10) == 0xF0F0 ^ 0x0FF0

    def test_shifts(self):
        def build(rv):
            rv.li(5, 1)
            rv.slli(6, 5, 63)
            rv.srli(7, 6, 62)
            rv.srai(8, 6, 62)
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(6) == 1 << 63
        assert state.read_reg(7) == 2
        assert state.read_reg(8) == MASK64 - 1   # arithmetic: sign copies

    def test_m_extension(self):
        def build(rv):
            rv.li(5, 7)
            rv.li(6, 3)
            rv.mul(7, 5, 6)
            rv.divu(8, 5, 6)
            rv.remu(9, 5, 6)
            rv.divu(10, 5, 0)      # division by zero -> all ones
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(7) == 21
        assert state.read_reg(8) == 2
        assert state.read_reg(9) == 1
        assert state.read_reg(10) == MASK64

    def test_slt_variants(self):
        def build(rv):
            rv.li(5, 0)
            rv.addi(5, 5, -1)      # -1 (unsigned max)
            rv.li(6, 1)
            rv.slt(7, 5, 6)        # signed: -1 < 1
            rv.sltu(8, 5, 6)       # unsigned: max < 1 is false
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(7) == 1
        assert state.read_reg(8) == 0


class TestControlFlow:
    def test_loop_sums_to_55(self):
        def build(rv):
            rv.li(5, 0)    # acc
            rv.li(6, 10)   # counter
            rv.label("loop")
            rv.add(5, 5, 6)
            rv.addi(6, 6, -1)
            rv.bne(6, 0, "loop")
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(5) == 55

    def test_forward_branch_fixup(self):
        def build(rv):
            rv.li(5, 1)
            rv.beq(5, 5, "skip")
            rv.li(6, 99)           # skipped
            rv.label("skip")
            rv.li(7, 42)
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(6) == 0
        assert state.read_reg(7) == 42

    def test_jal_jalr_call_return(self):
        def build(rv):
            rv.jal(1, "fn")        # call
            rv.li(6, 2)
            rv.halt()
            rv.label("fn")
            rv.li(5, 1)
            rv.ret()

        _, state, _, _ = run_program(build)
        assert state.read_reg(5) == 1
        assert state.read_reg(6) == 2

    def test_signed_vs_unsigned_branches(self):
        def build(rv):
            rv.li(5, 0)
            rv.addi(5, 5, -5)      # -5
            rv.li(6, 3)
            rv.li(7, 0)
            rv.blt(5, 6, "signed_taken")
            rv.halt()
            rv.label("signed_taken")
            rv.li(7, 1)
            rv.bltu(5, 6, "unsigned_taken")   # huge unsigned: not taken
            rv.halt()
            rv.label("unsigned_taken")
            rv.li(7, 2)
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(7) == 1

    def test_undefined_label_rejected(self):
        rv = Rv64Builder()
        rv.j("nowhere")
        with pytest.raises(ValueError):
            rv.build()


class TestMemory:
    def test_load_store_sizes(self):
        def build(rv):
            rv.li(5, 0x2000)
            rv.li(6, 0x1234)
            rv.sd(6, 5, 0)
            rv.ld(7, 5, 0)
            rv.lw(8, 5, 0)
            rv.lbu(9, 5, 0)
            rv.sb(6, 5, 16)
            rv.ld(10, 5, 16)
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(7) == 0x1234
        assert state.read_reg(8) == 0x1234
        assert state.read_reg(9) == 0x34
        assert state.read_reg(10) == 0x34

    def test_signed_load(self):
        def build(rv):
            rv.li(5, 0x2000)
            rv.li(6, 0xFF)
            rv.sb(6, 5, 0)
            rv.lb(7, 5, 0)     # sign-extends
            rv.lbu(8, 5, 0)    # zero-extends
            rv.halt()

        _, state, _, _ = run_program(build)
        assert state.read_reg(7) == MASK64
        assert state.read_reg(8) == 0xFF

    def test_mmio_two_phase(self):
        def build(rv):
            rv.lui(5, MMIO_BASE >> 12)
            rv.li(6, 0x41)
            rv.sw(6, 5, 0)
            rv.lw(7, 5, 4)
            rv.halt()

        info, state, interp, _ = run_program(build)
        assert info.reason is ExitReason.MMIO
        assert info.mmio.is_write and info.mmio.address == MMIO_BASE
        interp.complete_mmio(None)
        info = interp.run(100)
        assert info.reason is ExitReason.MMIO and not info.mmio.is_write
        interp.complete_mmio((0x7F).to_bytes(4, "little"))
        assert interp.run(100).reason is ExitReason.HALT
        assert state.read_reg(7) == 0x7F


class TestTrapsAndCsrs:
    def test_csr_read_write(self):
        def build(rv):
            rv.li(5, 0x1234)
            rv.csrrw(6, CSR_MTVEC, 5)
            rv.csrrs(7, CSR_MTVEC, 0)
            rv.csrrs(8, CSR_MHARTID, 0)
            rv.halt()

        _, state, _, _ = run_program(build, hart=3)
        assert state.read_reg(6) == 0
        assert state.read_reg(7) == 0x1234
        assert state.read_reg(8) == 3

    def test_ecall_traps_and_mret_returns(self):
        def build(rv):
            rv.li(5, 0x1100)               # mtvec (inside our code region?)
            rv.csrrw(0, CSR_MTVEC, 5)
            rv.ecall()
            rv.li(7, 7)                    # runs after mret
            rv.halt()
            # pad to 0x1100 for the trap handler
            while rv.pc < 0x1100:
                rv.nop()
            rv.csrrs(6, CSR_MCAUSE, 0)
            rv.mret()

        _, state, _, _ = run_program(build)
        assert state.read_reg(6) == CAUSE_ECALL_M
        assert state.read_reg(7) == 7

    def test_illegal_instruction_traps(self):
        def build(rv):
            rv.li(5, 0x1100)
            rv.csrrw(0, CSR_MTVEC, 5)
            rv._emit(0x0000007F)           # reserved opcode
            rv.halt()
            while rv.pc < 0x1100:
                rv.nop()
            rv.csrrs(6, CSR_MCAUSE, 0)
            rv.halt(9)

        info, state, _, _ = run_program(build)
        assert info.halt_code == 9
        assert state.read_reg(6) == CAUSE_ILLEGAL

    def test_wfi_and_interrupt(self):
        def build(rv):
            rv.li(5, 0x1100)
            rv.csrrw(0, CSR_MTVEC, 5)
            rv.li(6, MSTATUS_MIE)
            rv.csrrs(0, CSR_MSTATUS, 6)    # enable interrupts
            rv.wfi()
            rv.halt(1)                     # after wake + handler
            while rv.pc < 0x1100:
                rv.nop()
            rv.li(7, 0x55)
            rv.csrrs(8, CSR_MEPC, 0)
            rv.mret()

        rv = Rv64Builder(base=0x1000)
        build(rv)
        memory = GuestMemoryMap()
        memory.add_slot(0, memoryview(bytearray(0x10000)))
        memory.write(0x1000, rv.build())
        state = Rv64State()
        state.pc = 0x1000
        interp = Rv64Interpreter(state, memory)
        info = interp.run(1000)
        assert info.reason is ExitReason.WFI
        interp.set_irq(True)
        # Handler entry + its two instructions; the interrupt source is
        # then cleared (a real handler would silence the device) ...
        info = interp.run(2)
        assert state.read_reg(7) == 0x55
        interp.set_irq(False)
        # ... and mret returns to the instruction after the WFI.
        info = interp.run(1000)
        assert info.reason is ExitReason.HALT and info.halt_code == 1
        assert state.read_reg(8) != 0   # handler saw a valid mepc

    @staticmethod
    def _interp(build):
        rv = Rv64Builder(base=0x1000)
        build(rv)
        memory = GuestMemoryMap()
        memory.add_slot(0, memoryview(bytearray(0x10000)))
        memory.write(0x1000, rv.build())
        state = Rv64State()
        state.pc = 0x1000
        return Rv64Interpreter(state, memory), rv.labels

    def test_breakpoint_on_trapping_instruction_rehits(self):
        # Stepping off the breakpoint traps into mtvec; the next pass
        # through the loop must stop there again.
        def build(rv):
            rv.li(5, 0x1100)
            rv.csrrw(0, CSR_MTVEC, 5)
            rv.li(6, 0)
            rv.li(7, 3)
            rv.label("loop")
            rv.addi(6, 6, 1)
            rv.label("target")
            rv.ecall()
            rv.bne(6, 7, "loop")
            rv.halt()
            while rv.pc < 0x1100:
                rv.nop()
            rv.mret()

        interp, labels = self._interp(build)
        interp.set_breakpoint(labels["target"])
        hits = 0
        while True:
            info = interp.run(100)
            if info.reason is ExitReason.HALT:
                break
            assert info.reason is ExitReason.BREAKPOINT
            assert info.pc == labels["target"]
            hits += 1
        assert hits == 3
        assert interp.exceptions == 3

    def test_breakpoint_on_halt_leaves_no_skip(self):
        interp, _ = self._interp(lambda rv: rv.halt())
        interp.set_breakpoint(0x1000)
        assert interp.run(10).reason is ExitReason.BREAKPOINT
        assert interp.run(10).reason is ExitReason.HALT
        assert interp._skip_breakpoint_pc is None


class TestKvmIntegration:
    """The same simulated KVM runs a RISC-V guest unmodified (§VI)."""

    def _vcpu(self, build):
        rv = Rv64Builder(base=0)
        build(rv)
        kvm = Kvm()
        vm = kvm.create_vm()
        vm.set_user_memory_region(0, 0, memoryview(bytearray(0x10000)))
        vm.memory.write(0, rv.build())
        state = Rv64State()
        executor = Rv64Interpreter(state, vm.memory)
        return vm.create_vcpu(0, executor), state

    def test_kvm_run_riscv_guest(self):
        def build(rv):
            rv.li(5, 6)
            rv.li(6, 7)
            rv.mul(7, 5, 6)
            rv.halt()

        vcpu, state = self._vcpu(build)
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.SYSTEM_EVENT
        assert state.read_reg(7) == 42

    def test_kvm_mmio_exit_riscv(self):
        def build(rv):
            rv.lui(5, MMIO_BASE >> 12)
            rv.sw(5, 5, 0)
            rv.halt()

        vcpu, _ = self._vcpu(build)
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.MMIO
        vcpu.complete_mmio(None)
        assert vcpu.run(1_000_000.0).reason is KvmExitReason.SYSTEM_EVENT

    def test_kvm_wfi_blocking_riscv(self):
        def build(rv):
            rv.wfi()
            rv.halt()

        vcpu, _ = self._vcpu(build)
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.INTR
        assert exit_info.blocked_in_wfi

    def test_kvm_breakpoint_riscv(self):
        def build(rv):
            rv.nop()
            rv.nop()
            rv.halt()

        vcpu, _ = self._vcpu(build)
        vcpu.set_guest_debug({4})
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.DEBUG
        assert exit_info.pc == 4

    def test_kvm_instruction_emulation_riscv(self):
        def build(rv):
            rv.li(5, 6)
            rv.li(6, 7)
            rv.mul(7, 5, 6)
            rv.halt()

        vcpu, state = self._vcpu(build)
        vcpu.set_unsupported_instructions({0x33})   # all OP-format traps
        exit_info = vcpu.run(1_000_000.0)
        assert exit_info.reason is KvmExitReason.EMULATION
        vcpu.emulate_instruction()
        assert state.read_reg(7) == 42
        assert vcpu.run(1_000_000.0).reason is KvmExitReason.SYSTEM_EVENT
