"""Phase-program executor: budgets, MMIO protocol, WFI ordering, handlers."""

import pytest

from repro.iss.executor import ExitReason, GuestMemoryMap
from repro.iss.phase import (
    AtomicAdd,
    Compute,
    Halt,
    IrqProtocol,
    Mmio,
    PhaseContext,
    PhaseExecutor,
    SpinUntil,
    StoreFlag,
    Wfi,
)

IAR = 0x0801_000C
EOIR = 0x0801_0010
ACK = 0x0900_0010


def make_executor(program, protocol=None, wfi_pc=0x1000):
    memory = GuestMemoryMap()
    memory.add_slot(0, memoryview(bytearray(0x100000)))
    ctx = PhaseContext(core_id=0, memory=memory, wfi_pc=wfi_pc,
                       irq_protocol=protocol)
    return PhaseExecutor(program, ctx), ctx


def default_protocol(acks=None):
    return IrqProtocol(IAR, EOIR, handler_instructions=100,
                       device_acks=acks or {})


class TestCompute:
    def test_budget_split_across_runs(self):
        def program(ctx):
            yield Compute(250, key="k")

        executor, _ = make_executor(program)
        info = executor.run(100)
        assert info.reason is ExitReason.BUDGET and info.instructions == 100
        info = executor.run(100)
        assert info.reason is ExitReason.BUDGET
        info = executor.run(100)
        assert info.reason is ExitReason.HALT    # program exhausted
        assert executor.instructions == 250

    def test_translation_counted_once_per_key(self):
        def program(ctx):
            for _ in range(3):
                yield Compute(10, key="same", static_blocks=50)
            yield Compute(10, key="other", static_blocks=7)

        executor, _ = make_executor(program)
        executor.run(1000)
        assert executor.new_blocks == 57

    def test_anonymous_compute_always_translates(self):
        def program(ctx):
            yield Compute(10, static_blocks=5)
            yield Compute(10, static_blocks=5)

        executor, _ = make_executor(program)
        executor.run(1000)
        assert executor.new_blocks == 10

    def test_memory_and_tlb_stats(self):
        def program(ctx):
            yield Compute(1000, key="k", mem_fraction=0.5, tlb_miss_rate=0.01)

        executor, _ = make_executor(program)
        executor.run(2000)
        stats = executor.sample_stats()
        assert stats.memory_ops == 500
        assert stats.tlb_misses == 5


class TestMmio:
    def test_write_and_read_values(self):
        seen = {}

        def program(ctx):
            yield Mmio(0x9000_0000, 4, True, 0xABCD)
            value = yield Mmio(0x9000_0004, 4, False)
            seen["read"] = value

        executor, _ = make_executor(program)
        info = executor.run(100)
        assert info.reason is ExitReason.MMIO
        assert info.mmio.is_write and info.mmio.data == (0xABCD).to_bytes(4, "little")
        executor.complete_mmio(None)
        info = executor.run(100)
        assert info.reason is ExitReason.MMIO and not info.mmio.is_write
        executor.complete_mmio((77).to_bytes(4, "little"))
        executor.run(100)
        assert seen["read"] == 77

    def test_run_with_pending_mmio_rejected(self):
        def program(ctx):
            yield Mmio(0x9000_0000)

        executor, _ = make_executor(program)
        executor.run(10)
        with pytest.raises(RuntimeError):
            executor.run(10)

    def test_complete_without_pending_rejected(self):
        def empty(ctx):
            return
            yield  # pragma: no cover

        executor, _ = make_executor(empty)
        with pytest.raises(RuntimeError):
            executor.complete_mmio(None)


class TestWfi:
    def test_wfi_exits_and_resumes_after(self):
        def program(ctx):
            yield Wfi()
            yield Compute(5, key="after")
            yield Halt(3)

        executor, _ = make_executor(program)
        info = executor.run(100)
        assert info.reason is ExitReason.WFI
        info = executor.run(100)
        assert info.reason is ExitReason.HALT and info.halt_code == 3

    def test_wfi_falls_through_with_pending_irq_then_services_it(self):
        order = []

        def program(ctx):
            yield Wfi()
            order.append("after_wfi")

        executor, _ = make_executor(program, protocol=default_protocol())
        executor.set_irq(True)
        info = executor.run(100)
        # WFI fell through (1 instruction), then the handler's IAR read.
        assert info.reason is ExitReason.MMIO
        assert info.mmio.address == IAR
        assert order == []    # program does not advance before the handler

    def test_wfi_wait_rechecks_flag_after_wakeup(self):
        FLAG = 0x5000

        def program(ctx):
            yield Wfi(FLAG, 1)
            yield Halt(9)

        executor, ctx = make_executor(program)
        assert executor.run(100).reason is ExitReason.WFI
        assert executor.run(100).reason is ExitReason.WFI   # still unset
        ctx.write_u64(FLAG, 1)
        info = executor.run(100)
        assert info.reason is ExitReason.HALT and info.halt_code == 9

    def test_breakpoint_at_wfi_pc(self):
        def program(ctx):
            yield Wfi()
            yield Halt()

        executor, ctx = make_executor(program, wfi_pc=0x1234)
        executor.set_breakpoint(0x1234)
        info = executor.run(100)
        assert info.reason is ExitReason.BREAKPOINT
        assert info.pc == 0x1234
        # Resume skips the breakpoint once and executes the WFI.
        info = executor.run(100)
        assert info.reason is ExitReason.WFI

    def test_breakpoint_resume_with_irq_runs_handler_then_program(self):
        FLAG = 0x5000

        def program(ctx):
            yield Wfi(FLAG, 1)
            yield Halt(1)

        executor, ctx = make_executor(program, protocol=default_protocol(),
                                      wfi_pc=0x1234)
        executor.set_breakpoint(0x1234)
        assert executor.run(100).reason is ExitReason.BREAKPOINT
        # Peer sets the flag and the interrupt arrives (SGI).
        ctx.write_u64(FLAG, 1)
        executor.set_irq(True)
        info = executor.run(1000)
        assert info.reason is ExitReason.MMIO and info.mmio.address == IAR
        executor.complete_mmio((1).to_bytes(4, "little"))
        info = executor.run(1000)
        assert info.reason is ExitReason.MMIO and info.mmio.address == EOIR
        executor.complete_mmio(None)
        executor.set_irq(False)      # GIC lowered the line after EOI
        info = executor.run(1000)
        assert info.reason is ExitReason.HALT and info.halt_code == 1


class TestSpinAndFlags:
    def test_spin_burns_budget_until_flag(self):
        FLAG = 0x6000

        def program(ctx):
            yield SpinUntil(FLAG, 1)
            yield Halt(5)

        executor, ctx = make_executor(program)
        info = executor.run(500)
        assert info.reason is ExitReason.BUDGET
        assert info.instructions == 500
        ctx.write_u64(FLAG, 1)
        info = executor.run(500)
        assert info.reason is ExitReason.HALT

    def test_spin_ge_mode(self):
        FLAG = 0x6000

        def program(ctx):
            yield SpinUntil(FLAG, 3, ge=True)
            yield Halt()

        executor, ctx = make_executor(program)
        ctx.write_u64(FLAG, 7)
        assert executor.run(100).reason is ExitReason.HALT

    def test_store_flag_visible_to_context(self):
        def program(ctx):
            yield StoreFlag(0x7000, 123)
            yield Halt()

        executor, ctx = make_executor(program)
        executor.run(100)
        assert ctx.read_u64(0x7000) == 123

    def test_atomic_add_accumulates(self):
        def program(ctx):
            for _ in range(3):
                yield AtomicAdd(0x7100, 2)
            yield Halt()

        executor, ctx = make_executor(program)
        executor.run(1000)
        assert ctx.read_u64(0x7100) == 6

    def test_spin_preempted_by_irq(self):
        def program(ctx):
            yield SpinUntil(0x6000, 1)

        executor, _ = make_executor(program, protocol=default_protocol())
        executor.set_irq(True)
        info = executor.run(1000)
        assert info.reason is ExitReason.MMIO and info.mmio.address == IAR


class TestHandlerSequence:
    def _drive_handler(self, executor, irq_id=29, expect_acks=()):
        info = executor.run(10_000)
        assert info.mmio.address == IAR
        executor.complete_mmio(irq_id.to_bytes(4, "little"))
        for ack_address in expect_acks:
            info = executor.run(10_000)
            assert info.reason is ExitReason.MMIO
            assert info.mmio.address == ack_address
            executor.complete_mmio(None)
        info = executor.run(10_000)
        assert info.mmio.address == EOIR
        assert info.mmio.data == irq_id.to_bytes(4, "little")
        executor.complete_mmio(None)
        executor.set_irq(False)

    def test_full_handler_with_device_ack(self):
        def program(ctx):
            yield Compute(1_000_000, key="main")
            yield Halt()

        executor, _ = make_executor(
            program, protocol=default_protocol({29: [Mmio(ACK, 4, True, 1)]}))
        executor.run(50)                       # make some progress first
        executor.set_irq(True)
        self._drive_handler(executor, 29, expect_acks=[ACK])
        # Program continues afterwards.
        info = executor.run(10_000)
        assert info.reason is ExitReason.BUDGET

    def test_handler_not_reentered_while_active(self):
        def program(ctx):
            yield Compute(1000, key="main")
            yield Halt()

        executor, _ = make_executor(program, protocol=default_protocol())
        executor.set_irq(True)
        info = executor.run(10_000)
        assert info.mmio.address == IAR
        executor.complete_mmio((1).to_bytes(4, "little"))
        # IRQ line still high, but we are mid-handler: next exit is EOIR,
        # not another IAR read.
        info = executor.run(10_000)
        assert info.mmio.address == EOIR

    def test_irqs_ignored_without_protocol(self):
        def program(ctx):
            yield Compute(100, key="main")
            yield Halt(2)

        executor, _ = make_executor(program, protocol=None)
        executor.set_irq(True)
        info = executor.run(1000)
        assert info.reason is ExitReason.HALT

    def test_handler_counts_as_exception(self):
        def program(ctx):
            yield Compute(1000, key="main")
            yield Halt()

        executor, _ = make_executor(program, protocol=default_protocol())
        executor.set_irq(True)
        self._drive_handler(executor, 33)
        assert executor.sample_stats().exceptions == 1
        assert executor.irqs_taken == 1


class TestLifecycle:
    def test_program_end_is_halt(self):
        def empty(ctx):
            return
            yield  # pragma: no cover - makes this a generator function

        executor, _ = make_executor(empty)
        info = executor.run(10)
        assert info.reason is ExitReason.HALT

    def test_halted_executor_stays_halted(self):
        def program(ctx):
            yield Halt(7)

        executor, _ = make_executor(program)
        assert executor.run(10).halt_code == 7
        info = executor.run(10)
        assert info.reason is ExitReason.HALT and info.instructions == 0

    def test_non_phase_yield_rejected(self):
        def program(ctx):
            yield "garbage"

        executor, _ = make_executor(program)
        with pytest.raises(TypeError):
            executor.run(10)


class TestPosition:
    """An executor snapshot is the program's position: the advance count,
    the MMIO read values sent into it and the phase it stands on."""

    FLAG = 0x5000

    @staticmethod
    def program(ctx):
        status = yield Mmio(0x9000_0004, 4, False)
        yield Wfi(TestPosition.FLAG, 1)     # already set: no WFI executes
        yield Compute(status, key="sized_by_the_read")
        yield Wfi(TestPosition.FLAG, 2)
        yield Halt(4)

    def warm(self):
        executor, ctx = make_executor(self.program)
        ctx.write_u64(self.FLAG, 1)
        assert executor.run(100).reason is ExitReason.MMIO
        executor.complete_mmio((300).to_bytes(4, "little"))
        assert executor.run(1000).reason is ExitReason.WFI
        return executor

    def test_state_holds_the_position_and_read_values_only(self):
        executor = self.warm()
        assert executor.instructions == 1 + 300 + 1   # read, compute, one WFI
        state = executor.snapshot_state()
        assert state["advances"] == 4
        assert state["inputs"] == [[1, 300]]
        assert state["phase"] == ["Wfi", {"address": self.FLAG, "value": 2, "ge": False}]

    def test_restore_resumes_where_the_capture_stood(self):
        state = self.warm().snapshot_state()
        # The replay reads no guest memory: the fresh RAM's unset flag
        # does not change where the program ends up.
        executor, ctx = make_executor(self.program)
        executor.restore_state(state)
        assert executor.snapshot_state() == state
        ctx.write_u64(self.FLAG, 2)
        info = executor.run(100)
        assert info.reason is ExitReason.HALT and info.halt_code == 4

    def test_program_that_ends_early_is_refused(self):
        state = dict(self.warm().snapshot_state(), advances=14)
        executor, _ = make_executor(self.program)
        with pytest.raises(ValueError, match="ends at advance 6 of 14"):
            executor.restore_state(state)

    def test_program_on_another_phase_is_refused(self):
        def other(ctx):
            yield Mmio(0x9000_0004, 4, False)
            yield Wfi(TestPosition.FLAG, 1)
            yield Compute(10, key="other")
            yield Wfi(TestPosition.FLAG, 3)

        state = self.warm().snapshot_state()
        executor, _ = make_executor(other)
        with pytest.raises(ValueError, match="stands at"):
            executor.restore_state(state)
