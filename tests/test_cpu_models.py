"""KvmCpu and IssCpu: the Fig. 3 loop, exits, billing, annotations."""

import pytest

from repro.core.iss_cpu import IssCpu
from repro.core.kvm_cpu import KvmCpu
from repro.core.watchdog import Watchdog
from repro.core.wfi import WfiAnnotator
from repro.arch.assembler import assemble
from repro.host.accounting import HostLedger
from repro.host.machine import apple_m2_pro
from repro.host.params import KvmCostParams
from repro.iss.phase import Compute, Halt, Mmio, PhaseContext, PhaseExecutor, Wfi
from repro.kvm.api import Kvm
from repro.systemc.clock import Clock
from repro.systemc.kernel import Kernel
from repro.systemc.time import SimTime
from repro.tlm.quantum import GlobalQuantum
from repro.vcml.memory import Memory
from repro.vcml.router import Router

MMIO_REG = 0x0900_0000


class Rig:
    """A minimal single-CPU platform: bus + RAM + one scratch peripheral."""

    def __init__(self, program, cpu_kind="kvm", quantum_us=100, parallel=False,
                 annotate_wfi_pc=None, costs=None):
        self.kernel = Kernel()
        self.bus = Router("bus", parent=self.kernel)
        self.ram = Memory("ram", 0x10000, parent=self.kernel)
        self.bus.map(0, 0xFFFF, self.ram.in_socket)
        self.mmio_log = []

        from repro.tlm.payload import GenericPayload
        from repro.tlm.sockets import TargetSocket

        def scratch_transport(payload, delay):
            self.mmio_log.append((payload.command.name, payload.address,
                                  payload.data_as_int() if payload.is_write else None))
            if payload.is_read:
                payload.set_data_int(0x5A, payload.length)
            payload.set_ok()
            return delay

        self.bus.map(MMIO_REG, MMIO_REG + 0xFFF,
                     TargetSocket("scratch", scratch_transport))
        self.quantum = GlobalQuantum(SimTime.us(quantum_us))

        from repro.iss.executor import GuestMemoryMap
        memory = GuestMemoryMap()
        memory.add_slot(0, memoryview(self.ram.data))
        ctx = PhaseContext(core_id=0, memory=memory,
                           wfi_pc=annotate_wfi_pc or 0x1000)
        executor = PhaseExecutor(program, ctx)
        annotator = None
        if annotate_wfi_pc is not None:
            image = assemble("cpu_do_idle:\n    wfi\n    ret\n",
                             base_address=annotate_wfi_pc)
            annotator = WfiAnnotator(image)
        if cpu_kind == "kvm":
            kvm = Kvm(costs or KvmCostParams())
            vm = kvm.create_vm()
            vcpu = vm.create_vcpu(0, executor)
            self.watchdog = Watchdog()
            self.cpu = KvmCpu("cpu", self.quantum, vcpu, self.watchdog,
                              parent=self.kernel, parallel=parallel, annotator=annotator,
                              costs=costs or KvmCostParams())
            if annotator is not None:
                annotator.apply([vcpu])
        else:
            self.cpu = IssCpu("cpu", self.quantum, executor,
                              parent=self.kernel, parallel=parallel)
        self.cpu.bind_clock(Clock("clk", 1e9, self.kernel))
        self.cpu.data_socket.bind(self.bus.in_socket)
        self.ledger = HostLedger(self.quantum.quantum, parallel, apple_m2_pro(), 1)
        self.cpu.host_ledger = self.ledger
        self.cpu.halt_callback = lambda _cpu: self.kernel.stop()
        self.cpu.start_of_simulation()

    def run(self, us=10_000):
        return self.kernel.run(SimTime.us(us))


class TestKvmCpuLoop:
    def test_compute_halt(self):
        def program(ctx):
            yield Compute(500_000, key="k")
            yield Halt()

        rig = Rig(program)
        rig.run()
        assert rig.cpu.halted
        assert rig.cpu.instructions_retired >= 500_000
        assert rig.ledger.wall_time_ns() > 0

    def test_mmio_routed_through_tlm(self):
        def program(ctx):
            yield Mmio(MMIO_REG, 4, True, 0x77)
            value = yield Mmio(MMIO_REG + 4, 4, False)
            assert value == 0x5A
            yield Halt()

        rig = Rig(program)
        rig.run()
        assert rig.cpu.halted
        assert ("WRITE", 0, 0x77) in [(c, a - 0, v) for c, a, v in rig.mmio_log]
        assert rig.cpu.num_mmio == 2

    def test_mmio_to_unmapped_address_counts_bus_error(self):
        def program(ctx):
            value = yield Mmio(0x0800_0000, 4, False)   # nothing mapped there
            assert value == 0
            yield Halt()

        rig = Rig(program)
        rig.run()
        assert rig.cpu.halted
        assert rig.cpu.num_bus_errors == 1

    def test_watchdog_kickids_filter_stale_kicks(self):
        def program(ctx):
            for _ in range(50):
                yield Mmio(MMIO_REG, 4, True, 1)    # early exits galore
            yield Compute(10_000_000, key="k")      # then full quanta
            yield Halt()

        rig = Rig(program)
        rig.run()
        assert rig.cpu.halted
        assert rig.cpu.kick_guard.num_kicks_filtered >= 1
        # The run itself only ever consumed legitimate kicks.
        assert rig.cpu.vcpu.immediate_exit is False

    def test_unannotated_wfi_burns_quanta(self):
        def program(ctx):
            yield Wfi()
            yield Halt()

        rig = Rig(program)
        rig.run(us=5_000)
        assert rig.cpu.vcpu.num_wfi_blocks >= 1
        categories = rig.ledger.category_totals()
        assert categories.get("wfi_blocked", 0) > 0

    def test_annotated_wfi_suspends_until_interrupt(self):
        FLAG = 0x2000

        def program(ctx):
            yield Wfi(FLAG, 1)
            yield Halt(5)

        rig = Rig(program, annotate_wfi_pc=0x4000)

        def waker():
            yield SimTime.us(500)
            # Peer behaviour: set the flag, then send the wake interrupt.
            # Like a GIC, hold the line until the guest is done with it.
            rig.ram.data[FLAG:FLAG + 8] = (1).to_bytes(8, "little")
            rig.cpu.irq_in(0).raise_irq()

        rig.kernel.spawn(waker)
        rig.run(us=2_000)
        assert rig.cpu.halted
        assert rig.cpu.num_wfi_suspends >= 1
        # Suspended time is skipped: no wfi_blocked cost at all.
        assert rig.ledger.category_totals().get("wfi_blocked", 0) == 0

    def test_user_breakpoint_callback(self):
        def program(ctx):
            yield Wfi()
            yield Halt()

        rig = Rig(program)   # no annotator
        rig.cpu.vcpu.set_guest_debug({0x1000})
        hits = []
        rig.cpu.on_breakpoint = hits.append
        rig.run(us=2_000)
        assert hits and hits[0] == 0x1000
        assert rig.cpu.num_user_breakpoints >= 1

    def test_consumed_cycles_tracks_wall_time(self):
        def program(ctx):
            yield Compute(10_000_000, key="k")
            yield Halt()

        rig = Rig(program)
        rig.run()
        # 10M instructions at 0.1 ns/inst = 1 ms of wall, 1 GHz clock
        # => about 1M cycles of simulated time.
        sim_ns = rig.kernel.now.to_ns()
        assert 800_000 < sim_ns < 3_000_000

    def test_cycles_from_wall_clamps(self):
        def program(ctx):
            yield Wfi()

        # A kicked run that costs no wall time still consumes one cycle.
        rig = Rig(program, costs=KvmCostParams(entry_exit_ns=0.0))
        rig.cpu.vcpu.kick()
        assert rig.cpu.simulate(1000).cycles == 1
        # A run blocked in WFI far past its 1000 ns budget consumes 2x it.
        rig = Rig(program, costs=KvmCostParams(signal_delivery_ns=10**9))
        assert rig.cpu.simulate(1000).cycles == 2000


class TestIssCpuLoop:
    def test_compute_halt_and_cost(self):
        def program(ctx):
            yield Compute(100_000, key="k", static_blocks=10)
            yield Halt()

        rig = Rig(program, cpu_kind="iss")
        rig.run()
        assert rig.cpu.halted
        assert rig.cpu.instructions_retired >= 100_000
        assert rig.cpu.cost_model.total_ns > 0
        assert rig.cpu.cost_model.translation_ns > 0

    def test_translation_charged_once(self):
        def program(ctx):
            for _ in range(5):
                yield Compute(50_000, key="same", static_blocks=100)
            yield Halt()

        rig = Rig(program, cpu_kind="iss")
        rig.run()
        from repro.host.params import DEFAULT_ISS_COSTS
        assert rig.cpu.cost_model.translation_ns == pytest.approx(
            100 * DEFAULT_ISS_COSTS.translation_ns_per_block)

    def test_wfi_suspends_inline(self):
        FLAG = 0x2000

        def program(ctx):
            yield Wfi(FLAG, 1)
            yield Halt()

        rig = Rig(program, cpu_kind="iss")

        def waker():
            yield SimTime.us(300)
            rig.ram.data[FLAG:FLAG + 8] = (1).to_bytes(8, "little")
            rig.cpu.irq_in(0).pulse()

        rig.kernel.spawn(waker)
        rig.run(us=1_000)
        assert rig.cpu.halted
        assert rig.cpu.num_wfi >= 1

    def test_mmio_direct_call(self):
        def program(ctx):
            yield Mmio(MMIO_REG, 4, True, 9)
            yield Halt()

        rig = Rig(program, cpu_kind="iss")
        rig.run()
        assert rig.cpu.num_mmio == 1
        assert rig.cpu.halted

    def test_iss_sim_time_matches_instruction_count(self):
        def program(ctx):
            yield Compute(1_000_000, key="k")
            yield Halt()

        rig = Rig(program, cpu_kind="iss")
        rig.run()
        # 1 instruction per cycle at 1 GHz: 1M instructions ~ 1 ms sim time.
        assert 0.9e6 < rig.kernel.now.to_ns() < 1.3e6


class TestDropInEquivalence:
    """The paper's claim: the KVM model is a drop-in ISS replacement."""

    def _script(self):
        def program(ctx):
            yield Compute(200_000, key="k")
            yield Mmio(MMIO_REG, 4, True, 0xAB)
            value = yield Mmio(MMIO_REG + 8, 4, False)
            yield Compute(value * 1000, key="k2")
            yield Halt(2)

        return program

    def test_same_functional_behaviour(self):
        rig_kvm = Rig(self._script(), cpu_kind="kvm")
        rig_kvm.run()
        rig_iss = Rig(self._script(), cpu_kind="iss")
        rig_iss.run()
        assert rig_kvm.cpu.halted and rig_iss.cpu.halted
        assert rig_kvm.mmio_log == rig_iss.mmio_log
        assert rig_kvm.cpu.instructions_retired == rig_iss.cpu.instructions_retired

    def test_aoa_is_faster_in_modeled_wall_clock(self):
        rig_kvm = Rig(self._script(), cpu_kind="kvm")
        rig_kvm.run()
        rig_iss = Rig(self._script(), cpu_kind="iss")
        rig_iss.run()
        assert rig_kvm.ledger.wall_time_ns() < rig_iss.ledger.wall_time_ns()
