"""The virtual platforms (Fig. 4).

Both VPs share one architecture: 1–8 CPU cores, a GIC-400, a per-core
memory-mapped timer, RAM, and the VCML peripheral set (UART, RTC,
SDHCI + SD card), all connected through a TLM bus router.  They differ only
in the CPU model:

* :class:`AoaPlatform` — KVM-backed cores (:class:`repro.core.KvmCpu`);
  RAM is mapped into the guest via TLM-DMI → KVM memory slots; WFI
  annotations and the shared software watchdog come from the paper.
* :class:`Avp64Platform` — DBT-ISS cores (:class:`repro.core.IssCpu`), the
  open-source reference system the paper benchmarks against.

The CPU model really is a drop-in replacement: everything outside the
``_build_cpu`` hook is byte-for-byte identical between the two platforms.
"""

from __future__ import annotations

from typing import List, Optional

from ..arch.registers import CpuState
from ..core.iss_cpu import IssCpu
from ..core.kvm_cpu import KvmCpu
from ..core.watchdog import Watchdog
from ..core.wfi import WfiAnnotator, try_annotate
from ..fabric import MemoryPort
from ..host.accounting import HostLedger
from ..host.machine import HostMachine
from ..iss.executor import GuestMemoryMap
from ..iss.interpreter import GlobalMonitor, Interpreter
from ..iss.phase import PhaseContext, PhaseExecutor
from ..kvm.api import Kvm, Vm
from ..models.gic import GICC_SIZE, GICD_SIZE, Gic400
from ..models.rtc import Pl031Rtc
from ..models.sdcard import SdCard
from ..models.sdhci import Sdhci
from ..models.simctl import SimControl
from ..models.timer import MmTimer
from ..models.uart import Pl011Uart
from ..systemc.clock import Clock
from ..systemc.module import Module, Simulation
from ..systemc.time import SimTime
from ..tlm.quantum import GlobalQuantum
from ..tlm.sockets import InitiatorSocket
from ..vcml.memory import Memory
from ..vcml.router import Router
from .config import MemoryMap, VpConfig
from .software import GuestSoftware


def _wire(source_line, destination_line) -> None:
    """Forward one IrqLine's level into another."""
    source_line.connect(destination_line.write)


class VirtualPlatform(Module):
    """Common platform skeleton; subclasses provide the CPU model."""

    #: interrupt numbers of the shared peripherals (SPIs)
    IRQ_UART = 33
    IRQ_RTC = 34
    IRQ_SDHCI = 35
    #: per-core timer interrupt (PPI)
    IRQ_TIMER_PPI = 29

    def __init__(self, sim: Simulation, config: VpConfig, software: GuestSoftware,
                 name: str = "vp"):
        super().__init__(name, sim.kernel)
        sim.register_top(self)
        self.sim = sim
        self.config = config
        self.software = software
        self.global_quantum = GlobalQuantum(config.quantum)
        self.cpu_clock = Clock(f"{name}.cpu_clk", config.vcpu_clock_hz, self.kernel)
        self.timer_clock = Clock(f"{name}.timer_clk", config.timer_frequency_hz, self.kernel)

        # -- memory + bus -----------------------------------------------------
        self.bus = Router("bus", parent=self)
        self.ram = Memory("ram", config.ram_size, parent=self)
        self.bus.map(MemoryMap.RAM_BASE, MemoryMap.RAM_BASE + config.ram_size - 1,
                     self.ram.in_socket, name="ram")

        # -- peripherals ---------------------------------------------------------
        self.gic = Gic400("gic", config.num_cores, parent=self)
        self.timer = MmTimer("timer", config.num_cores, parent=self)
        self.timer.bind_clock(self.timer_clock)
        self.uart = Pl011Uart("uart", parent=self)
        self.rtc = Pl031Rtc("rtc", parent=self)
        self.sdcard = SdCard()
        self.sdhci = Sdhci("sdhci", self.sdcard, parent=self)
        self.simctl = SimControl("simctl", parent=self)
        self.bus.map(MemoryMap.GICD_BASE, MemoryMap.GICD_BASE + GICD_SIZE - 1,
                     self.gic.dist_socket, name="gicd")
        for core in range(config.num_cores):
            base = MemoryMap.gicc_base(core)
            self.bus.map(base, base + GICC_SIZE - 1, self.gic.cpu_sockets[core],
                         name=f"gicc{core}")
        self.bus.map(MemoryMap.TIMER_BASE,
                     MemoryMap.TIMER_BASE + MemoryMap.PERIPH_WINDOW - 1,
                     self.timer.in_socket, name="timer")
        self.bus.map(MemoryMap.UART_BASE,
                     MemoryMap.UART_BASE + MemoryMap.PERIPH_WINDOW - 1,
                     self.uart.in_socket, name="uart")
        self.bus.map(MemoryMap.RTC_BASE,
                     MemoryMap.RTC_BASE + MemoryMap.PERIPH_WINDOW - 1,
                     self.rtc.in_socket, name="rtc")
        self.bus.map(MemoryMap.SDHCI_BASE,
                     MemoryMap.SDHCI_BASE + MemoryMap.PERIPH_WINDOW - 1,
                     self.sdhci.in_socket, name="sdhci")
        self.bus.map(MemoryMap.SIMCTL_BASE,
                     MemoryMap.SIMCTL_BASE + MemoryMap.PERIPH_WINDOW - 1,
                     self.simctl.in_socket, name="simctl")

        # -- peripheral interrupts into the GIC ------------------------------------
        _wire(self.uart.irq, self.gic.spi_in(self.IRQ_UART))
        _wire(self.rtc.irq, self.gic.spi_in(self.IRQ_RTC))
        _wire(self.sdhci.irq, self.gic.spi_in(self.IRQ_SDHCI))
        for core in range(config.num_cores):
            _wire(self.timer.irq_line(core), self.gic.ppi_in(core, self.IRQ_TIMER_PPI))

        # -- guest-physical memory map via TLM-DMI ------------------------------------
        # The loader is a first-class fabric initiator: its port resolves
        # RAM's DMI window (the bytes KVM maps as user memory slots) and
        # writes the guest image through the same access layer the CPU
        # models and the debugger use.
        loader_socket = InitiatorSocket(f"{name}.loader", initiator_id=-1)
        loader_socket.bind(self.bus.in_socket)
        self.loader = MemoryPort(loader_socket, name=f"{name}.loader")
        self.guest_memory = GuestMemoryMap()
        self.monitor = GlobalMonitor()
        dmi = self.loader.request_dmi(MemoryMap.RAM_BASE, 8)
        if dmi is None:
            raise RuntimeError("RAM does not grant DMI; cannot build guest memory map")
        self.guest_memory.add_slot(dmi.start, dmi.memory)

        # -- load the guest image ----------------------------------------------------
        offset = software.load_offset
        software.image.load_into(
            lambda addr, blob: self._load_guest_blob(addr + offset, blob))
        self.annotator: Optional[WfiAnnotator] = try_annotate(software.image)

        # -- host-time accounting -------------------------------------------------------
        self.host_machine = self._pick_host_machine()
        self.ledger: Optional[HostLedger] = None
        if config.track_host_time:
            self.ledger = HostLedger(config.quantum, config.parallel, self.host_machine,
                                     config.num_cores, config.sim_costs)
        #: set by repro.telemetry.enable_telemetry; None when not observed
        self.telemetry = None
        #: set by repro.flight.enable_flight; None when no black box attached
        self.flight = None
        #: set by repro.obs.enable_obs; None when no observability attached
        self.obs = None

        # -- CPU cores ---------------------------------------------------------------------
        self.cpus: List = []
        self._halted_cores = 0
        for core in range(config.num_cores):
            cpu = self._build_cpu(core)
            cpu.bind_clock(self.cpu_clock)
            cpu.data_socket.bind(self.bus.in_socket)
            _wire(self.gic.irq_out[core], cpu.irq_in(0))
            cpu.host_ledger = self.ledger
            cpu.halt_callback = self._core_halted
            self.cpus.append(cpu)

    # -- subclass hooks ---------------------------------------------------------
    def _build_cpu(self, core: int):
        raise NotImplementedError

    def _pick_host_machine(self) -> HostMachine:
        raise NotImplementedError

    def _make_executor(self, core: int):
        """Build the guest executor for one core from the software descriptor."""
        software = self.software
        if software.mode == "interpreter":
            state = CpuState(core)
            state.pc = software.image.entry + software.load_offset
            return Interpreter(state, self.guest_memory, self.monitor)
        wfi_pc = (self.annotator.primary_address if self.annotator is not None
                  else software.image.entry)
        protocol = (software.irq_protocols(core)
                    if software.irq_protocols is not None else None)
        ctx = PhaseContext(
            core_id=core,
            memory=self.guest_memory,
            wfi_pc=wfi_pc,
            code_base=software.image.entry,
            irq_protocol=protocol,
        )
        return PhaseExecutor(software.phase_programs(core), ctx)

    def _load_guest_blob(self, address: int, blob: bytes) -> None:
        written = self.loader.dbg_write(address, bytes(blob))
        if written != len(blob):
            raise RuntimeError(
                f"guest image load failed: wrote {written}/{len(blob)} bytes at 0x{address:x}")

    # -- lifecycle -----------------------------------------------------------------
    def _core_halted(self, cpu) -> None:
        self._halted_cores += 1
        if self._halted_cores >= len(self.cpus):
            self.kernel.stop()

    def run(self, duration: Optional[SimTime] = None) -> SimTime:
        return self.sim.run(duration)

    # -- results -------------------------------------------------------------------------
    def total_instructions(self) -> int:
        return sum(cpu.instructions_retired for cpu in self.cpus)

    def wall_time_seconds(self) -> float:
        if self.ledger is None:
            raise RuntimeError("host-time tracking disabled for this platform")
        return self.ledger.wall_time_seconds()

    def mips(self) -> float:
        """Accumulated MIPS: retired instructions per modeled wall second."""
        wall = self.wall_time_seconds()
        if wall <= 0:
            return 0.0
        return self.total_instructions() / wall / 1e6

    def console_output(self) -> str:
        return self.uart.tx_text()

    @property
    def all_halted(self) -> bool:
        return self._halted_cores >= len(self.cpus)


class AoaPlatform(VirtualPlatform):
    """The paper's ARM-on-ARM VP: KVM-backed multicore CPU model."""

    def __init__(self, sim: Simulation, config: VpConfig, software: GuestSoftware,
                 name: str = "aoa"):
        self.kvm = Kvm(config.kvm_costs)
        self.vm: Optional[Vm] = None
        self.watchdog = Watchdog()
        self.watchdog.probes = sim.kernel.probes
        super().__init__(sim, config, software, name)
        # Apply WFI annotations after all vcpus exist (§IV-C step 3).
        if config.wfi_annotations:
            if self.annotator is None:
                raise RuntimeError(
                    "WFI annotations requested but the image has no cpu_do_idle symbol"
                )
            self.annotator.apply(cpu.vcpu for cpu in self.cpus)

    def _pick_host_machine(self) -> HostMachine:
        return self.config.host_for_aoa()

    def _build_cpu(self, core: int):
        if self.vm is None:
            self.vm = self.kvm.create_vm()
            # Map the VP's RAM (already DMI-resolved) as a KVM memory slot.
            for index, slot in enumerate(self.guest_memory.slots()):
                self.vm.set_user_memory_region(index, slot.guest_base, slot.memory)
        executor = self._make_executor(core)
        vcpu = self.vm.create_vcpu(core, executor)
        lane_speed = self.host_machine.lane_speed(core, self.config.num_cores,
                                                  self.config.parallel)
        from ..core.watchdog import KickGuard, UnguardedKick
        guard_factory = UnguardedKick if self.config.unguarded_watchdog else KickGuard
        return KvmCpu(
            f"cpu{core}",
            self.global_quantum,
            vcpu,
            self.watchdog,
            core_id=core,
            parent=self,
            parallel=self.config.parallel,
            annotator=self.annotator if self.config.wfi_annotations else None,
            costs=self.config.kvm_costs,
            sim_costs=self.config.sim_costs,
            lane_speed=lane_speed,
            kick_guard_factory=guard_factory,
        )


class Avp64Platform(VirtualPlatform):
    """The ISS-based reference VP (AVP64): DBT cores, same everything else."""

    def __init__(self, sim: Simulation, config: VpConfig, software: GuestSoftware,
                 name: str = "avp64"):
        super().__init__(sim, config, software, name)

    def _pick_host_machine(self) -> HostMachine:
        return self.config.host_for_iss()

    def _build_cpu(self, core: int):
        executor = self._make_executor(core)
        return IssCpu(
            f"cpu{core}",
            self.global_quantum,
            executor,
            core_id=core,
            parent=self,
            parallel=self.config.parallel,
            costs=self.config.iss_costs,
            sim_costs=self.config.sim_costs,
        )


def build_platform(kind: str, config: VpConfig, software: GuestSoftware):
    """Create a fresh Simulation plus a platform of ``kind`` (aoa/avp64).

    The new platform is attached to every open observer scope
    (:func:`repro.telemetry.collecting`, :func:`repro.flight.recording`,
    :func:`repro.obs.observing`) in the order they opened, so harnesses
    (e.g. ``repro.bench.runner``) can observe experiments without the
    experiments knowing.
    """
    sim = Simulation()
    if kind == "aoa":
        vp = AoaPlatform(sim, config, software)
    elif kind == "avp64":
        vp = Avp64Platform(sim, config, software)
    else:
        raise ValueError(f"unknown platform kind {kind!r} (want 'aoa' or 'avp64')")
    from ..obs.scope import attach_open_scopes
    attach_open_scopes(vp)
    return vp
