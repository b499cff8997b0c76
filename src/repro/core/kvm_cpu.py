"""The multicore KVM-backed SystemC-TLM CPU model — the paper's contribution.

``KvmCpu`` plugs a simulated-KVM vcpu into the VCML ``processor`` contract
(:class:`repro.vcml.Processor`).  Each ``simulate(cycles)`` call implements
the execution loop of Fig. 3:

1. convert the cycle budget into an allowed wall-clock runtime using the
   vcpu clock (instruction-accurate assumption: one instruction per cycle);
2. arm the shared software watchdog with the current kick id (Listing 1);
3. inject pending interrupts and issue ``KVM_RUN``;
4. on return, increment the kick id and derive consumed cycles from the
   measured run time;
5. dispatch the exit reason:

   * **MMIO** — build a TLM transaction and route it through the data
     socket (shifted to the main thread in parallel mode), then complete
     the guest access;
   * **DEBUG** — verify the PC against the WFI annotations; a match means
     the guest is entering its idle loop, so the model returns ``WAIT_IRQ``
     and the SystemC thread suspends until the next interrupt;
   * **INTR** — the watchdog ended the quantum: plain return;
   * **SYSTEM_EVENT** — the guest halted.

The model is a drop-in replacement for an ISS-based processor: it drives
the same sockets, IRQ lines and quantum keeper as :class:`IssCpu`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..host.params import DEFAULT_KVM_COSTS, DEFAULT_SIM_COSTS, KvmCostParams, SimulationCostParams
from ..kvm.api import KvmExitReason, Vcpu
from ..systemc.module import Module
from ..tlm.quantum import GlobalQuantum
from ..vcml.processor import Processor, SimulateAction, SimulateResult
from .watchdog import KickGuard, Watchdog
from .wfi import WfiAnnotator


class KvmCpu(Processor):
    """One KVM-backed core of the AoA virtual platform."""

    def __init__(
        self,
        name: str,
        global_quantum: GlobalQuantum,
        vcpu: Vcpu,
        watchdog: Watchdog,
        core_id: int = 0,
        parent: Optional[Module] = None,
        parallel: bool = False,
        annotator: Optional[WfiAnnotator] = None,
        costs: Optional[KvmCostParams] = None,
        sim_costs: Optional[SimulationCostParams] = None,
        lane_speed: float = 1.0,
        kick_guard_factory: Callable[[Callable[[], None]], KickGuard] = KickGuard,
    ):
        super().__init__(name, global_quantum, core_id, parent, parallel)
        self.vcpu = vcpu
        self.watchdog = watchdog
        self.annotator = annotator
        self.costs = costs or DEFAULT_KVM_COSTS
        self.sim_costs = sim_costs or DEFAULT_SIM_COSTS
        self.lane_speed = lane_speed
        # The kick path: watchdog expiry -> KickGuard -> SIGUSR1 -> vcpu.
        self.kick_guard = kick_guard_factory(self.vcpu.kick)
        self.kick_guard.probes = self.probes
        self.host_now_ns = 0.0            # this vcpu thread's wall clock
        self.on_breakpoint: Optional[Callable[[int], None]] = None
        # Statistics
        self.num_mmio = 0
        self.num_wfi_suspends = 0
        self.num_bus_errors = 0
        self.num_user_breakpoints = 0
        self.num_emulations = 0
        #: when True, user (non-annotation) breakpoints pause the core for
        #: an attached debugger instead of being skipped over
        self.debug_break_enabled = False

    # -- snapshot support -----------------------------------------------------
    def snapshot_state(self) -> dict:
        state = super().snapshot_state()
        state["kvm"] = {
            "host_now_ns": self.host_now_ns,
            "num_mmio": self.num_mmio,
            "num_wfi_suspends": self.num_wfi_suspends,
            "num_bus_errors": self.num_bus_errors,
            "num_user_breakpoints": self.num_user_breakpoints,
            "num_emulations": self.num_emulations,
            "debug_break_enabled": self.debug_break_enabled,
            "kick_id": self.kick_guard.m_kickid,
            "vcpu": self.vcpu.snapshot_state(),
        }
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        kvm = state["kvm"]
        self.host_now_ns = kvm["host_now_ns"]
        self.num_mmio = kvm["num_mmio"]
        self.num_wfi_suspends = kvm["num_wfi_suspends"]
        self.num_bus_errors = kvm["num_bus_errors"]
        self.num_user_breakpoints = kvm["num_user_breakpoints"]
        self.num_emulations = kvm["num_emulations"]
        self.debug_break_enabled = bool(kvm["debug_break_enabled"])
        self.kick_guard.m_kickid = kvm["kick_id"]
        self.vcpu.restore_state(kvm["vcpu"])

    # -- interrupt plumbing ---------------------------------------------------
    def on_interrupt(self, number: int, level: bool) -> None:
        """Forward the GIC's nIRQ level into the vcpu (KVM_IRQ_LINE)."""
        self.vcpu.set_irq_line(level)
        if level:
            # The injecting ioctl runs in the SystemC (main) thread.
            self.bill_host_time(self.costs.irq_injection_ns, "irq", main_thread=True)

    # -- the Fig. 3 loop -----------------------------------------------------------
    def simulate(self, cycles: int) -> SimulateResult:
        costs = self.costs
        freq_hz = self.clk.frequency_hz
        # (1) allowed runtime from the cycle budget (1 cycle == 1 instruction).
        budget_ns = cycles * 1e9 / freq_hz
        # (2) program the software watchdog for the current kick id.
        self.kick_guard.arm(self.watchdog, self.core_id, self.host_now_ns, budget_ns)
        self.bill_host_time(costs.watchdog_program_ns, "watchdog")
        # (3) pending interrupts were injected by on_interrupt; store the
        # timestamp and enter the guest.
        exit_info = self.vcpu.run(budget_ns, self.lane_speed)
        self._exited(exit_info)
        # (4) measure the run time, fire due watchdog timers, bump the id.
        self.host_now_ns += exit_info.wall_ns
        self.watchdog.advance(self.core_id, self.host_now_ns)
        if exit_info.reason is KvmExitReason.INTR:
            # The signal that ended this run is consumed by its EINTR return.
            self.vcpu.immediate_exit = False
        self.kick_guard.next_run()
        consumed = self._cycles_from_wall(exit_info.wall_ns, cycles, freq_hz)
        category = "wfi_blocked" if exit_info.blocked_in_wfi else "guest"
        self.bill_host_time(exit_info.wall_ns, category)
        # (5) dispatch the exit reason.
        if exit_info.reason is KvmExitReason.MMIO:
            consumed += self._handle_mmio(exit_info.mmio)
            return SimulateResult(consumed, SimulateAction.CONTINUE)
        if exit_info.reason is KvmExitReason.DEBUG:
            return self._handle_debug(exit_info.pc, consumed)
        if exit_info.reason is KvmExitReason.EMULATION:
            consumed += self._handle_emulation()
            return SimulateResult(consumed, SimulateAction.CONTINUE)
        if exit_info.reason is KvmExitReason.INTR:
            return SimulateResult(consumed, SimulateAction.CONTINUE)
        if exit_info.reason is KvmExitReason.SYSTEM_EVENT:
            return SimulateResult(consumed, SimulateAction.HALT)
        raise RuntimeError(
            f"{self.name}: KVM internal error at pc=0x{exit_info.pc:x}: {exit_info.message}"
        )

    # -- exit handlers ----------------------------------------------------------------
    def _handle_mmio(self, request) -> int:
        """Forward the trapped access through the fabric port (main thread)."""
        self.num_mmio += 1
        fire = self.probes.mmio_request
        if fire is not None:
            fire(self, request)
        if request.is_write:
            result = self.mem.write(request.address, request.data)
        else:
            result = self.mem.read(request.address, request.size)
        # Host cost: the exit already paid entry/exit; add the user-space
        # round trip, the peripheral model, and (in parallel mode) the shift
        # of the access back into the main thread [16].
        self.bill_host_time(self.costs.mmio_roundtrip_ns, "mmio")
        self.host_now_ns += self.costs.mmio_roundtrip_ns
        self.bill_host_time(self.sim_costs.peripheral_access_ns, "mmio", main_thread=True)
        if self.parallel:
            self.bill_host_time(self.sim_costs.parallel_mmio_shift_ns, "mmio", main_thread=True)
            self.bill_host_time(self.sim_costs.parallel_mmio_shift_ns, "mmio")
            self.host_now_ns += self.sim_costs.parallel_mmio_shift_ns
        if result.ok:
            data = result.data if not request.is_write else None
        else:
            # Bus error: reads complete as zeros (matching how VPs usually
            # survive stray accesses); counted for diagnostics.
            self.num_bus_errors += 1
            data = bytes(request.size) if not request.is_write else None
        self.vcpu.complete_mmio(data)
        fire = self.probes.retire
        if fire is not None:
            fire(self, 1, getattr(self.vcpu.executor, "pc", 0))
        # The transaction's annotated delay advances target time.
        cycles = self.time_to_cycles(result.delay)
        fire = self.probes.mmio_response
        if fire is not None:
            fire(self, request, cycles, result.ok)
        return cycles

    def _handle_emulation(self) -> int:
        """User-space emulation of a host-unsupported instruction (§VI).

        The trapped instruction's architectural effect is produced by the
        VP's own interpreter; if it is an MMIO access, the usual TLM path
        handles it.  Returns additionally consumed cycles.
        """
        self.num_emulations += 1
        self.bill_host_time(self.costs.emulation_step_ns, "emulation")
        self.host_now_ns += self.costs.emulation_step_ns
        info = self.vcpu.emulate_instruction()
        fire = self.probes.retire
        if fire is not None:
            fire(self, info.instructions, info.pc)
        extra_cycles = 1
        from ..iss.executor import ExitReason
        if info.reason is ExitReason.MMIO:
            extra_cycles += self._handle_mmio(info.mmio)
        return extra_cycles

    def _handle_debug(self, pc: int, consumed: int) -> SimulateResult:
        """Breakpoint exit: WFI annotation check (§IV-C step 4)."""
        if self.annotator is not None and self.annotator.verify_pc(pc):
            self.num_wfi_suspends += 1
            self.bill_host_time(self.costs.wfi_suspend_resume_ns, "wfi_annotation")
            self.host_now_ns += self.costs.wfi_suspend_resume_ns
            return SimulateResult(consumed, SimulateAction.WAIT_IRQ)
        self.num_user_breakpoints += 1
        if self.on_breakpoint is not None:
            self.on_breakpoint(pc)
        if self.debug_break_enabled:
            return SimulateResult(consumed, SimulateAction.BREAK)
        return SimulateResult(consumed, SimulateAction.CONTINUE)

    # -- helpers ----------------------------------------------------------------------
    @staticmethod
    def _cycles_from_wall(wall_ns: float, budget_cycles: int, freq_hz: float) -> int:
        """The paper's timing approximation: measured wall time -> cycles.

        Clamped to [1, 2x budget]: the watchdog bounds overshoot, and a
        minimum of one cycle guarantees forward progress of simulated time.
        """
        cycles = round(wall_ns * freq_hz / 1e9)
        return max(1, min(cycles, 2 * budget_cycles))

    @property
    def instructions_retired(self) -> int:
        return self.vcpu.total_instructions
