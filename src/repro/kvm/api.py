"""A Linux-KVM-shaped hypervisor model.

Mirrors the slice of the KVM API the paper's CPU model uses:

* ``Kvm`` → ``Vm`` → ``Vcpu`` object hierarchy (``/dev/kvm`` fd layering);
* user memory slots mapping VP RAM into guest-physical space
  (``KVM_SET_USER_MEMORY_REGION``) — populated from TLM-DMI pointers;
* ``Vcpu.run`` with the KVM_RUN exit protocol: ``MMIO``, ``DEBUG``
  (hardware breakpoints via ``set_guest_debug``), ``INTR`` (pending signal,
  i.e. the software watchdog's SIGUSR1), ``SYSTEM_EVENT`` (guest shutdown);
* interrupt injection (``KVM_IRQ_LINE``) and the in-kernel WFI behaviour:
  an un-annotated WFI blocks the vcpu thread inside the kernel until either
  an interrupt arrives or a signal (the watchdog) interrupts the run.

Guest code executes through a pluggable :class:`GuestExecutor` (the
functional interpreter or a phase program).  Host wall time consumed by a
run is *modeled* from :class:`KvmCostParams` — the executor reports retired
instructions; native execution speed, EL2 switch costs, WFI traps and debug
exits are billed per event and returned in :attr:`KvmExit.wall_ns`, which
the CPU model feeds into the host ledger.  Guests are restricted to
EL0/EL1, like real KVM without nested virtualization (§VI).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Protocol

from ..host.params import DEFAULT_KVM_COSTS, KvmCostParams
from ..iss.executor import ExitReason, GuestMemoryMap, MmioRequest, RunStats
from ..iss.interpreter import GlobalMonitor


class GuestExecutor(Protocol):
    """What the vcpu needs from an execution backend."""

    def run(self, max_instructions: int) -> "ExitInfoLike": ...

    def complete_mmio(self, read_data: Optional[bytes] = None) -> None: ...

    def set_irq(self, level: bool) -> None: ...

    def set_breakpoint(self, address: int) -> None: ...

    def clear_breakpoint(self, address: int) -> None: ...

    def sample_stats(self) -> RunStats: ...


class ExitInfoLike(Protocol):  # pragma: no cover - typing helper
    reason: ExitReason
    instructions: int
    pc: int
    mmio: Optional[MmioRequest]
    halt_code: int


class KvmExitReason(enum.Enum):
    MMIO = "mmio"
    DEBUG = "debug"
    EMULATION = "emulation"        # illegal-opcode trap: user space emulates
    INTR = "intr"                  # interrupted by a signal (watchdog kick)
    SYSTEM_EVENT = "system_event"  # guest shutdown / halt
    INTERNAL_ERROR = "internal_error"


#: hot-path aliases for the exits ``Vcpu.run`` sees most
_BUDGET = ExitReason.BUDGET
_MMIO = ExitReason.MMIO
_WFI = ExitReason.WFI
_INTR = KvmExitReason.INTR


class KvmExit:
    """Result of one ``Vcpu.run`` call: the vcpu's exit record.

    Each :class:`Vcpu` owns one and every run rewrites it in place (KVM's
    shared ``kvm_run`` page carries ``exit_reason`` and the exit data the
    same way), so a holder that keeps a field across runs copies it.
    """

    __slots__ = ("reason", "wall_ns", "instructions", "mmio", "pc", "halt_code",
                 "blocked_in_wfi", "message")

    def __init__(self, reason: KvmExitReason, wall_ns: float, instructions: int,
                 pc: int, mmio: Optional[MmioRequest] = None, halt_code: int = 0,
                 blocked_in_wfi: bool = False, message: str = ""):
        self.reason = reason
        self.wall_ns = wall_ns
        self.instructions = instructions
        self.pc = pc
        self.mmio = mmio
        self.halt_code = halt_code
        self.blocked_in_wfi = blocked_in_wfi
        self.message = message

    def __repr__(self) -> str:
        return (
            f"KvmExit({self.reason.value}, wall={self.wall_ns:.0f}ns, "
            f"insts={self.instructions}, pc=0x{self.pc:x})"
        )


class Kvm:
    """Top-level hypervisor handle (``open("/dev/kvm")``)."""

    API_VERSION = 12

    def __init__(self, costs: Optional[KvmCostParams] = None):
        self.costs = costs or DEFAULT_KVM_COSTS
        self._vms: List[Vm] = []

    def check_extension(self, name: str) -> bool:
        """Capability query (KVM_CHECK_EXTENSION).  The paper needs user
        memory slots, guest debug and irq injection; perf-counter-based PMU
        filtering is reported *absent*, matching Apple-Silicon hosts under
        Asahi Linux (§IV-B)."""
        supported = {"user_memory", "guest_debug_hw_bps", "irq_injection",
                     "one_reg", "arm_vhe"}
        return name in supported

    def create_vm(self) -> "Vm":
        vm = Vm(self)
        self._vms.append(vm)
        return vm


class Vm:
    """One virtual machine: memory slots + vcpus."""

    def __init__(self, kvm: Kvm):
        self.kvm = kvm
        self.memory = GuestMemoryMap()
        self.monitor = GlobalMonitor()
        self.vcpus: Dict[int, Vcpu] = {}
        self._slot_bases: Dict[int, int] = {}

    def set_user_memory_region(self, slot: int, guest_base: int, memory: memoryview) -> None:
        """Map VP memory into guest-physical space (a KVM memory slot)."""
        if slot in self._slot_bases:
            self.memory.remove_slot(self._slot_bases[slot])
        self.memory.add_slot(guest_base, memory)
        self._slot_bases[slot] = guest_base

    def create_vcpu(self, vcpu_id: int, executor: GuestExecutor) -> "Vcpu":
        if vcpu_id in self.vcpus:
            raise ValueError(f"vcpu {vcpu_id} already exists")
        vcpu = Vcpu(self, vcpu_id, executor)
        self.vcpus[vcpu_id] = vcpu
        return vcpu


class Vcpu:
    """One virtual CPU thread."""

    def __init__(self, vm: Vm, vcpu_id: int, executor: GuestExecutor):
        self.vm = vm
        self.vcpu_id = vcpu_id
        self.executor = executor
        self.costs = vm.kvm.costs
        self.immediate_exit = False       # KVM's run->immediate_exit (signal pending)
        self.irq_level = False
        self._debug_breakpoints: set = set()
        self.total_instructions = 0
        self.num_runs = 0
        self.num_mmio_exits = 0
        self.num_debug_exits = 0
        self.num_emulation_exits = 0
        self.num_wfi_blocks = 0
        self.num_intr_exits = 0
        #: the exit record every :meth:`run` rewrites and returns
        self.exit = KvmExit(KvmExitReason.INTR, 0.0, 0, 0)

    # -- snapshot support --------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "immediate_exit": self.immediate_exit,
            "irq_level": self.irq_level,
            "debug_breakpoints": sorted(self._debug_breakpoints),
            "total_instructions": self.total_instructions,
            "num_runs": self.num_runs,
            "num_mmio_exits": self.num_mmio_exits,
            "num_debug_exits": self.num_debug_exits,
            "num_emulation_exits": self.num_emulation_exits,
            "num_wfi_blocks": self.num_wfi_blocks,
            "num_intr_exits": self.num_intr_exits,
            "executor": self.executor.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.immediate_exit = bool(state["immediate_exit"])
        self.irq_level = bool(state["irq_level"])
        # Re-route the breakpoint set through the executor so its own
        # breakpoint bookkeeping stays consistent.
        self.set_guest_debug(state["debug_breakpoints"])
        self.total_instructions = state["total_instructions"]
        self.num_runs = state["num_runs"]
        self.num_mmio_exits = state["num_mmio_exits"]
        self.num_debug_exits = state["num_debug_exits"]
        self.num_emulation_exits = state["num_emulation_exits"]
        self.num_wfi_blocks = state["num_wfi_blocks"]
        self.num_intr_exits = state["num_intr_exits"]
        self.executor.restore_state(state["executor"])

    # -- control interfaces ------------------------------------------------
    def kick(self) -> None:
        """Deliver SIGUSR1 (the watchdog's kick): the next/current run exits."""
        self.immediate_exit = True

    def set_irq_line(self, level: bool) -> None:
        """KVM_IRQ_LINE: drive the vcpu's physical IRQ input."""
        self.irq_level = bool(level)
        self.executor.set_irq(self.irq_level)

    def set_unsupported_instructions(self, opcodes) -> None:
        """Declare opcodes the (virtual) host CPU cannot execute (§VI).

        Running one traps out of the guest with an EMULATION exit; the CPU
        model then emulates it in user space and resumes."""
        setter = getattr(self.executor, "unsupported_ops", None)
        if setter is None:
            raise RuntimeError("this executor does not support instruction emulation")
        self.executor.unsupported_ops = set(opcodes)

    def emulate_instruction(self):
        """User-space emulation of the trapped instruction (one step)."""
        info = self.executor.emulate_one()
        self.total_instructions += info.instructions
        return info

    def set_guest_debug(self, breakpoints) -> None:
        """KVM_SET_GUEST_DEBUG with hardware breakpoints (replaces the set)."""
        for address in self._debug_breakpoints:
            self.executor.clear_breakpoint(address)
        self._debug_breakpoints = set(breakpoints)
        for address in self._debug_breakpoints:
            self.executor.set_breakpoint(address)

    # -- the run loop ------------------------------------------------------------
    def run(self, wall_budget_ns: float, speed_factor: float = 1.0) -> KvmExit:
        """Enter the guest for at most ``wall_budget_ns`` of host wall time.

        ``speed_factor`` scales native execution speed for the host core the
        vcpu thread landed on (efficiency cores run slower).  The budget is
        what the software watchdog allows; budget exhaustion surfaces as an
        ``INTR`` exit, exactly like a SIGUSR1 interrupting KVM_RUN.

        Returns this vcpu's one exit record (:attr:`exit`), rewritten in
        place by every run: it is valid until the next ``run``.
        """
        costs = self.costs
        self.num_runs += 1
        elapsed = costs.entry_exit_ns
        executed_total = 0
        mmio = None
        halt_code = 0
        blocked_in_wfi = False
        message = ""
        if self.immediate_exit:
            self.immediate_exit = False
            self.num_intr_exits += 1
            reason = _INTR
            pc = self._pc()
        else:
            ns_per_inst = costs.native_ns_per_inst / speed_factor
            executor = self.executor
            while True:
                budget_left = wall_budget_ns - elapsed
                max_instructions = int(budget_left / ns_per_inst)
                if max_instructions <= 0:
                    elapsed = max(elapsed + costs.signal_delivery_ns, wall_budget_ns)
                    self.num_intr_exits += 1
                    reason = _INTR
                    pc = self._pc()
                    break
                info = executor.run(max_instructions)
                executed = info.instructions
                executed_total += executed
                self.total_instructions += executed
                elapsed += executed * ns_per_inst
                pc = info.pc
                exit_reason = info.reason
                if exit_reason is _BUDGET:
                    # Watchdog fires and SIGUSR1 yanks us back to user space.
                    elapsed = max(elapsed + costs.signal_delivery_ns, wall_budget_ns)
                    self.num_intr_exits += 1
                    reason = _INTR
                    break
                if exit_reason is _MMIO:
                    self.num_mmio_exits += 1
                    reason = KvmExitReason.MMIO
                    mmio = info.mmio
                    break
                if exit_reason is _WFI:
                    # In-kernel WFI handling: the vcpu thread blocks until an
                    # interrupt arrives or the watchdog signal ends the run.
                    # No other simulation progress can happen meanwhile (the
                    # models that would raise the interrupt run in the
                    # SystemC thread), so the block always lasts until the
                    # watchdog kick.
                    elapsed += costs.wfi_trap_ns
                    if self.irq_level:
                        continue   # interrupt already pending: WFI falls through
                    self.num_wfi_blocks += 1
                    blocked = max(0.0, wall_budget_ns - elapsed)
                    elapsed += blocked + costs.signal_delivery_ns
                    self.num_intr_exits += 1
                    reason = _INTR
                    blocked_in_wfi = True
                    break
                if exit_reason is ExitReason.BREAKPOINT:
                    elapsed += costs.debug_exit_ns
                    self.num_debug_exits += 1
                    reason = KvmExitReason.DEBUG
                    break
                if exit_reason is ExitReason.EMULATION:
                    elapsed += costs.emulation_exit_ns
                    self.num_emulation_exits += 1
                    reason = KvmExitReason.EMULATION
                    break
                if exit_reason is ExitReason.HALT:
                    reason = KvmExitReason.SYSTEM_EVENT
                    halt_code = info.halt_code
                    break
                if exit_reason is ExitReason.ERROR:
                    reason = KvmExitReason.INTERNAL_ERROR
                    message = info.message
                    break
                raise AssertionError(f"unhandled executor exit {exit_reason}")  # pragma: no cover
        record = self.exit
        record.reason = reason
        record.wall_ns = elapsed
        record.instructions = executed_total
        record.pc = pc
        record.mmio = mmio
        record.halt_code = halt_code
        record.blocked_in_wfi = blocked_in_wfi
        record.message = message
        return record

    def complete_mmio(self, read_data: Optional[bytes] = None) -> None:
        self.executor.complete_mmio(read_data)
        self.total_instructions += 1

    def _pc(self) -> int:
        return getattr(self.executor, "pc", 0)

    def stats(self) -> RunStats:
        return self.executor.sample_stats()
