"""Processor base class (``vcml::processor``).

Implements the loosely-timed simulation loop the paper builds on: an
SC_THREAD repeatedly asks the backend to ``simulate(cycles)`` for the
remainder of the current quantum, advances the local time offset by the
cycles actually consumed, and synchronizes with the SystemC kernel when the
quantum is exhausted.  The loop and host-time billing work in ``int``
picoseconds (the keeper's ``offset_ps``, the quantum's ``quantum_ps``); the
only ``SimTime`` a leg builds is the sync wait it yields to the kernel.

The backend (ISS or KVM) reports what stopped it through
:class:`SimulateResult`:

* ``CONTINUE`` — budget exhausted or an MMIO access was already handled;
  keep looping.
* ``WAIT_IRQ``  — the core executed WFI (annotated); the thread synchronizes
  and then suspends on the interrupt event, skipping idle time entirely.
  It emits ``wfi_suspend`` before the sync and ``wfi_resume`` once it
  continues, whether or not it slept.
* ``HALT``      — the core is done (test finished / powered off).

Parallel execution (the DAC'24 parallelization scheme the paper reuses) is
modeled through the host-time ledger: when ``parallel`` is enabled each
core's simulate work is billed to its own host lane, and lanes are combined
per quantum window by ``max`` instead of ``sum``.  Functional behaviour is
identical in both modes, which mirrors the paper's claim that parallel mode
changes performance, not semantics.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Union

from ..fabric.port import MemoryPort
from ..host.machine import MAIN_LANE
from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..systemc.signal import IrqLine
from ..tlm.quantum import GlobalQuantum, QuantumKeeper
from ..tlm.sockets import InitiatorSocket
from .component import Component


class SimulateAction(enum.Enum):
    CONTINUE = "continue"
    WAIT_IRQ = "wait_irq"
    HALT = "halt"
    BREAK = "break"      # debugger stop: pause this core, stop the kernel


class SimulateResult:
    """Outcome of one backend ``simulate`` call."""

    __slots__ = ("cycles", "action")

    def __init__(self, cycles: int, action: SimulateAction = SimulateAction.CONTINUE):
        if cycles < 0:
            raise ValueError(f"simulate consumed negative cycles: {cycles}")
        self.cycles = cycles
        self.action = action

    def __repr__(self) -> str:
        return f"SimulateResult(cycles={self.cycles}, action={self.action.value})"


_CONTINUE = SimulateAction.CONTINUE
_WAIT_IRQ = SimulateAction.WAIT_IRQ
_HALT = SimulateAction.HALT
_BREAK = SimulateAction.BREAK


class Processor(Component):
    """Loosely-timed CPU model shell; subclasses provide ``simulate()``."""

    def __init__(
        self,
        name: str,
        global_quantum: GlobalQuantum,
        core_id: int = 0,
        *,
        parent: Union[Module, Kernel],
        parallel: bool = False,
    ):
        super().__init__(name, parent)
        self.core_id = core_id
        self.parallel = parallel
        self.data_socket = InitiatorSocket(f"{self.name}.data", initiator_id=core_id)
        #: the unified fabric access layer; all data-side memory traffic
        #: (MMIO completion, debugger peek/poke) goes through here
        self.mem = MemoryPort(self.data_socket)
        #: the kernel's probe points; the fabric port emits on them too
        self.probes = self.kernel.probes
        self.mem.probes = self.probes
        self.keeper = QuantumKeeper(global_quantum, self.kernel)
        self.irq_event = self.sc_event("irq")
        self.irq_lines: Dict[int, IrqLine] = {}
        self._irq_levels: Dict[int, bool] = {}
        self.waiting_for_irq = False
        self.halted = False
        self.host_ledger = None  # attached by the VP (repro.host.accounting)
        # Statistics
        self.total_cycles = 0
        self.num_simulate_calls = 0
        self.num_syncs = 0
        self._thread = None
        self.halt_callback = None  # invoked (once) when the core halts
        # Debugger support: a BREAK simulate action parks the thread here.
        self.debug_paused = False
        self.debug_resume_event = self.sc_event("debug_resume")
        #: where the SC_THREAD is currently parked (set right before every
        #: yield).  repro.snapshot serializes this label and restores the
        #: process as a fresh generator that re-enters the loop at the
        #: matching continuation (:meth:`_resume_thread`).
        self._park = "start"

    # -- elaboration -----------------------------------------------------------
    def start_of_simulation(self) -> None:
        if self._thread is None:
            self._thread = self.sc_thread(self._processor_thread, name=f"core{self.core_id}")

    # -- interrupt wiring --------------------------------------------------------
    def irq_in(self, number: int) -> IrqLine:
        """Return (creating on demand) the interrupt input line ``number``."""
        line = self.irq_lines.get(number)
        if line is None:
            line = IrqLine(f"{self.name}.irq{number}", self.kernel)
            line.connect(lambda level, num=number: self._irq_changed(num, level))
            self.irq_lines[number] = line
        return line

    def _irq_changed(self, number: int, level: bool) -> None:
        self._irq_levels[number] = level
        self.on_interrupt(number, level)
        if level:
            self.irq_event.notify(delay=None)

    def irq_pending(self) -> bool:
        return any(self._irq_levels.values())

    def on_interrupt(self, number: int, level: bool) -> None:
        """Subclass hook: forward the line level into the execution backend."""

    # -- host-time accounting -------------------------------------------------------
    def bill_host_time(self, nanoseconds: float, category: str = "cpu",
                       main_thread: bool = False) -> None:
        """Record modeled host wall-clock work for this core.

        ``main_thread`` work (MMIO handling, sync) always lands on the main
        lane; core work lands on the core's own lane when parallel mode is
        enabled, otherwise also on the main lane.
        """
        if main_thread or not self.parallel:
            lane = MAIN_LANE
        else:
            lane = self.core_id
        self._bill(self._bill_window(), lane, nanoseconds, category, main_thread)

    def _bill_window(self) -> Optional[int]:
        """The ledger window of work billed now (None without a ledger):
        the window holding this core's local time, i.e. kernel time plus
        the quantum keeper's offset.  Neither moves inside a ``simulate``
        leg, so a leg computes it once for all the amounts it bills."""
        ledger = self.host_ledger
        if ledger is None:
            return None
        return (self._kernel._now_ps + self.keeper.offset_ps) // ledger.window_ps

    def _bill(self, window: Optional[int], lane: int, nanoseconds: float,
              category: str, main_thread: bool) -> None:
        """Bill one amount to a known window and lane.

        Every billing funnels through here: one ledger add and one
        ``host_bill`` event per amount.  Callers bill each amount
        separately and in order, never a pre-summed total, because float
        addition order is what keeps :meth:`HostLedger.wall_time_ns`
        bit-identical.
        """
        ledger = self.host_ledger
        if ledger is None or nanoseconds <= 0:
            return
        ledger.add(window, lane, nanoseconds, category)
        fire = self.probes.host_bill
        if fire is not None:
            fire(self, window, lane, nanoseconds, category, main_thread)

    # -- backend interface ------------------------------------------------------------
    def simulate(self, cycles: int) -> SimulateResult:
        """Execute up to ``cycles`` target cycles; must be overridden."""
        raise NotImplementedError

    def _invoke_simulate(self, cycles: int) -> SimulateResult:
        """One counted backend call, emitted as ``simulate``.

        Single funnel between the loop and ``simulate()``: the point
        carries the granted budget and the result together, which is what
        the quantum sanitizer (SAN004, :mod:`repro.analysis.sanitize`)
        subscribes to.
        """
        self.num_simulate_calls += 1
        result = self.simulate(cycles)
        fire = self.probes.simulate
        if fire is not None:
            fire(self, cycles, result)
        return result

    def _exited(self, info) -> None:
        """Emit ``vcpu_exit`` and ``retire`` for one backend run return
        (``info`` is the backend's exit record: instructions, pc, reason)."""
        fire = self.probes.vcpu_exit
        if fire is not None:
            fire(self, info)
        fire = self.probes.retire
        if fire is not None:
            fire(self, info.instructions, info.pc)

    def _sync_wait(self):
        """Count a quantum sync, emit ``quantum_sync``, return the wait."""
        self.num_syncs += 1
        fire = self.probes.quantum_sync
        if fire is not None:
            fire(self)
        return self.keeper.sync_wait()

    # -- the simulation loop -------------------------------------------------------------
    def _processor_thread(self):
        keeper = self.keeper
        global_quantum = keeper.global_quantum
        while not self.halted:
            rst = self.rst
            if rst is not None and rst.asserted:
                self._park = "reset"
                yield rst.deasserted_event
                continue
            remaining_ps = global_quantum.quantum_ps - keeper.offset_ps
            if remaining_ps <= 0:
                self._park = "sync"
                yield self._sync_wait()
                continue
            # Clock.ps_to_cycles and Clock.cycles_to_ps, inlined with the
            # same float formulas so cycle counts stay bit-identical.
            frequency_hz = self._clock().frequency_hz
            cycles = int(remaining_ps / 1_000_000_000_000 * frequency_hz)
            if cycles <= 0:
                # Quantum finer than one clock cycle: force minimal progress.
                cycles = 1
            result = self._invoke_simulate(cycles)
            consumed = result.cycles
            self.total_cycles += consumed
            keeper.offset_ps += round(consumed * 1_000_000_000_000 / frequency_hz)
            action = result.action
            if action is _CONTINUE:
                if keeper.offset_ps >= global_quantum.quantum_ps:
                    self._park = "sync"
                    yield self._sync_wait()
                continue
            if action is _HALT:
                self.halted = True
                self._park = "sync"
                yield self._sync_wait()
                break
            if action is _BREAK:
                # Debugger stop: realize local time, park until resumed,
                # and hand control back to the host (the debugger).
                self._park = "break_sync"
                yield self._sync_wait()
                self.debug_paused = True
                self.kernel.stop()
                self._park = "debug"
                yield self.debug_resume_event
                self.debug_paused = False
                continue
            if action is _WAIT_IRQ:
                # Realize local time, then sleep until an interrupt arrives.
                # The suspend begins at the local time the leg reached.
                begin_ps = self._kernel._now_ps + keeper.offset_ps
                fire = self.probes.wfi_suspend
                if fire is not None:
                    fire(self, begin_ps)
                self._park = "wait_irq_sync"
                yield self._sync_wait()
                if not self.irq_pending():
                    self.waiting_for_irq = True
                    self._park = "wait_irq"
                    yield self.irq_event
                    self.waiting_for_irq = False
                fire = self.probes.wfi_resume
                if fire is not None:
                    fire(self, begin_ps, self._kernel._now_ps + keeper.offset_ps)
        self.on_halt()
        if self.halt_callback is not None:
            self.halt_callback(self)

    def _resume_thread(self, site: str):
        """Re-enter the simulation loop at a serialized park site.

        Used by :mod:`repro.snapshot` only: the restored process is parked
        on the same wait the original was (a timed sync wakeup or the IRQ
        event, re-created from the snapshot), and this generator is its
        body.  When that wait completes, the kernel steps the generator and
        the site-specific prelude below runs exactly the continuation the
        original generator would have executed after its ``yield`` —
        after which control folds back into the normal loop, whose
        top-of-iteration is behaviorally identical for every other site
        (``sync_wait`` already zeroed the keeper offset before the yield).
        A WFI site's suspend began before the snapshot, so it emits no
        ``wfi_resume``.
        """
        if site == "wait_irq_sync":
            # Original continuation: after realizing local time, check for
            # a pending interrupt and only then sleep on the IRQ event.
            if not self.irq_pending():
                self.waiting_for_irq = True
                self._park = "wait_irq"
                yield self.irq_event
                self.waiting_for_irq = False
        elif site == "wait_irq":
            self.waiting_for_irq = False
        yield from self._processor_thread()

    # -- snapshot support -----------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable shell state shared by every processor backend.

        Subclasses extend the dict with backend-specific state.  IRQ line
        levels are keyed by the (sorted) line number so snapshot bytes do
        not depend on dict insertion order.
        """
        return {
            "park": self._park,
            "irq_levels": {str(number): bool(level) for number, level
                           in sorted(self._irq_levels.items())},
            "irq_line_levels": {str(number): self.irq_lines[number].level
                                for number in sorted(self.irq_lines)},
            "waiting_for_irq": self.waiting_for_irq,
            "halted": self.halted,
            "debug_paused": self.debug_paused,
            "local_offset_ps": self.keeper.offset_ps,
            "total_cycles": self.total_cycles,
            "num_simulate_calls": self.num_simulate_calls,
            "num_syncs": self.num_syncs,
        }

    def restore_state(self, state: dict) -> None:
        """Install a :meth:`snapshot_state` dict.

        IRQ input lines must already exist (the restored platform was built
        by the same constructor, so the GIC wiring re-created them); their
        levels are poked without firing the change callbacks — the backend's
        latched levels are restored from the same dict.
        """
        self._park = state["park"]
        self._irq_levels = {int(number): bool(level)
                            for number, level in state["irq_levels"].items()}
        for number, level in state["irq_line_levels"].items():
            self.irq_lines[int(number)]._level = bool(level)
        self.waiting_for_irq = bool(state["waiting_for_irq"])
        self.halted = bool(state["halted"])
        self.debug_paused = bool(state["debug_paused"])
        self.keeper.offset_ps = state["local_offset_ps"]
        self.total_cycles = state["total_cycles"]
        self.num_simulate_calls = state["num_simulate_calls"]
        self.num_syncs = state["num_syncs"]

    def on_halt(self) -> None:
        """Subclass hook invoked when the processor thread terminates."""
