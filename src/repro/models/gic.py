"""GIC-400 interrupt controller model (GICv2 subset).

Implements the pieces the VP and the synthetic Linux use:

* **Distributor** (``GICD``): global enable, per-interrupt enable bits,
  software-generated interrupts (``GICD_SGIR`` — the IPI mechanism used for
  secondary-core bring-up), SPI target routing.
* **CPU interfaces** (``GICC``, one register window per core): priority
  mask, interrupt acknowledge (``GICC_IAR``) and end-of-interrupt
  (``GICC_EOIR``).

Interrupt taxonomy follows the architecture: ids 0–15 are SGIs (banked per
core), 16–31 PPIs (banked per core, used by the per-core timer), 32+ SPIs
(global, routed by target mask).  Each core has an ``nIRQ`` output line
(:class:`IrqLine`) that the CPU models connect to; the line is high while
any enabled, pending, un-acknowledged interrupt is routed to that core.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..systemc.signal import IrqLine
from ..systemc.time import SimTime
from ..tlm.payload import GenericPayload, ResponseStatus
from ..tlm.sockets import TargetSocket
from ..vcml.component import Component

SPURIOUS_IRQ = 1023

# Distributor register offsets.
GICD_CTLR = 0x000
GICD_TYPER = 0x004
GICD_ISENABLER = 0x100    # 0x100..0x17C
GICD_ICENABLER = 0x180
GICD_ISPENDR = 0x200
GICD_ICPENDR = 0x280
GICD_ITARGETSR = 0x800    # byte per interrupt
GICD_SGIR = 0xF00

# CPU-interface register offsets.
GICC_CTLR = 0x00
GICC_PMR = 0x04
GICC_IAR = 0x0C
GICC_EOIR = 0x10

GICD_SIZE = 0x1000
GICC_SIZE = 0x100


# -- snapshot-state checks: a bad value raises ValueError naming its field ----

def _flag(value, field: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"gic.{field}: want a bool, got {type(value).__name__}")
    return value


def _int(value, field: str, low: int = 0, high: Optional[int] = None) -> int:
    """``value`` if it is an int (not a bool) in ``low..high``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"gic.{field}: want an int, got {type(value).__name__}")
    if value < low:
        raise ValueError(f"gic.{field}: {value} is below {low}")
    if high is not None and value > high:
        raise ValueError(f"gic.{field}: {value} is above {high}")
    return value


def _list(value, field: str, length: Optional[int] = None) -> list:
    """``value`` if it is a list (of exactly ``length`` entries, if given)."""
    if not isinstance(value, list) or (length is not None
                                       and len(value) != length):
        want = "a list" if length is None else f"a list of {length} entries"
        raise ValueError(f"gic.{field}: want {want}")
    return value


def _dict(value, field: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"gic.{field}: want an object")
    return value


def _irqs(value, field: str, low: int, high: int) -> Set[int]:
    return {_int(irq, field, low, high) for irq in _list(value, field)}


def _key(key: str, field: str, low: int, high: int) -> int:
    """A canonical decimal dict key (``"33"``) as an int in ``low..high``."""
    if not (isinstance(key, str) and key.isdigit() and str(int(key)) == key):
        raise ValueError(f"gic.{field}: bad key {key!r}")
    return _int(int(key), field, low, high)


class Gic400(Component):
    """A GICv2-style interrupt controller for up to 8 cores.

    Distributor and CPU-interface state (the pending/enabled/active sets,
    the per-core banked lists) is touched from every core's MMIO path;
    that is safe because the kernel runs every core's ``simulate()`` leg
    on the one scheduler thread.
    """

    MAX_IRQS = 256

    def __init__(self, name: str, num_cpus: int, parent: Union[Module, Kernel]):
        super().__init__(name, parent)
        if not 1 <= num_cpus <= 8:
            raise ValueError(f"GIC-400 supports 1..8 cpus, got {num_cpus}")
        self.num_cpus = num_cpus
        self.dist_enabled = False
        self.cpu_enabled = [False] * num_cpus
        self.priority_mask = [0xFF] * num_cpus
        self.enabled: Set[int] = set()
        # Banked pending state for SGIs/PPIs; global for SPIs.
        self.pending_banked: List[Set[int]] = [set() for _ in range(num_cpus)]
        self.pending_spi: Set[int] = set()
        self.active: List[Set[int]] = [set() for _ in range(num_cpus)]
        self.spi_levels: Dict[int, bool] = {}
        self.spi_targets: Dict[int, int] = {}     # irq -> cpu bit mask
        # Input-line registries (the wiring callbacks hold the only other
        # reference); repro.snapshot restores their latched levels so the
        # IrqLine level dedupe stays consistent with the latched GIC state.
        self._spi_lines: Dict[int, IrqLine] = {}
        self._ppi_lines: Dict[Tuple[int, int], IrqLine] = {}
        self.irq_out: List[IrqLine] = [
            IrqLine(f"{self.name}.irq_out{cpu}", self.kernel) for cpu in range(num_cpus)
        ]
        self.dist_socket = TargetSocket(f"{self.name}.dist", self._dist_transport,
                                        probes=self.kernel.probes)
        self.cpu_sockets = [
            TargetSocket(f"{self.name}.cpu{cpu}", self._make_cpu_transport(cpu),
                         probes=self.kernel.probes)
            for cpu in range(num_cpus)
        ]
        self.num_sgis_sent = 0
        self.num_acks = 0
        self.num_eois = 0

    # -- peripheral-facing interrupt inputs ------------------------------------
    def spi_in(self, irq: int) -> IrqLine:
        """Level-sensitive SPI input line (irq id >= 32)."""
        if irq < 32 or irq >= self.MAX_IRQS:
            raise ValueError(f"SPI id must be in [32, {self.MAX_IRQS}), got {irq}")
        line = self._spi_lines.get(irq)
        if line is None:
            line = IrqLine(f"{self.name}.spi{irq}", self.kernel)
            line.connect(lambda level, irq=irq: self._spi_changed(irq, level))
            self._spi_lines[irq] = line
        self.spi_targets.setdefault(irq, 0x1)     # default target: cpu 0
        return line

    def ppi_in(self, cpu: int, irq: int) -> IrqLine:
        """Per-core private peripheral interrupt input (16 <= id < 32)."""
        if not 16 <= irq < 32:
            raise ValueError(f"PPI id must be in [16, 32), got {irq}")
        line = self._ppi_lines.get((cpu, irq))
        if line is None:
            line = IrqLine(f"{self.name}.cpu{cpu}.ppi{irq}", self.kernel)
            line.connect(lambda level, cpu=cpu, irq=irq: self._ppi_changed(cpu, irq, level))
            self._ppi_lines[(cpu, irq)] = line
        return line

    def _spi_changed(self, irq: int, level: bool) -> None:
        self.spi_levels[irq] = level
        if level:
            self.pending_spi.add(irq)
        self._update_lines()

    def _ppi_changed(self, cpu: int, irq: int, level: bool) -> None:
        if level:
            self.pending_banked[cpu].add(irq)
        else:
            self.pending_banked[cpu].discard(irq)
        self._update_line(cpu)

    # -- host-side helpers ---------------------------------------------------------
    def send_sgi(self, irq: int, target_mask: int) -> None:
        """Raise SGI ``irq`` on every core in ``target_mask`` (testing hook)."""
        if not 0 <= irq < 16:
            raise ValueError(f"SGI id must be in [0, 16), got {irq}")
        targets = [cpu for cpu in range(self.num_cpus) if target_mask & (1 << cpu)]
        for cpu in targets:
            self.pending_banked[cpu].add(irq)
        self.num_sgis_sent += 1
        for cpu in targets:
            self._update_line(cpu)

    # -- line computation --------------------------------------------------------------
    # A change to one core's banked state (its SGIs and PPIs, its active
    # set, its CPU-interface enable) can only move that core's line, so it
    # recomputes that line alone; a change to distributor state (enables,
    # SPI pending state, SPI targets) recomputes every line, in core order.
    def _routed_pending(self, cpu: int) -> Iterator[int]:
        """Enabled pending interrupts routed to ``cpu`` (not yet active)."""
        if not self.dist_enabled or not self.cpu_enabled[cpu]:
            return
        active = self.active[cpu]
        for irq in self.pending_banked[cpu]:
            if (irq in self.enabled or irq < 16) and irq not in active:  # SGIs always enabled
                yield irq
        for irq in self.pending_spi:
            if irq in self.enabled and self.spi_targets.get(irq, 0) & (1 << cpu) \
                    and irq not in active:
                yield irq

    def _line_pending(self, cpu: int) -> bool:
        """Whether :meth:`_routed_pending` would yield anything; a plain
        loop, not a generator, since it runs on every line update."""
        if not self.dist_enabled or not self.cpu_enabled[cpu]:
            return False
        enabled = self.enabled
        active = self.active[cpu]
        for irq in self.pending_banked[cpu]:
            if (irq < 16 or irq in enabled) and irq not in active:
                return True
        bit = 1 << cpu
        targets = self.spi_targets
        for irq in self.pending_spi:
            if irq in enabled and targets.get(irq, 0) & bit and irq not in active:
                return True
        return False

    def _update_line(self, cpu: int) -> None:
        self.irq_out[cpu].write(self._line_pending(cpu))

    def _update_lines(self) -> None:
        for cpu in range(self.num_cpus):
            self.irq_out[cpu].write(self._line_pending(cpu))

    # -- acknowledge / EOI --------------------------------------------------------------
    def acknowledge(self, cpu: int) -> int:
        """GICC_IAR read: claim the highest-priority pending interrupt."""
        # lowest id wins (no priority regs modeled)
        irq = min(self._routed_pending(cpu), default=SPURIOUS_IRQ)
        if irq == SPURIOUS_IRQ:
            return irq
        self.num_acks += 1
        self.active[cpu].add(irq)
        if irq < 32:
            self.pending_banked[cpu].discard(irq)
            self._update_line(cpu)
        else:
            self.pending_spi.discard(irq)
            self._update_lines()
        return irq

    def end_of_interrupt(self, cpu: int, irq: int) -> None:
        """GICC_EOIR write: deactivate; re-pend level-triggered SPIs."""
        self.active[cpu].discard(irq)
        self.num_eois += 1
        if irq >= 32 and self.spi_levels.get(irq):
            self.pending_spi.add(irq)
            self._update_lines()
        else:
            self._update_line(cpu)

    # -- snapshot support ---------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable distributor + CPU-interface state.

        Every set is emitted *sorted*: pending/enabled/active sets are
        mutated in guest-dependent order, and Python set iteration order
        depends on that insertion history — canonical ordering is what
        makes snapshot bytes deterministic (see DESIGN §16).
        """
        return {
            "dist_enabled": self.dist_enabled,
            "cpu_enabled": list(self.cpu_enabled),
            "priority_mask": list(self.priority_mask),
            "enabled": sorted(self.enabled),
            "pending_banked": [sorted(bank) for bank in self.pending_banked],
            "pending_spi": sorted(self.pending_spi),
            "active": [sorted(bank) for bank in self.active],
            "spi_levels": {str(irq): bool(level) for irq, level
                           in sorted(self.spi_levels.items())},
            "spi_targets": {str(irq): mask for irq, mask
                            in sorted(self.spi_targets.items())},
            "irq_out_levels": [line.level for line in self.irq_out],
            "spi_line_levels": {str(irq): self._spi_lines[irq].level
                                for irq in sorted(self._spi_lines)},
            "ppi_line_levels": {f"{cpu}:{irq}": self._ppi_lines[(cpu, irq)].level
                                for cpu, irq in sorted(self._ppi_lines)},
            "num_sgis_sent": self.num_sgis_sent,
            "num_acks": self.num_acks,
            "num_eois": self.num_eois,
        }

    def restore_state(self, state: dict) -> None:
        """Install a :meth:`snapshot_state` dict (no line-change callbacks).

        Output line levels are poked directly; downstream consumers (the
        CPU models' latched levels) restore their own state, so replaying
        the connect-callback chain here would double-apply it.  Every value
        is type- and range-checked; a bad one raises ``ValueError``, which
        snapshot restore reports as a malformed section.
        """
        cpus, last_irq = self.num_cpus, self.MAX_IRQS - 1
        self.dist_enabled = _flag(state["dist_enabled"], "dist_enabled")
        self.cpu_enabled = [_flag(flag, "cpu_enabled") for flag
                            in _list(state["cpu_enabled"], "cpu_enabled", cpus)]
        self.priority_mask = [
            _int(mask, "priority_mask", 0, 0xFF)
            for mask in _list(state["priority_mask"], "priority_mask", cpus)]
        self.enabled = _irqs(state["enabled"], "enabled", 0, last_irq)
        self.pending_banked = [
            _irqs(bank, "pending_banked", 0, 31)
            for bank in _list(state["pending_banked"], "pending_banked", cpus)]
        self.pending_spi = _irqs(state["pending_spi"], "pending_spi", 32, last_irq)
        self.active = [_irqs(bank, "active", 0, last_irq)
                       for bank in _list(state["active"], "active", cpus)]
        self.spi_levels = {
            _key(irq, "spi_levels", 32, last_irq): _flag(level, "spi_levels")
            for irq, level in _dict(state["spi_levels"], "spi_levels").items()}
        self.spi_targets = {
            _key(irq, "spi_targets", 32, last_irq): _int(mask, "spi_targets", 0, 0xFF)
            for irq, mask in _dict(state["spi_targets"], "spi_targets").items()}
        for line, level in zip(self.irq_out, _list(state["irq_out_levels"],
                                                   "irq_out_levels", cpus)):
            line._level = _flag(level, "irq_out_levels")
        for irq, level in _dict(state.get("spi_line_levels", {}),
                                "spi_line_levels").items():
            line = self._spi_lines.get(_key(irq, "spi_line_levels", 32, last_irq))
            if line is None:
                raise ValueError(f"gic.spi_line_levels: no SPI line {irq}")
            line._level = _flag(level, "spi_line_levels")
        for key, level in _dict(state.get("ppi_line_levels", {}),
                                "ppi_line_levels").items():
            cpu, _, irq = str(key).partition(":")
            line = self._ppi_lines.get((_key(cpu, "ppi_line_levels", 0, cpus - 1),
                                        _key(irq, "ppi_line_levels", 16, 31)))
            if line is None:
                raise ValueError(f"gic.ppi_line_levels: no PPI line {key}")
            line._level = _flag(level, "ppi_line_levels")
        self.num_sgis_sent = _int(state["num_sgis_sent"], "num_sgis_sent")
        self.num_acks = _int(state["num_acks"], "num_acks")
        self.num_eois = _int(state["num_eois"], "num_eois")

    # -- TLM transport -----------------------------------------------------------------
    def _dist_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        offset = payload.address
        if payload.is_read:
            value = self._dist_read(offset, payload.length)
            if value is None:
                payload.set_error(ResponseStatus.ADDRESS_ERROR)
                return delay
            payload.set_data_int(value, payload.length)
            payload.set_ok()
            return delay + SimTime.ns(10)
        if payload.is_write:
            if not self._dist_write(offset, payload.data_as_int(), payload.length):
                payload.set_error(ResponseStatus.ADDRESS_ERROR)
                return delay
            payload.set_ok()
            return delay + SimTime.ns(10)
        payload.set_error(ResponseStatus.COMMAND_ERROR)
        return delay

    def _dist_read(self, offset: int, length: int) -> Optional[int]:
        if offset == GICD_CTLR:
            return int(self.dist_enabled)
        if offset == GICD_TYPER:
            lines = self.MAX_IRQS // 32 - 1
            return ((self.num_cpus - 1) << 5) | lines
        if GICD_ISENABLER <= offset < GICD_ISENABLER + 0x80:
            bank = (offset - GICD_ISENABLER) // 4
            return self._enable_bits(bank)
        if GICD_ITARGETSR <= offset < GICD_ITARGETSR + self.MAX_IRQS:
            irq = offset - GICD_ITARGETSR
            return self.spi_targets.get(irq, 1 if irq < 32 else 0)
        return 0 if offset < GICD_SIZE else None

    def _enable_bits(self, bank: int) -> int:
        value = 0
        for bit in range(32):
            if bank * 32 + bit in self.enabled:
                value |= 1 << bit
        return value

    def _dist_write(self, offset: int, value: int, length: int) -> bool:
        if offset == GICD_CTLR:
            self.dist_enabled = bool(value & 1)
            self._update_lines()
            return True
        if GICD_ISENABLER <= offset < GICD_ISENABLER + 0x80:
            bank = (offset - GICD_ISENABLER) // 4
            for bit in range(32):
                if value & (1 << bit):
                    self.enabled.add(bank * 32 + bit)
            self._update_lines()
            return True
        if GICD_ICENABLER <= offset < GICD_ICENABLER + 0x80:
            bank = (offset - GICD_ICENABLER) // 4
            for bit in range(32):
                if value & (1 << bit):
                    self.enabled.discard(bank * 32 + bit)
            self._update_lines()
            return True
        if GICD_ISPENDR <= offset < GICD_ISPENDR + 0x80:
            bank = (offset - GICD_ISPENDR) // 4
            for bit in range(32):
                if value & (1 << bit):
                    irq = bank * 32 + bit
                    if irq >= 32:
                        self.pending_spi.add(irq)
            self._update_lines()
            return True
        if GICD_ICPENDR <= offset < GICD_ICPENDR + 0x80:
            bank = (offset - GICD_ICPENDR) // 4
            for bit in range(32):
                if value & (1 << bit):
                    self.pending_spi.discard(bank * 32 + bit)
            self._update_lines()
            return True
        if GICD_ITARGETSR <= offset < GICD_ITARGETSR + self.MAX_IRQS:
            for index in range(length):
                irq = offset - GICD_ITARGETSR + index
                if irq >= 32:
                    self.spi_targets[irq] = (value >> (8 * index)) & 0xFF
            self._update_lines()
            return True
        if offset == GICD_SGIR:
            sgi = value & 0xF
            filter_mode = (value >> 24) & 0x3
            targets = (value >> 16) & 0xFF
            if filter_mode == 1:          # all but self (sender unknown: all)
                targets = (1 << self.num_cpus) - 1
            elif filter_mode == 2:        # self only: approximate as cpu0
                targets = 0x1
            self.send_sgi(sgi, targets)
            return True
        return offset < GICD_SIZE

    def _make_cpu_transport(self, cpu: int):
        def transport(payload: GenericPayload, delay: SimTime) -> SimTime:
            offset = payload.address
            if payload.is_read:
                if offset == GICC_IAR:
                    payload.set_data_int(self.acknowledge(cpu), payload.length)
                elif offset == GICC_CTLR:
                    payload.set_data_int(int(self.cpu_enabled[cpu]), payload.length)
                elif offset == GICC_PMR:
                    payload.set_data_int(self.priority_mask[cpu], payload.length)
                elif offset < GICC_SIZE:
                    payload.set_data_int(0, payload.length)
                else:
                    payload.set_error(ResponseStatus.ADDRESS_ERROR)
                    return delay
                payload.set_ok()
                return delay + SimTime.ns(10)
            if payload.is_write:
                value = payload.data_as_int()
                if offset == GICC_CTLR:
                    self.cpu_enabled[cpu] = bool(value & 1)
                    self._update_line(cpu)
                elif offset == GICC_PMR:
                    self.priority_mask[cpu] = value & 0xFF
                elif offset == GICC_EOIR:
                    self.end_of_interrupt(cpu, value & 0x3FF)
                elif offset >= GICC_SIZE:
                    payload.set_error(ResponseStatus.ADDRESS_ERROR)
                    return delay
                payload.set_ok()
                return delay + SimTime.ns(10)
            payload.set_error(ResponseStatus.COMMAND_ERROR)
            return delay
        return transport
