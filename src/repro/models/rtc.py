"""PL031-style real-time clock.

Seconds-resolution wall clock derived from simulation time plus a
programmable offset, with a match interrupt (``MR``) — the alarm mechanism
Linux's rtc-pl031 driver uses.

Register subset (ARM PL031 offsets):

======  =====  =============================================
offset  name   function
======  =====  =============================================
0x00    DR     current time, seconds (read-only)
0x04    MR     match register (alarm)
0x08    LR     load register (sets current time)
0x0C    CR     bit0 enable
0x10    IMSC   interrupt mask (bit0)
0x14    RIS    raw interrupt status
0x18    MIS    masked interrupt status
0x1C    ICR    interrupt clear
======  =====  =============================================
"""

from __future__ import annotations

from typing import Union

from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..systemc.signal import IrqLine
from ..systemc.time import SimTime
from ..vcml.peripheral import Peripheral
from ..vcml.register import Access


class Pl031Rtc(Peripheral):
    """A PL031-compatible RTC."""

    def __init__(self, name: str, parent: Union[Module, Kernel],
                 epoch_seconds: int = 1_700_000_000):
        super().__init__(name, parent)
        self.epoch_seconds = epoch_seconds
        self._load_offset = 0
        self.match_value = 0
        self.enabled = True
        self.int_mask = 0
        self.raw_status = 0
        self.irq = IrqLine(f"{self.name}.irq", self.kernel)
        self._match_entry = None
        self.add_register("dr", 0x00, access=Access.READ, on_read=self._read_dr)
        self.add_register("mr", 0x04, on_read=lambda: self.match_value,
                          on_write=self._write_mr)
        self.add_register("lr", 0x08, access=Access.WRITE, on_write=self._write_lr)
        self.add_register("cr", 0x0C, reset=1, on_read=lambda: int(self.enabled),
                          on_write=self._write_cr)
        self.add_register("imsc", 0x10, on_read=lambda: self.int_mask,
                          on_write=self._write_imsc)
        self.add_register("ris", 0x14, access=Access.READ, on_read=lambda: self.raw_status)
        self.add_register("mis", 0x18, access=Access.READ,
                          on_read=lambda: self.raw_status & self.int_mask)
        self.add_register("icr", 0x1C, access=Access.WRITE, on_write=self._write_icr)

    # -- time base ---------------------------------------------------------
    def current_seconds(self) -> int:
        return self.epoch_seconds + self._load_offset + int(self.now.to_seconds())

    def _read_dr(self) -> int:
        return self.current_seconds() & 0xFFFFFFFF

    def _write_lr(self, value: int) -> None:
        self._load_offset = value - self.epoch_seconds - int(self.now.to_seconds())
        self._schedule_match()

    def _write_mr(self, value: int) -> None:
        self.match_value = value & 0xFFFFFFFF
        self._schedule_match()

    def _write_cr(self, value: int) -> None:
        self.enabled = bool(value & 1)

    def _write_imsc(self, value: int) -> None:
        self.int_mask = value & 1
        self._update_irq()

    def _write_icr(self, value: int) -> None:
        if value & 1:
            self.raw_status = 0
        self._update_irq()

    # -- snapshot support -------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable RTC state (the pending match entry, if any, is
        rebuilt via the kernel-heap descriptor path in repro.snapshot)."""
        return {
            "load_offset": self._load_offset,
            "match_value": self.match_value,
            "enabled": self.enabled,
            "int_mask": self.int_mask,
            "raw_status": self.raw_status,
            "irq_level": self.irq.level,
        }

    def restore_state(self, state: dict) -> None:
        self._load_offset = state["load_offset"]
        self.match_value = state["match_value"]
        self.enabled = bool(state["enabled"])
        self.int_mask = state["int_mask"]
        self.raw_status = state["raw_status"]
        self._match_entry = None
        self.irq._level = bool(state["irq_level"])

    # -- alarm ------------------------------------------------------------------
    def _schedule_match(self) -> None:
        if self._match_entry is not None:
            self._match_entry.cancelled = True
            self._match_entry = None
        delta = self.match_value - self.current_seconds()
        if delta < 0:
            return
        self._match_entry = self.kernel.schedule_callback(
            SimTime.seconds(delta) + SimTime.ns(1), self._match_fired
        )

    def _match_fired(self) -> None:
        self._match_entry = None
        if self.enabled and self.current_seconds() >= self.match_value:
            self.raw_status |= 1
            self._update_irq()

    def _update_irq(self) -> None:
        self.irq.write(bool(self.raw_status & self.int_mask))
