"""PL011-style UART.

The VP's console device.  Transmit data lands in a host-side buffer (and an
optional callback, and the kernel's ``console_tx`` probe point), receive
data is injected from the host side and raises a level-triggered interrupt
while the FIFO is non-empty and unmasked.

Register subset (ARM PL011 offsets):

======  =====  ===============================================
offset  name   function
======  =====  ===============================================
0x000   DR     data register (write: tx, read: rx FIFO pop)
0x018   FR     flags: bit4 RXFE, bit5 TXFF, bit7 TXFE
0x024   IBRD   integer baud-rate divisor (stored only)
0x028   FBRD   fractional baud-rate divisor (stored only)
0x030   CR     control: bit0 UARTEN
0x038   IMSC   interrupt mask: bit4 RXIM
0x03C   RIS    raw interrupt status
0x040   MIS    masked interrupt status
0x044   ICR    interrupt clear
0xFE0+  ID     peripheral/cell id bytes
======  =====  ===============================================
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Union

from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..systemc.signal import IrqLine
from ..vcml.peripheral import Peripheral
from ..vcml.register import Access

FR_RXFE = 1 << 4
FR_TXFF = 1 << 5
FR_TXFE = 1 << 7

INT_RX = 1 << 4

_PERIPH_ID = (0x11, 0x10, 0x14, 0x00, 0x0D, 0xF0, 0x05, 0xB1)


class Pl011Uart(Peripheral):
    """A PL011-compatible serial port with host-side tx/rx hooks."""

    RX_FIFO_DEPTH = 16

    def __init__(self, name: str, parent: Union[Module, Kernel]):
        super().__init__(name, parent)
        self.tx_log = bytearray()
        self.on_tx: Optional[Callable[[int], None]] = None
        self._rx_fifo: Deque[int] = deque()
        self.irq = IrqLine(f"{self.name}.irq", self.kernel)
        self.control = 0x300           # TXE | RXE, UART disabled at reset
        self.int_mask = 0
        self.raw_status = 0
        self.ibrd = 0
        self.fbrd = 0
        self.add_register("dr", 0x000, on_read=self._read_dr, on_write=self._write_dr)
        self.add_register("fr", 0x018, access=Access.READ, on_read=self._read_fr)
        self.add_register("ibrd", 0x024, on_read=lambda: self.ibrd,
                          on_write=self._write_ibrd)
        self.add_register("fbrd", 0x028, on_read=lambda: self.fbrd,
                          on_write=self._write_fbrd)
        self.add_register("cr", 0x030, reset=0x300, on_read=lambda: self.control,
                          on_write=self._write_cr)
        self.add_register("imsc", 0x038, on_read=lambda: self.int_mask,
                          on_write=self._write_imsc)
        self.add_register("ris", 0x03C, access=Access.READ, on_read=lambda: self.raw_status)
        self.add_register("mis", 0x040, access=Access.READ,
                          on_read=lambda: self.raw_status & self.int_mask)
        self.add_register("icr", 0x044, access=Access.WRITE, on_write=self._write_icr)
        for index, value in enumerate(_PERIPH_ID):
            self.add_register(f"id{index}", 0xFE0 + 4 * index, reset=value,
                              access=Access.READ)

    @property
    def enabled(self) -> bool:
        return bool(self.control & 1)

    # -- host-side interface --------------------------------------------------
    def inject_rx(self, data: bytes) -> None:
        """Host-side: feed received characters into the RX FIFO."""
        for byte in data:
            if len(self._rx_fifo) < self.RX_FIFO_DEPTH:
                self._rx_fifo.append(byte)
        if self._rx_fifo:
            self.raw_status |= INT_RX
        self._update_irq()

    def tx_text(self) -> str:
        return self.tx_log.decode("utf-8", errors="replace")

    # -- snapshot support -----------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "tx_log": self.tx_log.hex(),
            "rx_fifo": list(self._rx_fifo),
            "control": self.control,
            "int_mask": self.int_mask,
            "raw_status": self.raw_status,
            "ibrd": self.ibrd,
            "fbrd": self.fbrd,
            "irq_level": self.irq.level,
        }

    def restore_state(self, state: dict) -> None:
        self.tx_log = bytearray.fromhex(state["tx_log"])
        self._rx_fifo = deque(state["rx_fifo"])
        self.control = state["control"]
        self.int_mask = state["int_mask"]
        self.raw_status = state["raw_status"]
        self.ibrd = state["ibrd"]
        self.fbrd = state["fbrd"]
        self.irq._level = bool(state["irq_level"])

    # -- register behaviour --------------------------------------------------------
    def _write_dr(self, value: int) -> None:
        byte = value & 0xFF
        self.tx_log.append(byte)
        if self.on_tx is not None:
            self.on_tx(byte)
        fire = self.kernel.probes.console_tx
        if fire is not None:
            fire(self, byte)

    def _read_dr(self) -> int:
        if not self._rx_fifo:
            return 0
        byte = self._rx_fifo.popleft()
        if not self._rx_fifo:
            self.raw_status &= ~INT_RX
        self._update_irq()
        return byte

    def _read_fr(self) -> int:
        flags = FR_TXFE            # tx never backs up in this model
        if not self._rx_fifo:
            flags |= FR_RXFE
        return flags

    def _write_cr(self, value: int) -> None:
        self.control = value & 0xFFFF
        self._update_irq()

    def _write_imsc(self, value: int) -> None:
        self.int_mask = value & 0x7FF
        self._update_irq()

    def _write_icr(self, value: int) -> None:
        # RX is level-derived from FIFO state; other bits clear on write.
        self.raw_status &= ~(value & ~INT_RX)
        self._update_irq()

    def _write_ibrd(self, value: int) -> None:
        self.ibrd = value & 0xFFFF

    def _write_fbrd(self, value: int) -> None:
        self.fbrd = value & 0x3F

    def _update_irq(self) -> None:
        self.irq.write(self.enabled and bool(self.raw_status & self.int_mask))
