"""SD Host Controller Interface (SDHCI) model with a virtual SD card.

A reduced SDHCI: command issue, response registers, single-block PIO data
transfers through the buffer data port, and an interrupt-status block —
enough to drive :class:`SdCard` the way the synthetic Linux mounts its
rootfs, and with the same register offsets a real sdhci driver would touch.

Register subset (SDHCI spec offsets):

======  =============  ==========================================
offset  name           function
======  =============  ==========================================
0x04    BLOCK_SIZE     bytes per block (16-bit, 512 supported)
0x06    BLOCK_COUNT    blocks per transfer (16-bit, 1 supported)
0x08    ARGUMENT       32-bit command argument
0x0C    TRANSFER_MODE  bit4: direction (1 = read)
0x0E    COMMAND        bits [13:8] command index; write issues it
0x10    RESPONSE0      32-bit response
0x20    BUFFER_DATA    PIO FIFO port
0x24    PRESENT_STATE  bit11 buffer-read-enable, bit10 write-enable
0x30    INT_STATUS     bit0 cmd complete, bit1 xfer complete,
                       bit5 buffer-read-ready, bit15 error (W1C)
0x34    INT_ENABLE     interrupt signal enable
======  =============  ==========================================
"""

from __future__ import annotations

from typing import Optional, Union

from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..systemc.signal import IrqLine
from ..vcml.peripheral import Peripheral
from ..vcml.register import Access
from .sdcard import BLOCK_SIZE, CMD_READ_SINGLE, CMD_WRITE_SINGLE, SdCard, SdCardError

INT_CMD_COMPLETE = 1 << 0
INT_XFER_COMPLETE = 1 << 1
INT_BUFFER_WRITE_READY = 1 << 4
INT_BUFFER_READ_READY = 1 << 5
INT_ERROR = 1 << 15

STATE_BUFFER_WRITE_ENABLE = 1 << 10
STATE_BUFFER_READ_ENABLE = 1 << 11


class Sdhci(Peripheral):
    """SD host controller bound to one virtual card."""

    def __init__(self, name: str, card: Optional[SdCard] = None,
                 *, parent: Union[Module, Kernel]):
        super().__init__(name, parent)
        self.card = card or SdCard()
        self.irq = IrqLine(f"{self.name}.irq", self.kernel)
        self.block_size = BLOCK_SIZE
        self.block_count = 1
        self.argument = 0
        self.transfer_mode = 0
        self.int_status = 0
        self.int_enable = 0
        self._buffer = bytearray()
        self._buffer_pos = 0
        self._buffer_is_read = False
        self._write_lba = 0
        self.num_commands = 0
        self.add_register("block_size", 0x04, size=2, reset=BLOCK_SIZE,
                          on_read=lambda: self.block_size, on_write=self._write_block_size)
        self.add_register("block_count", 0x06, size=2, reset=1,
                          on_read=lambda: self.block_count, on_write=self._write_block_count)
        self.add_register("argument", 0x08, on_read=lambda: self.argument,
                          on_write=self._write_argument)
        self.add_register("transfer_mode", 0x0C, size=2,
                          on_read=lambda: self.transfer_mode, on_write=self._write_mode)
        self.add_register("command", 0x0E, size=2, on_write=self._write_command)
        self.add_register("response0", 0x10, access=Access.READ)
        self.add_register("buffer_data", 0x20, on_read=self._read_buffer,
                          on_write=self._write_buffer)
        self.add_register("present_state", 0x24, access=Access.READ,
                          on_read=self._read_present_state)
        self.add_register("int_status", 0x30, on_read=lambda: self.int_status,
                          on_write=self._clear_int_status)
        self.add_register("int_enable", 0x34, on_read=lambda: self.int_enable,
                          on_write=self._write_int_enable)

    # -- snapshot support --------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "block_size": self.block_size,
            "block_count": self.block_count,
            "argument": self.argument,
            "transfer_mode": self.transfer_mode,
            "int_status": self.int_status,
            "int_enable": self.int_enable,
            "buffer": bytes(self._buffer).hex(),
            "buffer_pos": self._buffer_pos,
            "buffer_is_read": self._buffer_is_read,
            "write_lba": self._write_lba,
            "num_commands": self.num_commands,
            "irq_level": self.irq.level,
            "card": self.card.snapshot_state(),
        }

    def restore_state(self, state: dict) -> None:
        self.block_size = state["block_size"]
        self.block_count = state["block_count"]
        self.argument = state["argument"]
        self.transfer_mode = state["transfer_mode"]
        self.int_status = state["int_status"]
        self.int_enable = state["int_enable"]
        self._buffer = bytearray.fromhex(state["buffer"])
        self._buffer_pos = state["buffer_pos"]
        self._buffer_is_read = bool(state["buffer_is_read"])
        self._write_lba = state["write_lba"]
        self.num_commands = state["num_commands"]
        self.irq._level = bool(state["irq_level"])
        self.card.restore_state(state["card"])

    # -- register behaviour ------------------------------------------------------
    def _write_block_size(self, value: int) -> None:
        self.block_size = value & 0xFFF

    def _write_block_count(self, value: int) -> None:
        self.block_count = value & 0xFFFF

    def _write_argument(self, value: int) -> None:
        self.argument = value & 0xFFFFFFFF

    def _write_mode(self, value: int) -> None:
        self.transfer_mode = value & 0xFFFF

    def _write_command(self, value: int) -> None:
        command = (value >> 8) & 0x3F
        self.num_commands += 1
        try:
            response = self.card.execute(command, self.argument)
        except SdCardError:
            self._raise_status(INT_ERROR)
            return
        self.regs["response0"].poke(response & 0xFFFFFFFF)
        status = INT_CMD_COMPLETE
        if command == CMD_READ_SINGLE:
            self._buffer = bytearray(self.card.read_block(self.argument))
            self._buffer_pos = 0
            self._buffer_is_read = True
            status |= INT_BUFFER_READ_READY
        elif command == CMD_WRITE_SINGLE:
            self._buffer = bytearray()
            self._buffer_pos = 0
            self._buffer_is_read = False
            self._write_lba = self.argument
            status |= INT_BUFFER_WRITE_READY
        self._raise_status(status)

    def _read_buffer(self) -> int:
        if not self._buffer_is_read or self._buffer_pos >= len(self._buffer):
            return 0
        chunk = self._buffer[self._buffer_pos:self._buffer_pos + 4]
        self._buffer_pos += 4
        if self._buffer_pos >= len(self._buffer):
            self._buffer_is_read = False
            self._raise_status(INT_XFER_COMPLETE)
        return int.from_bytes(chunk.ljust(4, b"\x00"), "little")

    def _write_buffer(self, value: int) -> None:
        if self._buffer_is_read:
            return
        self._buffer += value.to_bytes(4, "little")
        if len(self._buffer) >= self.block_size:
            self.card.write_block(self._write_lba, bytes(self._buffer[:BLOCK_SIZE]))
            self._buffer = bytearray()
            self._raise_status(INT_XFER_COMPLETE)

    def _read_present_state(self) -> int:
        state = 1 << 16 | 1 << 17 | 1 << 18   # card inserted, stable, write-enabled
        if self._buffer_is_read and self._buffer_pos < len(self._buffer):
            state |= STATE_BUFFER_READ_ENABLE
        if not self._buffer_is_read:
            state |= STATE_BUFFER_WRITE_ENABLE
        return state

    def _clear_int_status(self, value: int) -> None:
        self.int_status &= ~value
        self._update_irq()

    def _write_int_enable(self, value: int) -> None:
        self.int_enable = value & 0xFFFF
        self._update_irq()

    def _raise_status(self, bits: int) -> None:
        self.int_status |= bits
        self._update_irq()

    def _update_irq(self) -> None:
        self.irq.write(bool(self.int_status & self.int_enable))
