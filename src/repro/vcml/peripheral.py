"""Peripheral base class: a component with a register file behind a socket.

Mirrors ``vcml::peripheral``: subclasses declare registers in their
constructor; the base class exposes a TLM target socket whose blocking
transport dispatches byte accesses into the register file, annotates access
latency, and answers debug transport without side effects.
"""

from __future__ import annotations

from typing import Optional, Union

from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..systemc.time import SimTime
from ..tlm.payload import GenericPayload, ResponseStatus
from ..tlm.sockets import TargetSocket
from .component import Component
from .register import Access, Register, RegisterFile


class Peripheral(Component):
    """Register-based memory-mapped peripheral."""

    def __init__(self, name: str, parent: Union[Module, Kernel],
                 read_latency: Optional[SimTime] = None,
                 write_latency: Optional[SimTime] = None):
        super().__init__(name, parent)
        self.regs = RegisterFile(self.name)
        self.read_latency = read_latency if read_latency is not None else SimTime.ns(10)
        self.write_latency = write_latency if write_latency is not None else SimTime.ns(10)
        self.in_socket = TargetSocket(
            f"{self.name}.in",
            transport_fn=self._b_transport,
            debug_fn=self._transport_dbg,
            probes=self.kernel.probes,
        )
        self.num_reads = 0
        self.num_writes = 0

    # -- register declaration ------------------------------------------------
    def add_register(
        self,
        name: str,
        offset: int,
        size: int = 4,
        reset: int = 0,
        access: Access = Access.READ_WRITE,
        on_read=None,
        on_write=None,
        write_mask: Optional[int] = None,
    ) -> Register:
        register = Register(name, offset, size, reset, access, on_read, on_write, write_mask)
        return self.regs.add(register)

    def reset_model(self) -> None:
        self.regs.reset()

    # -- transport -------------------------------------------------------------
    def _b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        if self.in_reset:
            payload.set_error(ResponseStatus.GENERIC_ERROR)
            return delay
        if payload.is_read:
            data = self.regs.read_bytes(payload.address, payload.length)
            if data is None:
                payload.set_error(ResponseStatus.ADDRESS_ERROR)
                return delay
            payload.data[:] = data
            payload.set_ok()
            self.num_reads += 1
            return delay + self.read_latency
        if payload.is_write:
            if not self.regs.write_bytes(payload.address, bytes(payload.data)):
                payload.set_error(ResponseStatus.ADDRESS_ERROR)
                return delay
            payload.set_ok()
            self.num_writes += 1
            return delay + self.write_latency
        payload.set_error(ResponseStatus.COMMAND_ERROR)
        return delay

    def _transport_dbg(self, payload: GenericPayload) -> int:
        if payload.is_read:
            data = self.regs.read_bytes(payload.address, payload.length, debug=True)
            if data is None:
                payload.set_error(ResponseStatus.ADDRESS_ERROR)
                return 0
            payload.data[:] = data
            payload.set_ok()
            return len(data)
        if payload.is_write:
            if not self.regs.write_bytes(payload.address, bytes(payload.data), debug=True):
                payload.set_error(ResponseStatus.ADDRESS_ERROR)
                return 0
            payload.set_ok()
            return payload.length
        payload.set_error(ResponseStatus.COMMAND_ERROR)
        return 0
