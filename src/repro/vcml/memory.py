"""RAM / ROM model with DMI support (``vcml::generic::memory``).

The memory is backed by a single ``bytearray``; DMI requests hand out a
``memoryview`` window over it.  This is the region the KVM CPU model maps
into the guest as a KVM user memory slot, so native guest loads/stores hit
exactly the same bytes TLM transactions do.
"""

from __future__ import annotations

from typing import List, Optional, Union

from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..systemc.time import SimTime
from ..tlm.dmi import DmiAccess, DmiRegion
from ..tlm.payload import GenericPayload, ResponseStatus
from ..tlm.sockets import TargetSocket
from .component import Component


class Memory(Component):
    """Byte-addressable memory with blocking transport, debug and DMI."""

    def __init__(
        self,
        name: str,
        size: int,
        parent: Union[Module, Kernel],
        read_only: bool = False,
        read_latency: Optional[SimTime] = None,
        write_latency: Optional[SimTime] = None,
    ):
        super().__init__(name, parent)
        if size <= 0:
            raise ValueError(f"memory {name!r}: size must be positive, got {size}")
        self.size = size
        self.read_only = read_only
        self.data = bytearray(size)
        self.read_latency = read_latency if read_latency is not None else SimTime.ns(5)
        self.write_latency = write_latency if write_latency is not None else SimTime.ns(5)
        self._dmi_invalidation_callbacks: List = []
        self.in_socket = TargetSocket(
            f"{self.name}.in",
            transport_fn=self._b_transport,
            debug_fn=self._transport_dbg,
            dmi_fn=self._get_direct_mem_ptr,
            invalidate_hook=self._dmi_invalidation_callbacks.append,
            probes=self.kernel.probes,
        )
        self.num_reads = 0
        self.num_writes = 0

    # -- direct access (host side) -------------------------------------------
    def load(self, offset: int, blob: bytes) -> None:
        if offset < 0 or offset + len(blob) > self.size:
            raise ValueError(
                f"memory {self.name!r}: load of {len(blob)} bytes at 0x{offset:x} out of range"
            )
        self.data[offset:offset + len(blob)] = blob

    def peek(self, offset: int, length: int) -> bytes:
        return bytes(self.data[offset:offset + length])

    def fill(self, value: int = 0) -> None:
        self.data[:] = bytes([value & 0xFF]) * self.size

    def invalidate_dmi(self) -> None:
        """Notify all initiators that previously granted DMI is stale."""
        for callback in self._dmi_invalidation_callbacks:
            callback(0, self.size - 1)

    # -- snapshot support ---------------------------------------------------
    def snapshot_state(self) -> dict:
        """Access counters only; the byte content is serialized separately
        (sparse, page-deduped) by :mod:`repro.snapshot.format`."""
        return {"num_reads": self.num_reads, "num_writes": self.num_writes}

    def restore_state(self, state: dict) -> None:
        self.num_reads = state["num_reads"]
        self.num_writes = state["num_writes"]

    # -- transport ----------------------------------------------------------
    def _in_range(self, payload: GenericPayload) -> bool:
        return 0 <= payload.address and payload.address + payload.length <= self.size

    def _b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        if not self._in_range(payload):
            payload.set_error(ResponseStatus.ADDRESS_ERROR)
            return delay
        # TLM-2.0 DMI hint: this target would grant direct access for the
        # address — repro.fabric.MemoryPort promotes on repeated hints.
        payload.dmi_allowed = True
        address = payload.address
        if payload.is_read:
            payload.data[:] = self.data[address:address + payload.length]
            payload.set_ok()
            self.num_reads += 1
            return delay + self.read_latency
        if payload.is_write:
            if self.read_only:
                payload.set_error(ResponseStatus.COMMAND_ERROR)
                return delay
            for index in payload.enabled_bytes():
                self.data[address + index] = payload.data[index]
            payload.set_ok()
            self.num_writes += 1
            return delay + self.write_latency
        payload.set_error(ResponseStatus.COMMAND_ERROR)
        return delay

    def _transport_dbg(self, payload: GenericPayload) -> int:
        if not self._in_range(payload):
            payload.set_error(ResponseStatus.ADDRESS_ERROR)
            return 0
        address = payload.address
        if payload.is_read:
            payload.data[:] = self.data[address:address + payload.length]
        elif payload.is_write and not self.read_only:
            self.data[address:address + payload.length] = payload.data
        else:
            payload.set_error(ResponseStatus.COMMAND_ERROR)
            return 0
        payload.set_ok()
        return payload.length

    def _get_direct_mem_ptr(self, payload: GenericPayload) -> Optional[DmiRegion]:
        access = DmiAccess.READ if self.read_only else DmiAccess.READ_WRITE
        payload.dmi_allowed = True
        return DmiRegion(
            start=0,
            end=self.size - 1,
            memory=memoryview(self.data),
            access=access,
            read_latency_ps=self.read_latency.picoseconds,
            write_latency_ps=self.write_latency.picoseconds,
        )
