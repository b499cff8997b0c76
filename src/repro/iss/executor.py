"""Execution-backend interfaces shared by the ISS and the KVM model.

A *guest executor* runs target instructions until either an instruction
budget is exhausted or an event needs attention from the layer above
(an MMIO access, a WFI, a breakpoint hit, a halt).  The contract mirrors
``KVM_RUN``: the call returns an :class:`ExitInfo` describing why control
came back, the caller handles the event, then calls ``run`` again.

:class:`GuestMemoryMap` is the analogue of KVM's user memory slots: RAM
regions registered by the VP (obtained via TLM DMI) are directly accessible;
every other physical address is MMIO and causes an exit.
"""

from __future__ import annotations

import enum
import struct
from typing import NamedTuple, Optional, Tuple


class ExitReason(enum.Enum):
    BUDGET = "budget"            # instruction budget exhausted
    MMIO = "mmio"                # guest touched a non-RAM physical address
    WFI = "wfi"                  # guest executed WFI with no pending IRQ
    BREAKPOINT = "breakpoint"    # guest-debug breakpoint hit
    HALT = "halt"                # guest executed HLT (simulation exit)
    SIGNAL = "signal"            # pending host signal (watchdog kick)
    ERROR = "error"              # unrecoverable guest error (double fault...)
    EMULATION = "emulation"      # instruction unsupported by the host CPU


class MmioRequest(NamedTuple):
    """An in-flight MMIO access awaiting completion by the VP."""

    address: int        # guest-physical address
    size: int           # access size in bytes
    is_write: bool
    data: Optional[bytes]   # write payload (None for reads)
    register: int       # destination register for reads
    sign: bool = False  # reserved for sign-extending loads


class ExitInfo(NamedTuple):
    reason: ExitReason
    instructions: int                  # executed during this run call
    pc: int                            # guest PC after the run
    mmio: Optional[MmioRequest] = None
    halt_code: int = 0
    message: str = ""


class RunStats(NamedTuple):
    """Microarchitectural event counts for one run (cost-model input)."""

    instructions: int = 0
    memory_ops: int = 0
    blocks_entered: int = 0
    blocks_translated: int = 0
    tlb_misses: int = 0
    exceptions: int = 0


#: access size -> little-endian unsigned unpacker, for :meth:`GuestMemoryMap.load`
_UNPACK = {struct.calcsize(code): struct.Struct("<" + code).unpack_from for code in "BHIQ"}


class MemorySlot(NamedTuple):
    """One RAM window (KVM_SET_USER_MEMORY_REGION analogue)."""

    guest_base: int
    memory: memoryview     # writable view over the VP's RAM bytes

    @property
    def size(self) -> int:
        return len(self.memory)


class GuestMemoryMap:
    """Guest-physical address space: RAM slots + implicit MMIO elsewhere.

    Every guest fetch, load and store goes through :meth:`load` or
    :meth:`store`, so the slots are kept as ``(base, end, view)`` bounds
    that both scan once, with ``end`` computed when the slot is added.
    """

    def __init__(self):
        self._bounds: Tuple[Tuple[int, int, memoryview], ...] = ()

    def add_slot(self, guest_base: int, memory: memoryview) -> MemorySlot:
        end = guest_base + len(memory)
        for base, existing_end, _ in self._bounds:
            if guest_base < existing_end and base < end:
                raise ValueError(
                    f"memory slot [0x{guest_base:x}, 0x{end - 1:x}] overlaps "
                    f"[0x{base:x}, 0x{existing_end - 1:x}]"
                )
        self._bounds += ((guest_base, end, memory),)
        return MemorySlot(guest_base, memory)

    def remove_slot(self, guest_base: int) -> bool:
        for index, (base, _, _) in enumerate(self._bounds):
            if base == guest_base:
                self._bounds = self._bounds[:index] + self._bounds[index + 1:]
                return True
        return False

    def load(self, address: int, size: int) -> Optional[int]:
        """Little-endian value of ``size`` (1, 2, 4 or 8) RAM bytes, or None
        outside RAM."""
        for base, end, memory in self._bounds:
            if base <= address and address + size <= end:
                return _UNPACK[size](memory, address - base)[0]
        return None

    def store(self, address: int, data: bytes) -> bool:
        """Write ``data`` into RAM; False (nothing written) outside RAM."""
        for base, end, memory in self._bounds:
            if base <= address and address + len(data) <= end:
                offset = address - base
                memory[offset:offset + len(data)] = data
                return True
        return False

    def is_ram(self, address: int, length: int = 1) -> bool:
        return any(base <= address and address + length <= end
                   for base, end, _ in self._bounds)

    def read(self, address: int, length: int) -> bytes:
        for base, end, memory in self._bounds:
            if base <= address and address + length <= end:
                offset = address - base
                return bytes(memory[offset:offset + length])
        raise KeyError(f"physical read outside RAM: 0x{address:x}+{length}")

    def write(self, address: int, data: bytes) -> None:
        if not self.store(address, data):
            raise KeyError(f"physical write outside RAM: 0x{address:x}+{len(data)}")

    def slots(self) -> Tuple[MemorySlot, ...]:
        return tuple(MemorySlot(base, memory) for base, _, memory in self._bounds)

    def __len__(self) -> int:
        return len(self._bounds)
