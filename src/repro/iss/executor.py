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
from typing import List, NamedTuple, Optional, Tuple


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


class MemorySlot(NamedTuple):
    """One RAM window (KVM_SET_USER_MEMORY_REGION analogue)."""

    guest_base: int
    memory: memoryview     # writable view over the VP's RAM bytes

    @property
    def size(self) -> int:
        return len(self.memory)

    @property
    def guest_end(self) -> int:
        return self.guest_base + len(self.memory) - 1

    def contains(self, address: int, length: int = 1) -> bool:
        return self.guest_base <= address and address + length - 1 <= self.guest_end


class GuestMemoryMap:
    """Guest-physical address space: RAM slots + implicit MMIO elsewhere."""

    def __init__(self):
        self._slots: List[MemorySlot] = []

    def add_slot(self, guest_base: int, memory: memoryview) -> MemorySlot:
        slot = MemorySlot(guest_base, memory)
        for existing in self._slots:
            if slot.guest_base <= existing.guest_end and existing.guest_base <= slot.guest_end:
                raise ValueError(
                    f"memory slot [0x{slot.guest_base:x}, 0x{slot.guest_end:x}] overlaps "
                    f"[0x{existing.guest_base:x}, 0x{existing.guest_end:x}]"
                )
        self._slots.append(slot)
        return slot

    def remove_slot(self, guest_base: int) -> bool:
        for index, slot in enumerate(self._slots):
            if slot.guest_base == guest_base:
                del self._slots[index]
                return True
        return False

    def find(self, address: int, length: int = 1) -> Optional[MemorySlot]:
        for slot in self._slots:
            if slot.contains(address, length):
                return slot
        return None

    def is_ram(self, address: int, length: int = 1) -> bool:
        return self.find(address, length) is not None

    def read(self, address: int, length: int) -> bytes:
        slot = self.find(address, length)
        if slot is None:
            raise KeyError(f"physical read outside RAM: 0x{address:x}+{length}")
        offset = address - slot.guest_base
        return bytes(slot.memory[offset:offset + length])

    def write(self, address: int, data: bytes) -> None:
        slot = self.find(address, len(data))
        if slot is None:
            raise KeyError(f"physical write outside RAM: 0x{address:x}+{len(data)}")
        offset = address - slot.guest_base
        slot.memory[offset:offset + len(data)] = data

    def slots(self) -> Tuple[MemorySlot, ...]:
        return tuple(self._slots)

    def __len__(self) -> int:
        return len(self._slots)
