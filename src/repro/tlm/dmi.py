"""TLM Direct Memory Interface (DMI).

DMI lets an initiator bypass transaction-level transport and access a target's
backing storage directly.  The paper relies on this twice:

* the ISS uses DMI pointers for fast load/store handling, and
* the KVM CPU model queries DMI for the RAM model and maps the returned
  region into the guest as a KVM memory slot, so guest loads/stores run
  natively without any simulator involvement.

A :class:`DmiRegion` wraps a ``memoryview`` over the target's storage plus the
covered address range and granted access rights.  Targets that re-layout
memory call :meth:`DmiManager.invalidate`, which initiators observe through
registered callbacks (``invalidate_direct_mem_ptr``).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Callable, List, Optional


class DmiAccess(enum.Flag):
    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    READ_WRITE = READ | WRITE


class DmiRegion:
    """A direct-access window into a target's backing storage."""

    __slots__ = ("start", "end", "memory", "access", "read_latency_ps", "write_latency_ps")

    def __init__(
        self,
        start: int,
        end: int,
        memory: memoryview,
        access: DmiAccess = DmiAccess.READ_WRITE,
        read_latency_ps: int = 0,
        write_latency_ps: int = 0,
    ):
        if end < start:
            raise ValueError(f"DMI region end 0x{end:x} before start 0x{start:x}")
        expected = end - start + 1
        if len(memory) != expected:
            raise ValueError(f"DMI backing size {len(memory)} != range size {expected}")
        self.start = start
        self.end = end
        self.memory = memory
        self.access = access
        self.read_latency_ps = read_latency_ps
        self.write_latency_ps = write_latency_ps

    @property
    def size(self) -> int:
        return self.end - self.start + 1

    def contains(self, address: int, length: int = 1) -> bool:
        return self.start <= address and address + length - 1 <= self.end

    def allows_read(self) -> bool:
        return bool(self.access & DmiAccess.READ)

    def allows_write(self) -> bool:
        return bool(self.access & DmiAccess.WRITE)

    def view(self, address: int, length: int) -> memoryview:
        if not self.contains(address, length):
            raise ValueError(
                f"access 0x{address:x}+{length} outside DMI region "
                f"[0x{self.start:x}, 0x{self.end:x}]"
            )
        offset = address - self.start
        return self.memory[offset:offset + length]

    def __repr__(self) -> str:
        return f"DmiRegion([0x{self.start:x}, 0x{self.end:x}], {self.access})"


class DmiManager:
    """Tracks granted DMI regions for one initiator and their invalidation.

    Regions are kept interval-sorted by start address so :meth:`lookup` can
    bisect instead of scanning, with a small MRU "front cache" checked first
    — repeated accesses to the same region (the common case on the memory
    hot path) resolve in one containment test.  A :attr:`generation`
    counter bumps on every mutation so callers caching lookup results
    (e.g. :class:`repro.fabric.MemoryPort`) can validate cheaply.
    """

    #: how many recently-hit regions the front cache remembers
    FRONT_CACHE_SIZE = 4

    def __init__(self):
        self._regions: List[DmiRegion] = []      # sorted by (start, end)
        self._starts: List[int] = []             # parallel bisect key list
        self._front: List[DmiRegion] = []        # MRU-ordered recent hits
        self._invalidation_callbacks: List[Callable[[int, int], None]] = []
        #: bumped on add()/invalidate(); external caches key on this
        self.generation = 0
        # Statistics (diagnostics only).
        self.num_lookups = 0
        self.num_front_hits = 0
        self.num_misses = 0

    @staticmethod
    def _usable(region: DmiRegion, address: int, length: int, write: bool) -> bool:
        if not region.contains(address, length):
            return False
        return region.allows_write() if write else region.allows_read()

    def add(self, region: DmiRegion) -> DmiRegion:
        index = bisect_right(self._starts, region.start)
        self._regions.insert(index, region)
        self._starts.insert(index, region.start)
        self.generation += 1
        return region

    def lookup(self, address: int, length: int = 1, write: bool = False) -> Optional[DmiRegion]:
        self.num_lookups += 1
        front = self._front
        for index, region in enumerate(front):
            if self._usable(region, address, length, write):
                self.num_front_hits += 1
                if index:
                    front.insert(0, front.pop(index))
                return region
        # Bisect for the rightmost region starting at or before `address`.
        # Regions with distinct access rights may overlap, so a failed
        # candidate falls back to walking left through earlier starters.
        index = bisect_right(self._starts, address) - 1
        while index >= 0:
            region = self._regions[index]
            if self._usable(region, address, length, write):
                front.insert(0, region)
                del front[self.FRONT_CACHE_SIZE:]
                return region
            index -= 1
        self.num_misses += 1
        return None

    def on_invalidate(self, callback: Callable[[int, int], None]) -> None:
        self._invalidation_callbacks.append(callback)

    def invalidate(self, start: int = 0, end: int = 2**64 - 1) -> int:
        """Drop regions overlapping [start, end]; returns how many were dropped."""
        kept, dropped = [], 0
        for region in self._regions:
            if region.end < start or region.start > end:
                kept.append(region)
            else:
                dropped += 1
        self._regions = kept
        self._starts = [r.start for r in kept]
        self._front = [r for r in self._front if r in kept]
        self.generation += 1
        if dropped:
            for callback in self._invalidation_callbacks:
                callback(start, end)
        return dropped

    def clear(self) -> None:
        self.invalidate()

    def __len__(self) -> int:
        return len(self._regions)
