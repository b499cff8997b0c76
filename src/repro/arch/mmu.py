"""Stage-1 MMU: 3-level page-table walk, permissions and a TLB.

Layout (ARMv8 4 KiB granule, 39-bit VA, reduced):

* L1 index = VA[38:30] (1 GiB per entry), L2 = VA[29:21] (2 MiB),
  L3 = VA[20:12] (4 KiB), page offset = VA[11:0].
* Descriptor format (64-bit little endian in guest memory):

  ======  =========================================
  bit 0   VALID
  bit 1   TABLE — at L1/L2: points to next level; at L3: must be set
  bit 6   AP_EL0 — EL0 access permitted
  bit 7   AP_RO — read-only
  [47:12] output address (table or block/page base)
  ======  =========================================

Translation is enabled by ``SCTLR_EL1.M`` (bit 0) and rooted at
``TTBR0_EL1``.  The TLB caches page-granule translations and counts
hits/misses — the DBT-ISS cost model charges software-walk time per miss,
which is one of the asymmetries behind the STREAM results (Fig. 7): the
AoA model gets the walk for free from the host's hardware two-stage MMU.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from .exceptions import ExceptionClass, GuestFault
from .isa import SysReg
from .registers import CpuState

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1

DESC_VALID = 1 << 0
DESC_TABLE = 1 << 1
DESC_AP_EL0 = 1 << 6
DESC_AP_RO = 1 << 7
DESC_ADDR_MASK = ((1 << 48) - 1) & ~PAGE_MASK

_LEVEL_SHIFTS = (30, 21, 12)
_INDEX_MASK = 0x1FF

_SCTLR_EL1 = int(SysReg.SCTLR_EL1)


class Tlb:
    """A software model of a translation lookaside buffer."""

    def __init__(self, capacity: int = 512):
        self.capacity = capacity
        self._entries: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self.hits = 0
        self.misses = 0

    def lookup(self, vpage: int, el: int) -> Optional[Tuple[int, int]]:
        entry = self._entries.get((vpage, el))
        if entry is not None:
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def insert(self, vpage: int, el: int, ppage: int, flags: int) -> None:
        if len(self._entries) >= self.capacity:
            # Simple FIFO-ish eviction: drop an arbitrary (oldest) entry.
            self._entries.pop(next(iter(self._entries)))
        self._entries[(vpage, el)] = (ppage, flags)

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class Mmu:
    """Stage-1 translation engine bound to one core's state."""

    def __init__(self, state: CpuState, read_phys: Callable[[int, int], bytes],
                 tlb_capacity: int = 512):
        self.state = state
        self._read_phys = read_phys
        self.tlb = Tlb(tlb_capacity)
        self.walks = 0

    @property
    def enabled(self) -> bool:
        return bool(self.state.sysregs.get(_SCTLR_EL1, 0) & 1)

    def flush_tlb(self) -> None:
        self.tlb.flush()

    # -- translation ---------------------------------------------------------
    def translate(self, va: int, write: bool = False, fetch: bool = False) -> int:
        """Translate ``va`` to a physical address or raise :class:`GuestFault`.

        A TLB hit at EL1 that is not a write to a read-only page costs one
        dict lookup: it is the path every data access with the MMU on takes.
        """
        state = self.state
        if not state.sysregs.get(_SCTLR_EL1, 0) & 1:
            return va
        el = state.el
        vpage = va >> PAGE_SHIFT
        tlb = self.tlb
        cached = tlb._entries.get((vpage, el))
        if cached is not None:
            tlb.hits += 1
            ppage, flags = cached
            if not el or (write and flags & DESC_AP_RO):
                self._check_permissions(va, flags, write, fetch)
            return (ppage << PAGE_SHIFT) | (va & PAGE_MASK)
        tlb.misses += 1
        ppage, flags, page_shift = self._walk(va, fetch)
        # Cache at 4 KiB granularity regardless of the mapping's block size.
        block_base_vpage = (va >> page_shift) << (page_shift - PAGE_SHIFT)
        offset_pages = vpage - block_base_vpage
        self.tlb.insert(vpage, el, ppage + offset_pages, flags)
        self._check_permissions(va, flags, write, fetch)
        return ((ppage + offset_pages) << PAGE_SHIFT) | (va & PAGE_MASK)

    def _check_permissions(self, va: int, flags: int, write: bool, fetch: bool) -> None:
        ec = ExceptionClass.INSTRUCTION_ABORT if fetch else ExceptionClass.DATA_ABORT
        if self.state.el == 0 and not flags & DESC_AP_EL0:
            raise GuestFault(ec, iss=0xF, fault_address=va,
                             message=f"EL0 permission fault at 0x{va:x}")
        if write and flags & DESC_AP_RO:
            raise GuestFault(ec, iss=0xE, fault_address=va,
                             message=f"write to read-only page at 0x{va:x}")

    def _walk(self, va: int, fetch: bool) -> Tuple[int, int, int]:
        """Walk the tables; return (output page frame, flags, mapping shift)."""
        self.walks += 1
        ec = ExceptionClass.INSTRUCTION_ABORT if fetch else ExceptionClass.DATA_ABORT
        if va >> 39:
            raise GuestFault(ec, iss=0x0, fault_address=va,
                             message=f"VA 0x{va:x} exceeds 39-bit space")
        table = self.state.read_sysreg(SysReg.TTBR0_EL1) & DESC_ADDR_MASK
        for level, shift in enumerate(_LEVEL_SHIFTS):
            index = (va >> shift) & _INDEX_MASK
            raw = self._read_phys(table + index * 8, 8)
            descriptor = int.from_bytes(raw, "little")
            if not descriptor & DESC_VALID:
                raise GuestFault(ec, iss=0x4 + level, fault_address=va,
                                 message=f"translation fault L{level + 1} at 0x{va:x}")
            out = descriptor & DESC_ADDR_MASK
            is_last_level = shift == PAGE_SHIFT
            if is_last_level:
                if not descriptor & DESC_TABLE:
                    raise GuestFault(ec, iss=0x4 + level, fault_address=va,
                                     message=f"reserved L3 descriptor at 0x{va:x}")
                return out >> PAGE_SHIFT, descriptor & 0xFF, shift
            if descriptor & DESC_TABLE:
                table = out
                continue
            # Block mapping at L1 (1 GiB) or L2 (2 MiB).
            block_mask = (1 << shift) - 1
            base = (out & ~block_mask) >> PAGE_SHIFT
            return base, descriptor & 0xFF, shift
        raise AssertionError("unreachable")  # pragma: no cover


class PageTableBuilder:
    """Builds stage-1 page tables directly in guest physical memory.

    VP loaders use this to prepare the tables a real bootloader/kernel would
    construct, so guest programs only need to load TTBR0 and flip SCTLR.M.
    """

    def __init__(self, memory: bytearray, table_base: int, phys_base: int = 0):
        """``table_base`` is the guest-physical address of the table pool;
        ``phys_base`` is the guest-physical address ``memory[0]`` maps to."""
        self.memory = memory
        self.phys_base = phys_base
        self.pool_next = table_base
        self.root = self._alloc_table()

    def _alloc_table(self) -> int:
        address = self.pool_next
        offset = address - self.phys_base
        if offset < 0 or offset + PAGE_SIZE > len(self.memory):
            raise ValueError("page-table pool outside backing memory")
        self.memory[offset:offset + PAGE_SIZE] = bytes(PAGE_SIZE)
        self.pool_next += PAGE_SIZE
        return address

    def _read_desc(self, table: int, index: int) -> int:
        offset = table - self.phys_base + index * 8
        return int.from_bytes(self.memory[offset:offset + 8], "little")

    def _write_desc(self, table: int, index: int, value: int) -> None:
        offset = table - self.phys_base + index * 8
        self.memory[offset:offset + 8] = value.to_bytes(8, "little")

    def map_page(self, va: int, pa: int, writable: bool = True, el0: bool = False) -> None:
        """Install a 4 KiB mapping va -> pa."""
        if va & PAGE_MASK or pa & PAGE_MASK:
            raise ValueError("map_page addresses must be page aligned")
        table = self.root
        for shift in _LEVEL_SHIFTS[:-1]:
            index = (va >> shift) & _INDEX_MASK
            descriptor = self._read_desc(table, index)
            if not descriptor & DESC_VALID:
                new_table = self._alloc_table()
                self._write_desc(table, index, new_table | DESC_VALID | DESC_TABLE)
                table = new_table
            elif descriptor & DESC_TABLE:
                table = descriptor & DESC_ADDR_MASK
            else:
                raise ValueError(f"VA 0x{va:x} already covered by a block mapping")
        index = (va >> PAGE_SHIFT) & _INDEX_MASK
        flags = DESC_VALID | DESC_TABLE
        if not writable:
            flags |= DESC_AP_RO
        if el0:
            flags |= DESC_AP_EL0
        self._write_desc(table, index, pa | flags)

    def map_range(self, va: int, pa: int, size: int, writable: bool = True,
                  el0: bool = False) -> None:
        if size <= 0:
            raise ValueError("map_range size must be positive")
        end = va + size
        while va < end:
            self.map_page(va, pa, writable, el0)
            va += PAGE_SIZE
            pa += PAGE_SIZE

    def identity_map(self, start: int, size: int, writable: bool = True,
                     el0: bool = False) -> None:
        self.map_range(start, start, size, writable, el0)
