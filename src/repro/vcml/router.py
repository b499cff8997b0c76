"""Bus router / interconnect (``vcml::generic::bus``).

Maps global address ranges onto target sockets, rebasing the transaction
address into the target's local space.  DMI regions granted by targets are
rebased back into global addresses before being returned to the initiator,
so a CPU model sees one coherent global DMI map.

Decode is the memory hot path's first stop, so it is cached twice over
(see DESIGN.md §11):

* the mapping list is kept sorted by start address and decoded with a
  ``bisect`` probe instead of a linear scan;
* each initiator's last successful decode is remembered in a
  per-initiator cache validated by a generation counter, so repeated
  accesses to the same device (the overwhelmingly common pattern — console
  bursts, spin loops, block transfers) decode in one containment test.

The generation counter bumps on :meth:`map` and whenever a target forwards
a DMI invalidation through the router, conservatively dropping every
cached decode.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..systemc.time import SimTime
from ..tlm.dmi import DmiRegion
from ..tlm.payload import GenericPayload, ResponseStatus
from ..tlm.sockets import TargetSocket
from .component import Component


class AddressRange(NamedTuple):
    start: int
    end: int

    def validate(self) -> "AddressRange":
        """Reject inverted or negative ranges with a clear error."""
        if self.start < 0:
            raise ValueError(f"address range start 0x{self.start:x} is negative")
        if self.end < self.start:
            raise ValueError(
                f"address range end 0x{self.end:x} < start 0x{self.start:x} (inverted)"
            )
        return self

    def contains(self, address: int, length: int = 1) -> bool:
        return self.start <= address and address + length - 1 <= self.end

    def overlaps(self, other: "AddressRange") -> bool:
        return self.start <= other.end and other.start <= self.end

    @property
    def size(self) -> int:
        return self.end - self.start + 1


class _Mapping(NamedTuple):
    range: AddressRange
    target: TargetSocket
    local_base: int
    name: str


class Router(Component):
    """N:1 address-decoding interconnect with cached decode."""

    def __init__(self, name: str, parent: Union[Module, Kernel]):
        super().__init__(name, parent)
        self._mappings: List[_Mapping] = []
        self._starts: List[int] = []      # parallel bisect key list
        #: bumped on map() and forwarded DMI invalidations; decode-cache key
        self._generation = 0
        #: initiator_id -> (generation, mapping) of the last successful decode
        self._decode_cache: Dict[int, Tuple[int, _Mapping]] = {}
        self.in_socket = TargetSocket(
            f"{self.name}.in",
            transport_fn=self._b_transport,
            debug_fn=self._transport_dbg,
            dmi_fn=self._get_direct_mem_ptr,
            invalidate_hook=self._register_invalidation,
            probes=self.kernel.probes,
        )
        self._invalidation_callbacks = []
        # Statistics (diagnostics only).
        self.num_decode_hits = 0
        self.num_decode_misses = 0

    # -- map construction ------------------------------------------------------
    def map(self, start: int, end: int, target: TargetSocket, local_base: int = 0,
            name: str = "") -> None:
        """Route [start, end] to ``target``, rebased to ``local_base``."""
        try:
            new_range = AddressRange(start, end).validate()
        except ValueError as exc:
            raise ValueError(f"router {self.name!r}: {exc}") from None
        for mapping in self._mappings:
            if mapping.range.overlaps(new_range):
                raise ValueError(
                    f"router {self.name!r}: [0x{start:x}, 0x{end:x}] overlaps "
                    f"{mapping.name or mapping.target.name}"
                )
        mapping = _Mapping(new_range, target, local_base, name or target.name)
        index = bisect_right(self._starts, start)
        self._mappings.insert(index, mapping)
        self._starts.insert(index, start)
        self._generation += 1
        # Forward the target's DMI invalidations (rebased into global
        # addresses) to every initiator callback — including callbacks
        # registered *before* this mapping existed: the forwarder consults
        # the live callback list, not a snapshot.
        self._wire_target_invalidation(mapping)

    def _wire_target_invalidation(self, mapping: _Mapping) -> None:
        register = getattr(mapping.target, "register_invalidation", None)
        if register is None:
            return
        start, base = mapping.range.start, mapping.local_base

        def forward(lo: int, hi: int) -> None:
            self._generation += 1          # drop every cached decode
            for callback in self._invalidation_callbacks:
                callback(lo - base + start, hi - base + start)

        register(forward)

    def mappings(self):
        return list(self._mappings)

    def find_mapping(self, address: int, length: int = 1) -> Optional[_Mapping]:
        """Bisect for the mapping containing [address, address+length)."""
        index = bisect_right(self._starts, address) - 1
        if index >= 0:
            mapping = self._mappings[index]
            if mapping.range.contains(address, length):
                return mapping
        return None

    # -- transport ---------------------------------------------------------------
    def _decode(self, payload: GenericPayload) -> Optional[_Mapping]:
        address = payload.address
        length = max(1, payload.length)
        cached = self._decode_cache.get(payload.initiator_id)
        if (cached is not None and cached[0] == self._generation
                and cached[1].range.contains(address, length)):
            self.num_decode_hits += 1
            return cached[1]
        self.num_decode_misses += 1
        mapping = self.find_mapping(address, length)
        if mapping is None:
            payload.set_error(ResponseStatus.ADDRESS_ERROR)
        else:
            self._decode_cache[payload.initiator_id] = (self._generation, mapping)
        return mapping

    def _b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        mapping = self._decode(payload)
        if mapping is None:
            return delay
        original = payload.address
        payload.address = original - mapping.range.start + mapping.local_base
        try:
            return mapping.target.b_transport(payload, delay)
        finally:
            payload.address = original

    def _transport_dbg(self, payload: GenericPayload) -> int:
        mapping = self._decode(payload)
        if mapping is None:
            return 0
        original = payload.address
        payload.address = original - mapping.range.start + mapping.local_base
        try:
            return mapping.target.transport_dbg(payload)
        finally:
            payload.address = original

    def _get_direct_mem_ptr(self, payload: GenericPayload) -> Optional[DmiRegion]:
        mapping = self._decode(payload)
        if mapping is None:
            return None
        original = payload.address
        payload.address = original - mapping.range.start + mapping.local_base
        try:
            region = mapping.target.get_direct_mem_ptr(payload)
        finally:
            payload.address = original
        if region is None:
            return None
        # Rebase the granted local region into global addresses, clipped to
        # the mapped window.
        global_start = region.start - mapping.local_base + mapping.range.start
        global_end = region.end - mapping.local_base + mapping.range.start
        clip_start = max(global_start, mapping.range.start)
        clip_end = min(global_end, mapping.range.end)
        if clip_end < clip_start:
            return None
        lo = clip_start - global_start
        hi = lo + (clip_end - clip_start) + 1
        return DmiRegion(
            start=clip_start,
            end=clip_end,
            memory=region.memory[lo:hi],
            access=region.access,
            read_latency_ps=region.read_latency_ps,
            write_latency_ps=region.write_latency_ps,
        )

    def _register_invalidation(self, callback) -> None:
        # Targets were wired in map(); the forwarders read this list live,
        # so late registration and late mapping both just work.
        self._invalidation_callbacks.append(callback)
