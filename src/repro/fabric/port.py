"""MemoryPort: the one way initiators touch the memory system.

A :class:`MemoryPort` wraps an :class:`~repro.tlm.sockets.InitiatorSocket`
and owns the per-initiator halves of the fabric: a
:class:`~repro.tlm.pool.PayloadPool` (no allocation per transaction) and a
:class:`~repro.tlm.dmi.DmiManager` (granted direct-access windows).

Timed accesses (:meth:`read`/:meth:`write`) try DMI first; on a miss they
fall back to pooled ``b_transport`` and — when the target advertised DMI
capability on the response (``payload.dmi_allowed``) — count accesses per
4 KiB page until ``_PROMOTE_THRESHOLD`` is reached, then probe
``get_direct_mem_ptr`` once and install the granted region.  Pages that
refuse the probe are negatively cached so peripherals are probed at most
once.  Invalidation callbacks demote: the region is dropped and the next
access transports again (and may re-promote).

The DMI leg is behaviour-preserving by construction: only targets that
grant DMI (RAM) are eligible, the copied bytes are the same bytes TLM
transport would move, and the annotated delay comes from the region's
``read/write_latency_ps`` — the exact latency the target's ``b_transport``
annotates.  Debug accesses (:meth:`dbg_read`/:meth:`dbg_write`) use a
granted region when one exists and ``transport_dbg`` otherwise; they never
*trigger* promotion, so an attached debugger does not perturb fabric state.

Every completed access emits the ``fabric_access`` probe point as
``(port, path, ok)`` with ``path`` in ``{"dmi", "transport", "debug"}``
(see :mod:`repro.systemc.probes`).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Set

from ..systemc.probes import ProbeBus
from ..systemc.time import SimTime
from ..tlm.dmi import DmiManager, DmiRegion
from ..tlm.payload import ResponseStatus
from ..tlm.pool import PayloadPool
from ..tlm.sockets import InitiatorSocket

#: promotion bookkeeping granularity
_PAGE_SHIFT = 12
#: b_transport hits on a DMI-capable page before the single DMI probe
_PROMOTE_THRESHOLD = 2


class AccessResult(NamedTuple):
    """Outcome of one timed fabric access."""

    ok: bool
    data: Optional[bytes]        # read data (None for writes and errors)
    delay: SimTime               # annotated delay after the access
    status: ResponseStatus
    via_dmi: bool

    @property
    def is_error(self) -> bool:
        return not self.ok


class MemoryPort:
    """Unified memory access layer for one initiator."""

    def __init__(self, socket: InitiatorSocket, pool: Optional[PayloadPool] = None,
                 dmi: Optional[DmiManager] = None, name: Optional[str] = None):
        self.socket = socket
        self.name = name or f"{socket.name}.fabric"
        self.pool = pool if pool is not None else PayloadPool()
        self.dmi = dmi if dmi is not None else DmiManager()
        self._invalidation_registered = False
        self._promotion_counts: Dict[int, int] = {}   # page -> transport hits
        self._no_dmi_pages: Set[int] = set()          # probe refused
        #: emits ``fabric_access``; the owning processor wires it to its bus
        self.probes = ProbeBus()
        # Statistics (diagnostics only).
        self.num_reads = 0
        self.num_writes = 0
        self.num_dmi_hits = 0
        self.num_transports = 0
        self.num_debug_accesses = 0
        self.num_promotions = 0
        self.num_probes_denied = 0

    # -- plumbing ------------------------------------------------------------
    def _ensure_invalidation(self) -> None:
        """Lazily subscribe to the target's DMI invalidations.

        The socket is typically bound *after* the port is constructed
        (platform wiring order), so registration happens on first use.
        """
        if self._invalidation_registered or not self.socket.bound:
            return
        self._invalidation_registered = True
        self.socket.register_invalidation(self._invalidated)

    def _invalidated(self, start: int, end: int) -> None:
        self.dmi.invalidate(start, end)
        self._promotion_counts.clear()
        self._no_dmi_pages.clear()

    def _observe(self, path: str, ok: bool) -> None:
        fire = self.probes.fabric_access
        if fire is not None:
            fire(self, path, ok)

    # -- DMI promotion -------------------------------------------------------
    def _note_dmi_candidate(self, address: int) -> None:
        """One DMI-capable transport completed; maybe probe for a grant."""
        page = address >> _PAGE_SHIFT
        if page in self._no_dmi_pages:
            return
        count = self._promotion_counts.get(page, 0) + 1
        if count < _PROMOTE_THRESHOLD:
            self._promotion_counts[page] = count
            return
        self._promotion_counts.pop(page, None)
        payload = self.pool.acquire_read(address, 1, self.socket.initiator_id)
        region = self.socket.get_direct_mem_ptr(payload)
        self.pool.release(payload)
        if region is None:
            self._no_dmi_pages.add(page)
            self.num_probes_denied += 1
            return
        self.dmi.add(region)
        self.num_promotions += 1

    def request_dmi(self, address: int, length: int = 8) -> Optional[DmiRegion]:
        """Explicitly request DMI for ``address`` (e.g. to build KVM slots).

        The granted region is installed in this port's :class:`DmiManager`
        (so subsequent reads/writes use it) and returned.
        """
        self._ensure_invalidation()
        payload = self.pool.acquire_read(address, length, self.socket.initiator_id)
        region = self.socket.get_direct_mem_ptr(payload)
        self.pool.release(payload)
        if region is not None:
            self.dmi.add(region)
        return region

    # -- timed access ----------------------------------------------------------
    def read(self, address: int, length: int,
             delay: Optional[SimTime] = None) -> AccessResult:
        """Timed read: DMI fast path, else pooled blocking transport."""
        if not self._invalidation_registered:
            self._ensure_invalidation()
        self.num_reads += 1
        base_delay = delay if delay is not None else SimTime.zero()
        # The dmi._regions peek keeps DMI-less traffic (MMIO) off the
        # lookup entirely — this is the per-transaction hot path.
        if self.dmi._regions:
            region = self.dmi.lookup(address, length, write=False)
        else:
            region = None
        if region is not None:
            self.num_dmi_hits += 1
            data = bytes(region.view(address, length))
            self._observe("dmi", True)
            return AccessResult(True, data, base_delay + SimTime(region.read_latency_ps),
                                ResponseStatus.OK, True)
        payload = self.pool.acquire_read(address, length,
                                         self.socket.initiator_id)
        out_delay = self.socket.b_transport(payload, base_delay)
        self.num_transports += 1
        ok = payload.response_status.is_ok
        data = bytes(payload.data) if ok else None
        status = payload.response_status
        if ok and payload.dmi_allowed:
            self._note_dmi_candidate(address)
        self.pool.release(payload)
        self._observe("transport", ok)
        return AccessResult(ok, data, out_delay, status, False)

    def write(self, address: int, data: bytes,
              delay: Optional[SimTime] = None) -> AccessResult:
        """Timed write: DMI fast path, else pooled blocking transport."""
        if not self._invalidation_registered:
            self._ensure_invalidation()
        self.num_writes += 1
        base_delay = delay if delay is not None else SimTime.zero()
        if self.dmi._regions:
            region = self.dmi.lookup(address, len(data), write=True)
        else:
            region = None
        if region is not None:
            self.num_dmi_hits += 1
            region.view(address, len(data))[:] = data
            self._observe("dmi", True)
            return AccessResult(True, None, base_delay + SimTime(region.write_latency_ps),
                                ResponseStatus.OK, True)
        payload = self.pool.acquire_write(address, data,
                                          self.socket.initiator_id)
        out_delay = self.socket.b_transport(payload, base_delay)
        self.num_transports += 1
        ok = payload.response_status.is_ok
        status = payload.response_status
        if ok and payload.dmi_allowed:
            self._note_dmi_candidate(address)
        self.pool.release(payload)
        self._observe("transport", ok)
        return AccessResult(ok, None, out_delay, status, False)

    # -- debug access ------------------------------------------------------------
    def dbg_read(self, address: int, length: int) -> Optional[bytes]:
        """Side-effect-free read; returns None unless all bytes transferred."""
        self._ensure_invalidation()
        self.num_debug_accesses += 1
        region = self.dmi.lookup(address, length, write=False)
        if region is not None:
            data = bytes(region.view(address, length))
            self._observe("debug", True)
            return data
        payload = self.pool.acquire_read(address, length,
                                         self.socket.initiator_id)
        moved = self.socket.transport_dbg(payload)
        data = bytes(payload.data) if moved == length else None
        self.pool.release(payload)
        self._observe("debug", data is not None)
        return data

    def dbg_write(self, address: int, data: bytes) -> int:
        """Side-effect-free write; returns the number of bytes transferred."""
        self._ensure_invalidation()
        self.num_debug_accesses += 1
        region = self.dmi.lookup(address, len(data), write=True)
        if region is not None:
            region.view(address, len(data))[:] = data
            self._observe("debug", True)
            return len(data)
        payload = self.pool.acquire_write(address, data,
                                          self.socket.initiator_id)
        moved = self.socket.transport_dbg(payload)
        self.pool.release(payload)
        self._observe("debug", moved == len(data))
        return moved

    # -- snapshot support -----------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable fabric-port state (repro.snapshot, DESIGN §16).

        DMI state is behaviour-affecting: a promoted page answers with the
        region's latency instead of a transport, and the promotion counters
        decide *when* that flip happens — so all of it serializes.  Granted
        regions are stored as ``[start, end]`` spans; :meth:`restore_state`
        re-probes the target so the fresh region points at the restored
        platform's memory.  The payload pool is not serialized (pure
        allocation reuse, no behavioural state).
        """
        return {
            "promotion_counts": {str(page): count for page, count
                                 in sorted(self._promotion_counts.items())},
            "no_dmi_pages": sorted(self._no_dmi_pages),
            "regions": sorted([region.start, region.end]
                              for region in self.dmi._regions),
            "num_reads": self.num_reads,
            "num_writes": self.num_writes,
            "num_dmi_hits": self.num_dmi_hits,
            "num_transports": self.num_transports,
            "num_debug_accesses": self.num_debug_accesses,
            "num_promotions": self.num_promotions,
            "num_probes_denied": self.num_probes_denied,
        }

    def restore_state(self, state: dict) -> None:
        self._promotion_counts = {int(page): count for page, count
                                  in state["promotion_counts"].items()}
        self._no_dmi_pages = set(state["no_dmi_pages"])
        for start, end in state["regions"]:
            if self.dmi.lookup(start, 1, write=False) is None:
                region = self.request_dmi(start)
                if region is None or region.end < end:
                    raise RuntimeError(
                        f"{self.name}: target no longer grants DMI for "
                        f"[0x{start:x}, 0x{end:x}]")
        # Counters last: request_dmi above must not perturb them.
        self.num_reads = state["num_reads"]
        self.num_writes = state["num_writes"]
        self.num_dmi_hits = state["num_dmi_hits"]
        self.num_transports = state["num_transports"]
        self.num_debug_accesses = state["num_debug_accesses"]
        self.num_promotions = state["num_promotions"]
        self.num_probes_denied = state["num_probes_denied"]

    # -- introspection -------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "reads": self.num_reads,
            "writes": self.num_writes,
            "dmi_hits": self.num_dmi_hits,
            "transports": self.num_transports,
            "debug": self.num_debug_accesses,
            "promotions": self.num_promotions,
            "probes_denied": self.num_probes_denied,
            "pool": self.pool.stats(),
        }

    def __repr__(self) -> str:
        return (f"MemoryPort({self.name!r}, dmi_hits={self.num_dmi_hits}, "
                f"transports={self.num_transports})")
