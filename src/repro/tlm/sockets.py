"""TLM initiator/target sockets with blocking transport, debug and DMI.

The blocking-transport convention mirrors TLM-2.0's loosely-timed style:

``b_transport(payload, delay)`` is called with an *annotated* delay (local
time offset of the initiator); the target may increase the delay to model
latency.  Because our kernel processes are generators, the transport call is
a plain Python call — the initiator process adds the returned delay to its
quantum keeper and yields when the quantum expires, exactly as a
loosely-timed C++ initiator would.

Every completed ``b_transport`` through a :class:`TargetSocket` emits the
``transport`` probe point as ``(socket, payload, delay_in, delay_out)`` on
the socket's bus (see :mod:`repro.systemc.probes`); models pass their
kernel's bus, so tracers observe them without touching the socket.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from ..systemc.probes import ProbeBus
from ..systemc.time import SimTime
from .dmi import DmiRegion
from .payload import Command, GenericPayload, ResponseStatus, TlmError


class TransportTarget(Protocol):
    """Interface implemented by anything bindable to an initiator socket."""

    def b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime: ...

    def transport_dbg(self, payload: GenericPayload) -> int: ...

    def get_direct_mem_ptr(self, payload: GenericPayload) -> Optional[DmiRegion]: ...


class TargetSocket:
    """The target-side endpoint; dispatches to the owning model's callbacks."""

    def __init__(
        self,
        name: str,
        transport_fn: Callable[[GenericPayload, SimTime], SimTime],
        debug_fn: Optional[Callable[[GenericPayload], int]] = None,
        dmi_fn: Optional[Callable[[GenericPayload], Optional[DmiRegion]]] = None,
        invalidate_hook: Optional[Callable[[Callable[[int, int], None]], None]] = None,
        probes: Optional[ProbeBus] = None,
    ):
        self.name = name
        self._transport_fn = transport_fn
        self._debug_fn = debug_fn
        self._dmi_fn = dmi_fn
        self._invalidate_hook = invalidate_hook
        #: emits ``transport``; the owning module passes its kernel's bus
        self.probes = probes if probes is not None else ProbeBus()

    def b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        delay_out = self._transport_fn(payload, delay)
        fire = self.probes.transport
        if fire is not None:
            fire(self, payload, delay, delay_out)
        return delay_out

    def transport_dbg(self, payload: GenericPayload) -> int:
        if self._debug_fn is not None:
            return self._debug_fn(payload)
        # Default: reuse b_transport without side effects on timing.
        payload.is_debug = True
        try:
            self._transport_fn(payload, SimTime.zero())
        finally:
            payload.is_debug = False
        return len(payload.data) if payload.response_status.is_ok else 0

    def get_direct_mem_ptr(self, payload: GenericPayload) -> Optional[DmiRegion]:
        if self._dmi_fn is None:
            payload.dmi_allowed = False
            return None
        return self._dmi_fn(payload)

    def register_invalidation(self, callback: Callable[[int, int], None]) -> None:
        if self._invalidate_hook is not None:
            self._invalidate_hook(callback)


class InitiatorSocket:
    """The initiator-side endpoint: what CPU models issue transactions on."""

    def __init__(self, name: str, initiator_id: int = 0):
        self.name = name
        self.initiator_id = initiator_id
        self._target: Optional[TransportTarget] = None

    def bind(self, target: TransportTarget) -> None:
        if self._target is not None:
            raise RuntimeError(f"initiator socket {self.name!r} already bound")
        self._target = target

    @property
    def bound(self) -> bool:
        return self._target is not None

    def _require_target(self) -> TransportTarget:
        if self._target is None:
            raise RuntimeError(f"initiator socket {self.name!r} is not bound")
        return self._target

    # -- transport ----------------------------------------------------------
    def b_transport(self, payload: GenericPayload, delay: SimTime) -> SimTime:
        payload.initiator_id = self.initiator_id
        return self._require_target().b_transport(payload, delay)

    def transport_dbg(self, payload: GenericPayload) -> int:
        payload.initiator_id = self.initiator_id
        return self._require_target().transport_dbg(payload)

    def get_direct_mem_ptr(self, payload: GenericPayload) -> Optional[DmiRegion]:
        payload.initiator_id = self.initiator_id
        return self._require_target().get_direct_mem_ptr(payload)

    def register_invalidation(self, callback: Callable[[int, int], None]) -> None:
        target = self._require_target()
        register = getattr(target, "register_invalidation", None)
        if register is not None:
            register(callback)

    # -- convenience accessors -------------------------------------------------
    def read(self, address: int, length: int, delay: Optional[SimTime] = None) -> bytes:
        """Blocking read that raises :class:`TlmError` on failure."""
        payload = GenericPayload.read(address, length, self.initiator_id)
        self.b_transport(payload, delay if delay is not None else SimTime.zero())
        if not payload.response_status.is_ok:
            raise TlmError(payload)
        return bytes(payload.data)

    def write(self, address: int, data: bytes, delay: Optional[SimTime] = None) -> None:
        payload = GenericPayload.write(address, data, self.initiator_id)
        self.b_transport(payload, delay if delay is not None else SimTime.zero())
        if not payload.response_status.is_ok:
            raise TlmError(payload)

    def read_u32(self, address: int) -> int:
        return int.from_bytes(self.read(address, 4), "little")

    def write_u32(self, address: int, value: int) -> None:
        self.write(address, (value & 0xFFFFFFFF).to_bytes(4, "little"))

    def read_u64(self, address: int) -> int:
        return int.from_bytes(self.read(address, 8), "little")

    def write_u64(self, address: int, value: int) -> None:
        self.write(address, (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little"))
