"""The probe bus: named observation points, emitted where each event happens.

Every :class:`~repro.systemc.kernel.Kernel` owns one :class:`ProbeBus`;
the models of a platform emit on their kernel's bus (``Processor.probes``,
``TargetSocket.probes``, ``IrqLine.probes``, the UART and ``SimControl``,
and the watchdog, kick guards and fabric ports the platform wires to it).
Each point is a plain attribute of the bus that holds ``None`` while the
point has no subscribers, so an unobserved emission site costs one
attribute check::

    fire = self.probes.wfi_suspend
    if fire is not None:
        fire(self, begin_ps)

A point carries a fact its emitter knows when it emits: the processor
loop emits ``wfi_resume`` with the time the suspend began, a CPU model
emits ``mmio`` with the round trip it just timed.  No subscriber pairs
two emissions to rebuild such a fact, so no subscriber keeps per-core
state between events.

With one subscriber the attribute *is* that subscriber; with more it is a
fan-out over them.  Subscribers run in band order (``DIGEST`` <
``OBSERVER``), and in subscribe order within a band, so a digester always
sees an event before any observer does, no matter who attached first.

A subscription is either local to one bus (the observers in
:mod:`repro.telemetry`, :mod:`repro.flight` and :mod:`repro.obs` attach
per platform, so their subscriptions live and die with it) or on every
bus, present and future (:meth:`Kernel.add_trace_hook` — the determinism
checker and other whole-process tools observe kernels they never saw
created).  Subscribers are pure observers: they must not change
simulation state, which is what keeps digests bit-identical with any set
of them attached.  A payload object is only valid during the call: the
``info`` of ``vcpu_exit`` is the vcpu's one exit record, which the next
``Vcpu.run`` rewrites in place, so a subscriber copies the fields it
keeps.  DESIGN.md ("The probe bus") lists every point with its emission
site and subscribers.
"""

from __future__ import annotations

import itertools
import weakref
from typing import Callable, Dict, List, Optional, Tuple

#: subscriber bands; lower bands run earlier on every emission
DIGEST = 20       # fold the event stream exactly as emitted (DET001, ledger)
OBSERVER = 30     # everything else

#: probe point -> the payload its subscribers are called with
POINTS: Dict[str, str] = {
    # kernel
    "dispatch": "(kind, time_ps, name)",
    "time_advance": "(now_ps,)",
    "kernel_error": "(exc,)",
    "run_return": "(now,)",
    # processor loop
    "simulate": "(cpu, granted, result)",
    "quantum_sync": "(cpu,)",
    "wfi_suspend": "(cpu, begin_ps)",
    "wfi_resume": "(cpu, begin_ps, now_ps)",
    # execution backends
    # ``info`` is valid during the call only: the next run rewrites it
    "vcpu_exit": "(cpu, info)",
    # ``roundtrip_ns`` is modeled host time on a KVM core, None on an ISS one
    "mmio": "(cpu, request, cycles, ok, roundtrip_ns)",
    "host_bill": "(cpu, window, lane, nanoseconds, category, main_thread)",
    "retire": "(cpu, instructions, pc)",
    # software watchdog
    "watchdog_arm": "(core_id, now_ns, timeout_ns, kick_id)",
    "watchdog_fire": "(fire,)",
    "kick": "(guard, kick_id, delivered)",
    "wedge": "(guard, kick_id)",
    # interrupt lines, fabric, TLM targets and sanitizers
    "irq": "(line, level)",
    "fabric_access": "(port, path, ok)",
    "transport": "(socket, payload, delay_in, delay_out)",
    "sanitizer_finding": "(finding,)",
    # guest-to-harness devices
    "console_tx": "(uart, byte)",
    "simctl": "(what, value)",
}

_seq = itertools.count()
#: subscriptions that every bus carries
_everywhere: List["Subscription"] = []
_buses: "weakref.WeakSet[ProbeBus]" = weakref.WeakSet()


class Subscription:
    """One subscriber on one point, of one bus or (``bus is None``) of all."""

    __slots__ = ("point", "fn", "band", "seq", "bus", "__weakref__")

    def __init__(self, point: str, fn: Callable, band: int,
                 bus: Optional["ProbeBus"]):
        if point not in POINTS:
            raise ValueError(f"unknown probe point {point!r}")
        self.point = point
        self.fn = fn
        self.band = band
        self.seq = next(_seq)
        self.bus = bus

    def cancel(self) -> None:
        """Unsubscribe; cancelling twice is harmless."""
        if self.bus is None:
            if self in _everywhere:
                _everywhere.remove(self)
            for bus in list(_buses):
                bus._rebuild(self.point)
        elif self in self.bus._local:
            self.bus._local.remove(self)
            self.bus._rebuild(self.point)


def _fan_out(fns: List[Callable]) -> Optional[Callable]:
    if not fns:
        return None
    if len(fns) == 1:
        return fns[0]
    subscribers = tuple(fns)

    def fan_out(*payload) -> None:
        for fn in subscribers:
            fn(*payload)

    return fan_out


class ProbeBus:
    """The probe points of one kernel: one subscriber list per point."""

    __slots__ = tuple(POINTS) + ("_local", "__weakref__")

    def __init__(self):
        self._local: List[Subscription] = []
        for point in POINTS:
            setattr(self, point, None)
        for point in dict.fromkeys(sub.point for sub in _everywhere):
            self._rebuild(point)
        _buses.add(self)

    def subscribe(self, point: str, fn: Callable,
                  band: int = OBSERVER) -> Subscription:
        """Call ``fn`` with the payload of every ``point`` emission."""
        subscription = Subscription(point, fn, band, self)
        self._local.append(subscription)
        self._rebuild(point)
        return subscription

    def subscribers(self, point: str) -> Tuple[Callable, ...]:
        """The subscribers of ``point``, in the order emissions call them."""
        return tuple(sub.fn for sub in self._ordered(point))

    def _ordered(self, point: str) -> List[Subscription]:
        subs = [sub for sub in _everywhere + self._local if sub.point == point]
        subs.sort(key=lambda sub: (sub.band, sub.seq))
        return subs

    def _rebuild(self, point: str) -> None:
        setattr(self, point, _fan_out([sub.fn for sub in self._ordered(point)]))


def subscribe_everywhere(point: str, fn: Callable,
                         band: int = OBSERVER) -> Subscription:
    """Subscribe ``fn`` to ``point`` on every bus, present and future."""
    subscription = Subscription(point, fn, band, None)
    _everywhere.append(subscription)
    for bus in list(_buses):
        bus._rebuild(point)
    return subscription
