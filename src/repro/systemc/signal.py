"""Primitive channels: ``sc_signal``-like value channels.

A :class:`Signal` holds a value, applies writes in the update phase (so all
readers within a delta cycle observe the old value), and notifies a
value-changed event.  :class:`IrqLine` is a convenience boolean signal with
edge events, used for interrupt wiring between peripherals and CPUs.
"""

from __future__ import annotations

from typing import Generic, Optional, TypeVar

from .event import Event
from .kernel import Kernel

T = TypeVar("T")


class Signal(Generic[T]):
    """A value channel with SystemC request-update/update semantics."""

    def __init__(self, name: str, kernel: Kernel, initial: Optional[T] = None):
        self.name = name
        self._kernel = kernel
        self._current: Optional[T] = initial
        self._next: Optional[T] = initial
        self._update_pending = False
        self.value_changed = Event(f"{name}.value_changed", self._kernel)

    def read(self) -> Optional[T]:
        return self._current

    @property
    def value(self) -> Optional[T]:
        return self._current

    def write(self, value: T) -> None:
        self._next = value
        if not self._update_pending:
            self._update_pending = True
            self._kernel.request_update(self)

    def _update(self) -> None:
        self._update_pending = False
        if self._next != self._current:
            self._current = self._next
            self.value_changed.notify(delay=None)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, value={self._current!r})"


class IrqLine:
    """A level-sensitive interrupt line with rise/fall events.

    Writes take effect immediately (not in the update phase); interrupt
    controllers sample the level and latch pending state themselves, which
    matches how TLM-based VPs usually wire IRQs (VCML ``gpio`` ports).
    Every level change emits the ``irq`` probe point as ``(line, level)``
    on the kernel's bus, before the connected callbacks run.
    """

    def __init__(self, name: str, kernel: Kernel):
        self.name = name
        self._kernel = kernel
        self._level = False
        self.raised = Event(f"{name}.raised", self._kernel)
        self.lowered = Event(f"{name}.lowered", self._kernel)
        self.changed = Event(f"{name}.changed", self._kernel)
        self._targets = []
        self.probes = kernel.probes

    def connect(self, callback) -> None:
        """Register ``callback(level: bool)`` invoked on every level change."""
        self._targets.append(callback)

    @property
    def level(self) -> bool:
        return self._level

    def write(self, level: bool) -> None:
        level = bool(level)
        if level == self._level:
            return
        self._level = level
        fire = self.probes.irq
        if fire is not None:
            fire(self, level)
        for callback in self._targets:
            callback(level)
        (self.raised if level else self.lowered).notify(delay=None)
        self.changed.notify(delay=None)

    def raise_irq(self) -> None:
        self.write(True)

    def lower_irq(self) -> None:
        self.write(False)

    def pulse(self) -> None:
        """Raise then immediately lower — edge-style notification."""
        self.write(True)
        self.write(False)

    def __repr__(self) -> str:
        return f"IrqLine({self.name!r}, level={self._level})"
