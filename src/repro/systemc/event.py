"""Events — the primitive synchronization objects of the kernel.

Mirrors ``sc_core::sc_event``: processes wait on events; events can be
notified immediately, after a delta cycle, or after a time delay.  A pending
timed notification is cancelled by a later immediate/delta notification, as
in SystemC (an event has at most one pending notification, and earlier
notifications override later ones).  A pending timed notification is kept
as an absolute ``int`` of picoseconds, like every time inside the kernel.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from .time import SimTime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .kernel import Kernel
    from .process import Process


class Event:
    """A notifiable synchronization point for simulation processes."""

    def __init__(self, name: str = "event", kernel: Optional["Kernel"] = None):
        self.name = name
        self._kernel = kernel
        self._waiters: List["Process"] = []
        # Pending notification bookkeeping: None = nothing pending, else
        # the absolute due time in ps; _pending_delta for the next delta.
        self._pending_time: Optional[int] = None
        self._pending_delta = False
        self._pending_handle = None

    # -- kernel wiring ----------------------------------------------------
    def _attach(self, kernel: "Kernel") -> None:
        if self._kernel is None:
            self._kernel = kernel
        elif self._kernel is not kernel:
            raise RuntimeError(f"event {self.name!r} already bound to another kernel")

    def _require_kernel(self) -> "Kernel":
        if self._kernel is None:
            from .kernel import current_kernel

            self._kernel = current_kernel()
        return self._kernel

    # -- waiting ----------------------------------------------------------
    def _add_waiter(self, process: "Process") -> None:
        if process not in self._waiters:
            self._waiters.append(process)

    def _remove_waiter(self, process: "Process") -> None:
        if process in self._waiters:
            self._waiters.remove(process)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    # -- notification -------------------------------------------------------
    def notify(self, delay: Optional[SimTime] = None) -> None:
        """Notify the event.

        ``notify()`` is an *immediate* notification: waiting processes become
        runnable in the current evaluation phase.  ``notify(SimTime(0))`` is a
        *delta* notification.  ``notify(t)`` with ``t > 0`` is a timed
        notification at ``now + t``.
        """
        kernel = self._require_kernel()
        if delay is None:
            self._cancel_pending()
            kernel._trigger_event(self)
            return
        if not isinstance(delay, SimTime):
            raise TypeError(f"notify() delay must be SimTime, got {type(delay).__name__}")
        if not delay._ps:
            if self._pending_delta:
                return
            self._cancel_pending()
            self._pending_delta = True
            kernel._schedule_delta_notification(self)
            return
        due = kernel._now_ps + delay._ps
        if self._pending_delta:
            return  # a delta notification beats any timed one
        if self._pending_time is not None and self._pending_time <= due:
            return  # earlier notification wins
        self._cancel_pending()
        self._pending_time = due
        self._pending_handle = kernel._schedule_timed_notification(self, due)

    def cancel(self) -> None:
        """Cancel any pending (delta or timed) notification."""
        self._cancel_pending()

    def _cancel_pending(self) -> None:
        if self._pending_handle is not None:
            self._pending_handle.cancelled = True
            self._pending_handle = None
        self._pending_time = None
        self._pending_delta = False

    # Called by the kernel when a scheduled notification matures.
    def _fire(self) -> None:
        self._pending_time = None
        self._pending_delta = False
        self._pending_handle = None
        kernel = self._require_kernel()
        kernel._trigger_event(self)

    def __repr__(self) -> str:
        return f"Event({self.name!r}, waiters={len(self._waiters)})"


class EventList:
    """Wait-for-any combination of events (``e1 | e2`` in SystemC)."""

    def __init__(self, events):
        self.events = tuple(events)
        if not self.events:
            raise ValueError("EventList needs at least one event")
        for event in self.events:
            if not isinstance(event, Event):
                raise TypeError("EventList members must be Events")

    def __or__(self, other):
        if isinstance(other, Event):
            return EventList(self.events + (other,))
        if isinstance(other, EventList):
            return EventList(self.events + other.events)
        return NotImplemented

    def __iter__(self):
        return iter(self.events)

    def __len__(self):
        return len(self.events)


def any_of(*events: Event) -> EventList:
    """Convenience constructor for a wait-for-any event combination."""
    return EventList(events)
