"""Simulation processes.

SystemC's ``SC_THREAD`` maps naturally onto Python generators: the body is a
generator function and every ``yield`` is a wait statement.  A process may
yield:

* a :class:`~repro.systemc.time.SimTime` — wait for that amount of time;
* an :class:`~repro.systemc.event.Event` — wait until notified;
* an :class:`~repro.systemc.event.EventList` — wait until any member fires;
* a ``(SimTime, Event...)`` timeout wait via :class:`WaitTimeout`;
* ``None`` — wait one delta cycle.

``SC_METHOD``-style callbacks are supported through :class:`MethodProcess`,
re-triggered by a static sensitivity list.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Generator, Iterable, Optional, Union

from .event import Event, EventList
from .time import SimTime

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import Kernel

WaitSpec = Union[SimTime, Event, EventList, None, "WaitTimeout"]


class WaitTimeout:
    """Wait for any of ``events``, but at most ``timeout`` time.

    After the wait, :attr:`timed_out` on the owning process says whether the
    timeout (rather than an event) woke it.
    """

    def __init__(self, timeout: SimTime, *events: Event):
        if not isinstance(timeout, SimTime):
            raise TypeError("WaitTimeout timeout must be SimTime")
        self.timeout = timeout
        self.events = tuple(events)


class ProcessState(enum.Enum):
    READY = "ready"
    WAITING = "waiting"
    SUSPENDED = "suspended"
    FINISHED = "finished"


class Process:
    """An ``SC_THREAD``-like coroutine process."""

    def __init__(self, name: str, body: Callable[[], Generator], kernel: "Kernel"):
        self.name = name
        self._body_fn = body
        self._kernel = kernel
        self._generator: Optional[Generator] = None
        self.state = ProcessState.READY
        self.timed_out = False
        self._waiting_events: tuple = ()
        self._timeout_handle = None
        self._suspend_pending_wake = False

    # -- lifecycle --------------------------------------------------------
    def _start(self) -> None:
        if self._generator is None:
            self._generator = self._body_fn()

    @property
    def finished(self) -> bool:
        return self.state == ProcessState.FINISHED

    # -- stepping (kernel only) --------------------------------------------
    def _step(self, kernel: "Kernel") -> None:
        """Advance the coroutine to its next wait statement."""
        self._start()
        self.state = ProcessState.READY
        try:
            wait_spec = self._generator.send(None)
        except StopIteration:
            self.state = ProcessState.FINISHED
            self._clear_waits()
            return
        self._arm(wait_spec, kernel)

    def _arm(self, wait_spec: WaitSpec, kernel: "Kernel") -> None:
        """Register the wait condition returned by the last ``yield``."""
        self._clear_waits()
        self.timed_out = False
        self.state = ProcessState.WAITING
        if wait_spec is None:
            kernel._schedule_delta_wakeup(self)
            return
        if isinstance(wait_spec, SimTime):
            self._timeout_handle = kernel._schedule_timed_wakeup(
                self, kernel._now_ps + wait_spec._ps)
            return
        if isinstance(wait_spec, Event):
            wait_spec._check_kernel(kernel)
            wait_spec._add_waiter(self)
            self._waiting_events = (wait_spec,)
            return
        if isinstance(wait_spec, EventList):
            for event in wait_spec:
                event._check_kernel(kernel)
                event._add_waiter(self)
            self._waiting_events = tuple(wait_spec)
            return
        if isinstance(wait_spec, WaitTimeout):
            for event in wait_spec.events:
                event._check_kernel(kernel)
                event._add_waiter(self)
            self._waiting_events = tuple(wait_spec.events)
            self._timeout_handle = kernel._schedule_timed_wakeup(
                self, kernel._now_ps + wait_spec.timeout._ps, timeout=True
            )
            return
        raise TypeError(f"process {self.name!r} yielded unsupported wait spec: {wait_spec!r}")

    def _clear_waits(self) -> None:
        for event in self._waiting_events:
            event._remove_waiter(self)
        self._waiting_events = ()
        if self._timeout_handle is not None:
            self._timeout_handle.cancelled = True
            self._timeout_handle = None

    # -- wakeups ------------------------------------------------------------
    def _wake(self, kernel: "Kernel", timed_out: bool = False) -> None:
        if self.state == ProcessState.FINISHED:
            return
        if self.state == ProcessState.SUSPENDED:
            # Remember that the wake happened; deliver on resume.
            self._suspend_pending_wake = True
            self.timed_out = timed_out
            self._clear_waits()
            return
        self._clear_waits()
        self.timed_out = timed_out
        self.state = ProcessState.READY
        kernel._make_runnable(self)

    # -- suspend / resume (sc_process_handle::suspend) -----------------------
    def suspend(self) -> None:
        if self.state in (ProcessState.FINISHED,):
            return
        if self.state != ProcessState.SUSPENDED:
            self._suspend_pending_wake = False
            self.state = ProcessState.SUSPENDED

    def resume(self, kernel: "Kernel") -> None:
        if self.state != ProcessState.SUSPENDED:
            return
        if self._suspend_pending_wake:
            self._suspend_pending_wake = False
            self.state = ProcessState.READY
            kernel._make_runnable(self)
        else:
            self.state = ProcessState.WAITING

    def __repr__(self) -> str:
        return f"Process({self.name!r}, {self.state.value})"


class MethodProcess:
    """An ``SC_METHOD``-like callback process with a static sensitivity list."""

    def __init__(
        self,
        name: str,
        callback: Callable[[], None],
        kernel: "Kernel",
        sensitive_to: Iterable[Event] = (),
    ):
        self.name = name
        self.callback = callback
        self._kernel = kernel
        self.sensitivity = tuple(sensitive_to)
        self._scheduled = False

    def trigger(self) -> None:
        if not self._scheduled:
            self._scheduled = True
            self._kernel._queue_method(self)

    def _run(self) -> None:
        self._scheduled = False
        self.callback()

    def __repr__(self) -> str:
        return f"MethodProcess({self.name!r})"
