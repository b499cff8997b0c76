"""The discrete-event simulation kernel.

Implements the SystemC scheduling semantics (IEEE 1666):

1. *Evaluation phase*: run every runnable process until it waits.
2. *Update phase*: apply primitive-channel (signal) update requests.
3. *Delta notification phase*: mature delta notifications; if any process
   became runnable, start a new delta cycle at the same simulation time.
4. *Time advance*: pop the earliest timed notification(s) and continue.

Processes are cooperative generators (see :mod:`repro.systemc.process`); the
scheduler itself always runs single-threaded and fully deterministic.  The
paper's parallel execution of CPU cores is modeled, not run on host threads:
the host-time ledger (:mod:`repro.host.accounting`) charges each quantum
window the maximum over the per-core lanes when ``VpConfig.parallel`` is set.

Simulated time inside the kernel is a plain ``int`` of picoseconds
(``_now_ps`` and the due times in the timed heap); :class:`SimTime` is
only built at the API edge (:attr:`Kernel.now`, :meth:`Kernel.run`,
``schedule_callback``, ``yield SimTime``, ``Event.notify``).  The timed heap
holds ``(due_ps, seq, entry)`` tuples, so ``heapq`` orders it in C: by due
time, then by scheduling order.

Observers never patch the kernel: they subscribe to the named probe points
of its :class:`~repro.systemc.probes.ProbeBus` (``Kernel.probes``).
"""

from __future__ import annotations

import heapq
import itertools
import threading
from collections import deque
from typing import Callable, Deque, Generator, List, Optional, Set, Tuple

from . import probes
from .event import Event
from .process import MethodProcess, Process, ProcessState
from .time import SimTime, _as_ps


class _KernelContext(threading.local):
    """Per-thread kernel resolution state.

    ``ambient`` is the most recently constructed (or explicitly adopted)
    kernel on this thread — the elaboration-time default.  ``stack`` tracks
    nested :meth:`Kernel.run` calls so a kernel running inside another
    kernel's process (or on another thread) never clobbers its neighbour:
    the stack top always wins over the ambient kernel.
    """

    def __init__(self):
        self.ambient: Optional["Kernel"] = None
        self.stack: List["Kernel"] = []


_context = _KernelContext()


def current_kernel() -> "Kernel":
    """Return the kernel currently elaborating or simulating on this thread."""
    if _context.stack:
        return _context.stack[-1]
    if _context.ambient is None:
        raise RuntimeError("no active simulation kernel; create a Kernel first")
    return _context.ambient


class _ProcessWakeup:
    """The timed-heap action that wakes a waiting process.

    A plain class instead of a closure so the snapshot subsystem
    (:mod:`repro.snapshot`) can introspect pending wakeups — which process,
    and whether the entry is a timeout — and re-create them verbatim when a
    saved event queue is restored into a fresh kernel.
    """

    __slots__ = ("kernel", "process", "timeout")

    def __init__(self, kernel: "Kernel", process: Process, timeout: bool):
        self.kernel = kernel
        self.process = process
        self.timeout = timeout

    def __call__(self) -> None:
        self.process._wake(self.kernel, timed_out=self.timeout)


class _TimedEntry:
    """A cancellable action in the timed-notification heap.

    The heap itself holds ``(due_ps, seq, entry)`` tuples; the entry is the
    handle a scheduler keeps to cancel it.
    """

    __slots__ = ("action", "cancelled")

    def __init__(self, action: Callable[[], None]):
        self.action = action
        self.cancelled = False


class SimulationStopped(Exception):
    """Raised internally when ``Kernel.stop()`` is requested mid-cycle."""


class Kernel:
    """A single-threaded SystemC-like discrete-event scheduler.

    Observation goes through the kernel's :class:`~repro.systemc.probes.
    ProbeBus` (:attr:`probes`): the scheduler emits ``dispatch`` for every
    process step ("step") and method run ("method"), ``time_advance``
    after every simulated-time advance (never for delta cycles),
    ``kernel_error`` when an exception escapes the scheduling loop (it is
    re-raised afterwards) and ``run_return`` when :meth:`run` returns.
    """

    #: dispatch-subscriber bands (lower runs earlier; see repro.systemc.probes).
    #: The SAN005 lane/window tagger must run before the DET001 digester so
    #: the access tags a dispatch produces are in place before the dispatch
    #: is sealed into the determinism digest.
    TRACE_PRIORITY_TAGGER = probes.TAGGER
    TRACE_PRIORITY_DIGEST = probes.DIGEST
    TRACE_PRIORITY_OBSERVER = probes.OBSERVER

    @classmethod
    def add_trace_hook(cls, hook: Callable[[str, int, str], None],
                       priority: int = TRACE_PRIORITY_OBSERVER) -> probes.Subscription:
        """Subscribe ``hook(kind, time_ps, name)`` to every kernel's dispatches.

        The subscription covers kernels that exist now and kernels created
        later, so a checker can observe kernels it did not create (see
        repro.analysis.determinism).  Lower ``priority`` values run earlier
        on every dispatch; equal priorities run in attach order, which is
        what lets two DIGEST-tier observers — the DET001 digester and the
        ``repro.divergence`` window ledger — fold the *same* event stream
        side by side.  Returns a handle for :meth:`remove_trace_hook`.
        """
        return probes.subscribe_everywhere("dispatch", hook, priority)

    @classmethod
    def remove_trace_hook(cls, handle: probes.Subscription) -> None:
        """Detach a hook registered via :meth:`add_trace_hook`."""
        handle.cancel()

    def __init__(self):
        self._now_ps = 0
        self._now_time = SimTime.zero()
        self._runnable: Deque[Process] = deque()
        self._runnable_set = set()
        self._delta_events: List[Event] = []
        self._delta_wakeups: List[Process] = []
        self._timed: List[Tuple[int, int, _TimedEntry]] = []
        self._seq = itertools.count()
        self._processes: List[Process] = []
        self._methods: Deque[MethodProcess] = deque()
        self._update_requests: List = []
        self._update_request_ids: Set[int] = set()
        self._stop_requested = False
        self._running = False
        self._current_process: Optional[Process] = None
        self.delta_count = 0
        #: this kernel's probe points (see repro.systemc.probes)
        self.probes = probes.ProbeBus()
        _context.ambient = self

    # -- registration -----------------------------------------------------
    def spawn(self, body: Callable[[], Generator], name: str = "process") -> Process:
        """Create a new SC_THREAD-like process and make it initially runnable."""
        process = Process(name, body, self)
        self._processes.append(process)
        self._make_runnable(process)
        return process

    def create_method(
        self, callback: Callable[[], None], name: str = "method", sensitive_to=()
    ) -> MethodProcess:
        method = MethodProcess(name, callback, self, sensitive_to)
        for event in method.sensitivity:
            event._attach(self)
            event._add_waiter(_MethodWaiter(method))
        return method

    def event(self, name: str = "event") -> Event:
        return Event(name, self)

    # -- state --------------------------------------------------------------
    @property
    def now(self) -> SimTime:
        now = self._now_time
        if now._ps != self._now_ps:
            now = self._now_time = SimTime(self._now_ps)
        return now

    @property
    def current_process(self) -> Optional[Process]:
        return self._current_process

    def pending_activity(self) -> bool:
        return bool(self._runnable or self._delta_events or self._delta_wakeups or self._timed)

    # -- scheduling hooks (used by Event/Process) ------------------------------
    def _make_runnable(self, process: Process) -> None:
        if process.finished:
            return
        if id(process) not in self._runnable_set:
            self._runnable.append(process)
            self._runnable_set.add(id(process))

    def _trigger_event(self, event: Event) -> None:
        # Immediate notification: wake all waiters right now.
        for waiter in list(event._waiters):
            waiter._wake(self)

    def _schedule_delta_notification(self, event: Event) -> None:
        self._delta_events.append(event)

    def _schedule_delta_wakeup(self, process: Process) -> None:
        self._delta_wakeups.append(process)

    def _schedule_timed(self, due_ps: int, action: Callable[[], None]) -> _TimedEntry:
        """Push ``action`` onto the timed heap at absolute time ``due_ps``."""
        entry = _TimedEntry(action)
        heapq.heappush(self._timed, (due_ps, next(self._seq), entry))
        return entry

    def _schedule_timed_notification(self, event: Event, due_ps: int) -> _TimedEntry:
        return self._schedule_timed(due_ps, event._fire)

    def _schedule_timed_wakeup(self, process: Process, due_ps: int,
                               timeout: bool = False) -> _TimedEntry:
        return self._schedule_timed(due_ps, _ProcessWakeup(self, process, timeout))

    def schedule_callback(self, delay: SimTime, callback: Callable[[], None]) -> _TimedEntry:
        """Run ``callback`` after ``delay`` simulated time (kernel context)."""
        return self._schedule_timed(self._now_ps + _as_ps(delay), callback)

    def _queue_method(self, method: MethodProcess) -> None:
        self._methods.append(method)

    def request_update(self, channel) -> None:
        """Primitive-channel update request (``sc_prim_channel``).

        Deduplicated by identity in O(1); the list keeps first-request
        order, which is the order ``_update()`` calls run in.
        """
        if id(channel) not in self._update_request_ids:
            self._update_requests.append(channel)
            self._update_request_ids.add(id(channel))

    # -- control ---------------------------------------------------------------
    def stop(self) -> None:
        self._stop_requested = True

    def run(self, duration: Optional[SimTime] = None) -> SimTime:
        """Run the simulation.

        With ``duration`` the kernel simulates at most that much additional
        time; without it, until no activity remains or :meth:`stop` is
        called.  Returns the simulation time reached.
        """
        deadline = None if duration is None else self._now_ps + _as_ps(duration)
        _context.stack.append(self)
        self._stop_requested = False
        self._running = True
        try:
            while not self._stop_requested:
                self._delta_cycle()
                if self._stop_requested:
                    break
                if self._runnable:
                    continue
                if not self._advance_time(deadline):
                    break
        except Exception as exc:
            fire = self.probes.kernel_error
            if fire is not None:
                fire(exc)
            raise
        finally:
            self._running = False
            _context.stack.pop()
        if (not self._stop_requested and deadline is not None
                and self._now_ps < deadline and not self.pending_activity()):
            self._now_ps = deadline
        fire = self.probes.run_return
        if fire is not None:
            fire(self.now)
        return self.now

    # -- internals --------------------------------------------------------------
    def _delta_cycle(self) -> None:
        """One evaluate/update/delta-notify cycle at the current time."""
        progressed = bool(self._runnable or self._methods)
        bus = self.probes
        # Evaluation phase.
        while self._runnable or self._methods:
            while self._methods:
                method = self._methods.popleft()
                fire = bus.dispatch
                if fire is not None:
                    fire("method", self._now_ps, method.name)
                method._run()
            if not self._runnable:
                break
            process = self._runnable.popleft()
            self._runnable_set.discard(id(process))
            if process.finished or process.state == ProcessState.SUSPENDED:
                continue
            self._current_process = process
            try:
                fire = bus.dispatch
                if fire is not None:
                    fire("step", self._now_ps, process.name)
                process._step(self)
            finally:
                self._current_process = None
            if self._stop_requested:
                return
        # Update phase.
        updates, self._update_requests = self._update_requests, []
        self._update_request_ids.clear()
        for channel in updates:
            channel._update()
        # Delta notification phase.
        delta_events, self._delta_events = self._delta_events, []
        delta_wakeups, self._delta_wakeups = self._delta_wakeups, []
        for event in delta_events:
            event._fire()
        for process in delta_wakeups:
            process._wake(self)
        if progressed or delta_events or delta_wakeups:
            self.delta_count += 1

    def _advance_time(self, deadline_ps: Optional[int]) -> bool:
        """Pop the earliest timed entries; return False when simulation ends."""
        timed = self._timed
        heappop = heapq.heappop
        while timed and timed[0][2].cancelled:
            heappop(timed)
        if not timed:
            return False
        due_ps = timed[0][0]
        if deadline_ps is not None and due_ps > deadline_ps:
            self._now_ps = deadline_ps
            return False
        self._now_ps = due_ps
        fire = self.probes.time_advance
        if fire is not None:
            fire(due_ps)
        while timed and timed[0][0] == due_ps:
            entry = heappop(timed)[2]
            if not entry.cancelled:
                entry.action()
        return True


class _MethodWaiter:
    """Adapter letting a MethodProcess sit in an Event's waiter list."""

    __slots__ = ("method",)

    def __init__(self, method: MethodProcess):
        self.method = method

    def _wake(self, kernel: "Kernel", timed_out: bool = False) -> None:
        self.method.trigger()
