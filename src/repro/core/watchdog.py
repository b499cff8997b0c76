"""Software-based watchdog timer (§IV-B, Listing 1).

The paper replaces perf-counter-based run limiting (which Apple-Silicon
hosts under Asahi Linux cannot provide) with a software watchdog: a timer
thread shared by all cores that, on expiry, sends ``SIGUSR1`` to the thread
sitting in ``KVM_RUN`` — but only if the run that armed it is still the
active one.  Staleness is detected with a per-core *kick id*
(``m_kickid``): every ``KVM_RUN`` increments the id, and an expiring timer
compares the id it captured at arm time against the current one.

In this model the timer thread's clock is the per-core modeled host time;
:meth:`Watchdog.advance` plays the role of the thread waking up and firing
due timers.  The kick-id filtering logic is reproduced verbatim, and the
ablation benchmark ``bench_ablation_watchdog`` shows what goes wrong
without it (stale kicks aborting fresh runs).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..systemc.probes import ProbeBus


class WatchdogFire(NamedTuple):
    """Payload of one fire notification.

    Carries everything needed to correlate a fire with the run that armed
    it: the core, when the timer was due vs. when the watchdog thread got
    around to firing it, plus the arming run's *kick id* and *armed budget*
    (None for raw timers armed without a :class:`KickGuard`).
    """

    core_id: int
    fired_at_ns: float
    deadline_ns: float
    kick_id: Optional[int] = None
    budget_ns: Optional[float] = None

    @property
    def margin_ns(self) -> float:
        """How late past its deadline the timer actually fired."""
        return self.fired_at_ns - self.deadline_ns


class WatchdogEntry:
    """One armed timer: the handle :meth:`Watchdog.cancel` takes.

    A kick-guard timer carries its ``guard`` and ``kick_id`` and fires as
    ``guard.kick(kick_id)``; a raw timer (no guard) calls ``callback()``.
    """

    __slots__ = ("deadline_ns", "callback", "guard", "cancelled", "core_id",
                 "kick_id", "budget_ns")

    def __init__(self, deadline_ns: float, callback: Optional[Callable[[], None]],
                 core_id: int = 0, kick_id: Optional[int] = None,
                 budget_ns: Optional[float] = None, guard=None):
        self.deadline_ns = deadline_ns
        self.callback = callback
        self.guard = guard
        self.cancelled = False
        self.core_id = core_id
        self.kick_id = kick_id
        self.budget_ns = budget_ns


#: a timeline slot: ``heapq`` orders by deadline, then by arm order
_Slot = Tuple[float, int, WatchdogEntry]


class Watchdog:
    """Shared watchdog timer; one timeline per core's vcpu thread.

    Each timeline is a heap of ``(deadline_ns, seq, entry)`` tuples, so
    timers fire in deadline order and, at equal deadlines, in arm order.
    """

    def __init__(self):
        self._timelines: Dict[int, List[_Slot]] = {}
        self._seq = itertools.count()
        self.num_scheduled = 0
        self.num_fired = 0
        self.num_cancelled = 0
        #: emits ``watchdog_arm`` and ``watchdog_fire``; the platform wires
        #: it to its kernel's bus
        self.probes = ProbeBus()

    def schedule(self, core_id: int, now_ns: float, timeout_ns: float,
                 callback: Optional[Callable[[], None]],
                 kick_id: Optional[int] = None,
                 budget_ns: Optional[float] = None,
                 guard=None) -> WatchdogEntry:
        """Arm a timer that fires once ``timeout_ns`` from now.

        It calls ``guard.kick(kick_id)`` when a ``guard`` is given (how
        :meth:`KickGuard.arm` schedules), else ``callback()``.  Without a
        guard, ``kick_id`` and ``budget_ns`` are pure metadata carried into
        the fire notification so observers (the flight recorder, humans
        reading a crash bundle) can correlate stale kicks with the run that
        armed them.
        """
        if timeout_ns < 0:
            raise ValueError(f"negative watchdog timeout: {timeout_ns}")
        deadline_ns = now_ns + timeout_ns
        entry = WatchdogEntry(deadline_ns, callback, core_id, kick_id,
                              budget_ns, guard)
        timeline = self._timelines.get(core_id)
        if timeline is None:
            timeline = self._timelines[core_id] = []
        heapq.heappush(timeline, (deadline_ns, next(self._seq), entry))
        self.num_scheduled += 1
        fire = self.probes.watchdog_arm
        if fire is not None:
            fire(core_id, now_ns, timeout_ns, kick_id)
        return entry

    def cancel(self, entry: WatchdogEntry) -> None:
        if not entry.cancelled:
            entry.cancelled = True
            self.num_cancelled += 1

    def advance(self, core_id: int, now_ns: float) -> int:
        """Fire every due timer on this core's timeline; returns count fired."""
        timeline = self._timelines.get(core_id)
        if not timeline or timeline[0][0] > now_ns:
            return 0
        fired = 0
        heappop = heapq.heappop
        while timeline and timeline[0][0] <= now_ns:
            entry = heappop(timeline)[2]
            if entry.cancelled:
                continue
            guard = entry.guard
            if guard is not None:
                guard.kick(entry.kick_id)
            else:
                entry.callback()
            fired += 1
            self.num_fired += 1
            fire = self.probes.watchdog_fire
            if fire is not None:
                fire(WatchdogFire(entry.core_id, now_ns, entry.deadline_ns,
                                  entry.kick_id, entry.budget_ns))
        return fired

    def pending(self, core_id: int) -> int:
        return sum(1 for _, _, entry in self._timelines.get(core_id, [])
                   if not entry.cancelled)

    # -- snapshot support -------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable watchdog state.

        Live entries are emitted per core in canonical (deadline, seq)
        order with the seq replaced by its rank — seqs only break ties, so
        fresh ones assigned in the same order on restore preserve firing
        order while keeping snapshot bytes independent of how many entries
        ever existed.  Cancelled entries are dropped.  The guard is not
        serialized: every live entry was armed through a kick guard, and
        :meth:`restore_state` re-targets it at the restored guard by core.
        """
        timelines = {}
        for core_id in sorted(self._timelines):
            live = sorted(slot for slot in self._timelines[core_id]
                          if not slot[2].cancelled)
            if live:
                timelines[str(core_id)] = [
                    {"deadline_ns": entry.deadline_ns,
                     "kick_id": entry.kick_id,
                     "budget_ns": entry.budget_ns}
                    for _, _, entry in live
                ]
        return {
            "timelines": timelines,
            "num_scheduled": self.num_scheduled,
            "num_fired": self.num_fired,
            "num_cancelled": self.num_cancelled,
        }

    def restore_state(self, state: dict, kick_guards: Dict[int, "KickGuard"]) -> None:
        """Rebuild timelines from a snapshot, kicking the per-core guards."""
        self._timelines = {}
        self._seq = itertools.count()
        for core_str, entries in state["timelines"].items():
            core_id = int(core_str)
            guard = kick_guards[core_id]
            timeline: List[_Slot] = []
            for data in entries:
                entry = WatchdogEntry(data["deadline_ns"], None, core_id,
                                      data["kick_id"], data["budget_ns"], guard)
                timeline.append((entry.deadline_ns, next(self._seq), entry))
            heapq.heapify(timeline)
            self._timelines[core_id] = timeline
        self.num_scheduled = state["num_scheduled"]
        self.num_fired = state["num_fired"]
        self.num_cancelled = state["num_cancelled"]


class KickGuard:
    """The per-core kick-id filter from Listing 1.

    ``cpu::kick`` only forwards the signal when the expiring timer's id
    matches the id of the currently active KVM_RUN::

        void cpu::kick(unsigned int id) {
            if (id == m_kickid)
                pthread_kill(m_self, SIGUSR1);
        }

    The CPU model increments ``m_kickid`` each time a KVM_RUN returns
    (§IV-A).
    """

    def __init__(self, deliver_signal: Callable[[], None]):
        self._deliver_signal = deliver_signal   # pthread_kill(m_self, SIGUSR1)
        self.m_kickid = 0
        self.num_kicks_delivered = 0
        self.num_kicks_filtered = 0
        self.num_repeat_kicks = 0
        self._last_delivered_id: Optional[int] = None
        #: emits ``kick`` and ``wedge``; the CPU model wires it to its bus
        self.probes = ProbeBus()

    def kick(self, kick_id: int) -> None:
        """Called by the watchdog thread when a timer expires.

        Kicking the *same* run id twice emits ``wedge``: the first SIGUSR1
        failed to end KVM_RUN, so the core is wedged.
        """
        delivered = kick_id == self.m_kickid
        if delivered:
            if kick_id == self._last_delivered_id:
                self.num_repeat_kicks += 1
                fire = self.probes.wedge
                if fire is not None:
                    fire(self, kick_id)
            self._last_delivered_id = kick_id
            self.num_kicks_delivered += 1
            self._deliver_signal()
        else:
            self.num_kicks_filtered += 1
        fire = self.probes.kick
        if fire is not None:
            fire(self, kick_id, delivered)

    def arm(self, watchdog: Watchdog, core_id: int, now_ns: float,
            timeout_ns: float) -> WatchdogEntry:
        """Schedule a kick for the *current* run id (Listing 1, lines 7-8)."""
        return watchdog.schedule(core_id, now_ns, timeout_ns, None,
                                 self.m_kickid, timeout_ns, self)


class UnguardedKick:
    """Ablation variant: no id filtering — every expiry kicks.

    Demonstrates the failure mode the kick id prevents: a timer armed for a
    run that exited early (e.g. on MMIO) fires later and spuriously aborts
    whatever run is active by then.
    """

    def __init__(self, deliver_signal: Callable[[], None]):
        self._deliver_signal = deliver_signal
        self.m_kickid = 0
        self.num_kicks_delivered = 0
        self.num_kicks_filtered = 0
        self.probes = ProbeBus()

    def kick(self, kick_id: int) -> None:
        self.num_kicks_delivered += 1
        self._deliver_signal()
        fire = self.probes.kick
        if fire is not None:
            fire(self, kick_id, True)

    def arm(self, watchdog: Watchdog, core_id: int, now_ns: float,
            timeout_ns: float) -> WatchdogEntry:
        return watchdog.schedule(core_id, now_ns, timeout_ns, None,
                                 self.m_kickid, timeout_ns, self)
