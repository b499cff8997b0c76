"""The flight recorder: a bounded ring journal of typed platform events.

A virtual platform's black box.  Every probe installed by
:class:`repro.flight.Flight` appends one :class:`FlightEvent` here; the
ring keeps the most recent ``capacity`` events so a run that wedges after
hours still has the history *leading up to* the failure, at O(1) memory.

Event kinds journalled (see ``repro.flight.attach`` for the probes):

===============  ==============================================================
``kvm_exit``     one ``KVM_RUN`` returned (reason, pc, instructions, wall ns)
``cpu_exit``     the ISS twin: one ``executor.run`` returned
``mmio_req``     a trapped guest access enters the TLM bus
``mmio_resp``    ...and completes (consumed cycles, bus error flag)
``irq``          an interrupt edge reached a core (line level)
``wfi_suspend``  a core entered its idle loop (``WAIT_IRQ``)
``wfi_resume``   ...and woke up (skipped picoseconds)
``watchdog_arm``   a run armed the software watchdog (kick id, budget)
``watchdog_kick``  a timer expired and the kick-id filter ran (delivered?)
``watchdog_fire``  fire notification payload (kick id, armed budget, margin)
``watchdog_wedge`` the same run id was kicked twice: the core is stuck
``quantum_sync``   a quantum keeper synced (local offset)
``sanitizer``      a runtime sanitizer reported a finding
``console``        the guest printed a line on the UART
``simctl``         guest-to-harness signal (boot_done/checkpoint/shutdown/panic)
===============  ==============================================================

Every event carries two timestamps: simulation time in picoseconds
(``t_ps``) and, where a per-core wall clock exists, the core's *modeled*
host time in nanoseconds (``host_ns``).  Nothing here reads real wall
clocks, so recording is deterministic and replay-stable.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple


class FlightEvent(NamedTuple):
    """One journal entry; ``data`` is a sorted tuple of extra key/values."""

    seq: int
    kind: str
    t_ps: int
    host_ns: Optional[float]
    core: Optional[int]
    data: Tuple[Tuple[str, object], ...]

    def to_dict(self) -> dict:
        record = {"seq": self.seq, "kind": self.kind, "t_ps": self.t_ps}
        if self.host_ns is not None:
            record["host_ns"] = round(self.host_ns, 3)
        if self.core is not None:
            record["core"] = self.core
        record.update(self.data)
        return record

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class FlightRecorder:
    """Bounded ring of :class:`FlightEvent`; oldest events fall off."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"flight recorder capacity must be positive: {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._seq = itertools.count()
        self.num_recorded = 0
        self.num_dropped = 0

    def record(self, kind: str, t_ps: int, host_ns: Optional[float] = None,
               core: Optional[int] = None, **data) -> FlightEvent:
        event = FlightEvent(next(self._seq), kind, t_ps, host_ns, core,
                            tuple(sorted(data.items())))
        if len(self._events) == self.capacity:
            self.num_dropped += 1
        self._events.append(event)
        self.num_recorded += 1
        return event

    # -- reading the ring ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FlightEvent]:
        return iter(self._events)

    def tail(self, count: Optional[int] = None) -> List[FlightEvent]:
        """The most recent ``count`` events, oldest first (all if None)."""
        events = list(self._events)
        if count is None or count >= len(events):
            return events
        return events[len(events) - count:]

    def of_kind(self, *kinds: str) -> List[FlightEvent]:
        wanted = set(kinds)
        return [event for event in self._events if event.kind in wanted]

    def counts(self) -> Dict[str, int]:
        """Retained events per kind (what a bundle's metrics block shows)."""
        tally: Dict[str, int] = {}
        for event in self._events:
            tally[event.kind] = tally.get(event.kind, 0) + 1
        return tally

    def write_jsonl(self, path: str, last: Optional[int] = None) -> int:
        """Dump the journal (or its last-N suffix) as JSONL; returns count."""
        events = self.tail(last)
        with open(path, "w") as stream:
            for event in events:
                stream.write(event.to_json())
                stream.write("\n")
        return len(events)


def read_jsonl(path: str) -> List[dict]:
    """Load a journal written by :meth:`FlightRecorder.write_jsonl`.

    A line that is not UTF-8 JSON, or whose record is not a JSON object,
    raises :class:`ValueError` naming ``path`` and the 1-based line number.
    """
    records = []
    with open(path, "rb") as stream:
        for number, line in enumerate(stream, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:    # JSONDecodeError, UnicodeDecodeError
                raise ValueError(f"{path}:{number}: not a JSON line: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}:{number}: a journal record must be a "
                                 f"JSON object, got {type(record).__name__}")
            records.append(record)
    return records
