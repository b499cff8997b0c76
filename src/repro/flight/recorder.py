"""The flight recorder: a bounded ring journal of typed platform events.

A virtual platform's black box.  Every probe installed by
:class:`repro.flight.Flight` appends one :class:`FlightEvent` here; the
ring keeps the most recent ``capacity`` events so a run that wedges after
hours still has the history *leading up to* the failure, at O(1) memory.

Event kinds journalled (see ``repro.flight.attach`` for the probes):

===============  ==============================================================
``kvm_exit``     one ``KVM_RUN`` returned (reason, pc, instructions, wall ns)
``cpu_exit``     the ISS twin: one ``executor.run`` returned
``transport``    a TLM transaction through the platform bus (address,
                 length, command, response, latency, data; ``core`` is the
                 initiator, -1 for the loader)
``irq``          an interrupt line changed level (line name, level)
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

The ring holds plain ``(kind, t_ps, host_ns, core, data)`` tuples whose
``data`` is already key-sorted: the hot probes write it out literally
through :meth:`FlightRecorder.add`, and :meth:`FlightRecorder.record`
sorts keyword arguments for the cold ones.  Sequence numbers are implied
by ring position and :class:`FlightEvent` objects are built only when the
journal is read.

The journal is also the platform's NISTT-style tracer [5]: the tracer
views read its retained ``transport`` and ``irq`` entries.
"""

from __future__ import annotations

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
    """Bounded ring of journal entries; oldest entries fall off."""

    def __init__(self, capacity: int = 4096):
        if capacity <= 0:
            raise ValueError(f"flight recorder capacity must be positive: {capacity}")
        self.capacity = capacity
        #: (kind, t_ps, host_ns, core, data) per retained entry, oldest first
        self._events: deque = deque(maxlen=capacity)
        self.num_recorded = 0

    @property
    def num_dropped(self) -> int:
        """Entries that fell off the front of the ring."""
        return max(0, self.num_recorded - self.capacity)

    def add(self, kind: str, t_ps: int, host_ns: Optional[float],
            core: Optional[int], data: Tuple[Tuple[str, object], ...]) -> None:
        """Journal one event; ``data`` must be sorted by key."""
        self._events.append((kind, t_ps, host_ns, core, data))
        self.num_recorded += 1

    def record(self, kind: str, t_ps: int, host_ns: Optional[float] = None,
               core: Optional[int] = None, **data) -> FlightEvent:
        """Journal one event given as keywords; returns it."""
        self.add(kind, t_ps, host_ns, core, tuple(sorted(data.items())))
        return FlightEvent(self.num_recorded - 1, *self._events[-1])

    # -- reading the ring ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FlightEvent]:
        first = self.num_recorded - len(self._events)
        for offset, entry in enumerate(self._events):
            yield FlightEvent(first + offset, *entry)

    def tail(self, count: Optional[int] = None) -> List[FlightEvent]:
        """The most recent ``count`` events, oldest first (all if None)."""
        events = list(self)
        if count is None or count >= len(events):
            return events
        return events[len(events) - count:]

    def of_kind(self, *kinds: str) -> List[FlightEvent]:
        wanted = set(kinds)
        return [event for event in self if event.kind in wanted]

    def counts(self) -> Dict[str, int]:
        """Retained events per kind (what a bundle's metrics block shows)."""
        tally: Dict[str, int] = {}
        for kind, *_ in self._events:
            tally[kind] = tally.get(kind, 0) + 1
        return tally

    # -- tracer views ----------------------------------------------------------
    def transports(self, address_range: Optional[Tuple[int, int]] = None,
                   command: Optional[str] = None,
                   core: Optional[int] = None) -> List[FlightEvent]:
        """Retained ``transport`` entries within the inclusive
        ``address_range``, of ``command`` (``"read"``/``"write"``) and from
        initiator ``core``; ``None`` matches all."""
        def wanted(event: FlightEvent) -> bool:
            data = dict(event.data)
            return ((command is None or data["command"] == command)
                    and (core is None or event.core == core)
                    and (address_range is None
                         or address_range[0] <= data["address"] <= address_range[1]))

        return [event for event in self.of_kind("transport") if wanted(event)]

    def statistics(self) -> Dict[str, int]:
        """Access counts and byte volumes of the retained bus transports."""
        stats = {"reads": 0, "writes": 0, "bytes_read": 0, "bytes_written": 0,
                 "errors": 0}
        for event in self.transports():
            data = dict(event.data)
            if data["response"] != "ok":
                stats["errors"] += 1
            elif data["command"] == "read":
                stats["reads"] += 1
                stats["bytes_read"] += data["length"]
            elif data["command"] == "write":
                stats["writes"] += 1
                stats["bytes_written"] += data["length"]
        return stats

    def to_text(self, limit: Optional[int] = None) -> str:
        """The first ``limit`` retained transports, one line each."""
        lines = []
        for event in self.transports()[:limit]:
            data = dict(event.data)
            payload = data["data"] if len(data["data"]) <= 16 else data["data"][:16] + "..."
            lines.append(f"{event.t_ps:>14} ps  core {event.core:>2}  "
                         f"{data['command']:<5} 0x{data['address']:08x} "
                         f"len={data['length']} data={payload} "
                         f"{data['response']} (+{data['latency_ps']} ps)")
        return "\n".join(lines)

    def irq_vcd(self) -> str:
        """The retained ``irq`` edges as a VCD waveform document."""
        edges = sorted(((event.t_ps, dict(event.data))
                        for event in self.of_kind("irq")),
                       key=lambda edge: edge[0])
        codes: Dict[str, str] = {}
        for _t_ps, data in edges:
            codes.setdefault(data["line"], _vcd_code(len(codes)))
        lines = ["$timescale 1ps $end", "$scope module irqs $end"]
        lines += [f"$var wire 1 {code} {name.replace(' ', '_')} $end"
                  for name, code in codes.items()]
        lines += ["$upscope $end", "$enddefinitions $end", "#0"]
        lines += [f"0{code}" for code in codes.values()]
        last_ps = 0
        for t_ps, data in edges:
            if t_ps != last_ps:
                last_ps = t_ps
                lines.append(f"#{t_ps}")
            lines.append(f"{int(data['level'])}{codes[data['line']]}")
        return "\n".join(lines) + "\n"

    def write_jsonl(self, path: str, last: Optional[int] = None) -> int:
        """Dump the journal (or its last-N suffix) as JSONL; returns count."""
        events = self.tail(last)
        with open(path, "w") as stream:
            for event in events:
                stream.write(event.to_json())
                stream.write("\n")
        return len(events)


def _vcd_code(index: int) -> str:
    """The ``index``-th VCD identifier: base 94 over printable ASCII."""
    return chr(33 + index % 94) + (_vcd_code(index // 94 - 1) if index >= 94 else "")


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
