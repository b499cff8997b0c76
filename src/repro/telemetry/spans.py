"""Span capture on the modeled host-time axis.

The paper's figures are host wall-clock numbers, so the interesting
timeline for a run is *modeled host time*, not Python runtime and not
simulated time: where did each lane (the SystemC main thread, each core)
spend its nanoseconds, and how do the lanes overlap?

:func:`lay_out` derives exactly that from the sealed window records
(:class:`~repro.obs.attribution.WindowRecord`) of the host-time
attribution fold — the one fold of the ``host_bill`` stream — as one span
per (window, attribution lane, billed phase):

* **sequential** mode: one shared cursor per quantum window; ``main``
  first, then the cores in order, each lane's work after the previous
  lane's, so span durations *sum* to the window's fold;
* **parallel** mode: one cursor per lane, all starting at the window's
  start, so lanes overlap and the window's extent is the *max* lane;

plus one synthetic ``overhead`` span per window on ``main`` covering the
dispatch/join and kernel-per-window costs the fold adds on top of the
billed work.  Window starts advance by each record's ``wall_ns`` in
finalize order, so the laid-out timeline ends exactly at
``HostLedger.wall_time_ns()``.

:class:`SpanRecorder` is the generic begin/end recorder used for spans that
live on *simulated* time instead (WFI suspend→resume pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Tuple

from ..obs.attribution import PHASES, WindowRecord, lane_name


@dataclass
class Span:
    """One closed interval on a named track."""

    track: str
    name: str
    begin: float
    duration: float
    args: Dict[str, object] = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.begin + self.duration


class SpanRecorder:
    """Begin/end span capture on caller-supplied time axes.

    The recorder never reads a clock: every ``begin``/``end`` call passes
    the timestamp explicitly (modeled host nanoseconds, simulated
    picoseconds — the recorder does not care, it only requires that ``end``
    is not before ``begin`` on the same track).
    """

    def __init__(self, unit: str = "ns"):
        self.unit = unit
        self.spans: List[Span] = []
        self._open: Dict[str, List[Tuple[str, float, Dict[str, object]]]] = {}

    def begin(self, track: str, name: str, timestamp: float, **args) -> None:
        self._open.setdefault(track, []).append((name, timestamp, args))

    def end(self, track: str, timestamp: float, **extra_args) -> Span:
        stack = self._open.get(track)
        if not stack:
            raise ValueError(f"no open span on track {track!r}")
        name, begin, args = stack.pop()
        if timestamp < begin:
            raise ValueError(
                f"span {name!r} on {track!r} ends at {timestamp} before its "
                f"begin {begin}")
        span = Span(track, name, begin, timestamp - begin, {**args, **extra_args})
        self.spans.append(span)
        return span

    def complete(self, track: str, name: str, begin: float, duration: float,
                 **args) -> Span:
        if duration < 0:
            raise ValueError(f"span {name!r} has negative duration {duration}")
        span = Span(track, name, begin, duration, args)
        self.spans.append(span)
        return span

    def open_count(self) -> int:
        return sum(len(stack) for stack in self._open.values())

    def tracks(self) -> List[str]:
        return sorted({span.track for span in self.spans})

    def __len__(self) -> int:
        return len(self.spans)


class HostLayout(NamedTuple):
    """Attribution windows laid out on the modeled host-time axis."""

    spans: List[Span]
    starts: List[float]             # host-time start of each record's window
    extent_ns: float                # Σ record.wall_ns, in finalize order


def lay_out(records: Sequence[WindowRecord], parallel: bool) -> HostLayout:
    """Place every window's billed phases on the host-time axis."""
    spans: List[Span] = []
    starts: List[float] = []
    cursor = 0.0
    for record in records:
        starts.append(cursor)
        args = {"window": record.window}
        shared = cursor
        for lane in sorted(record.phases):          # MAIN_LANE (-1) first
            begin = cursor if parallel else shared
            track = lane_name(lane)
            phases = record.phases[lane]
            for phase in PHASES:
                nanoseconds = phases.get(phase, 0.0)
                if nanoseconds > 0:
                    spans.append(Span(track, phase, begin, nanoseconds, args))
                    begin += nanoseconds
            shared = begin
        overhead = record.wall_ns - record.fold_busy_ns
        if overhead > 0:
            spans.append(Span("main", "overhead", cursor + record.fold_busy_ns,
                              overhead, args))
        cursor += record.wall_ns
    return HostLayout(spans, starts, cursor)
