"""Span capture on the modeled host-time axis.

The paper's figures are host wall-clock numbers, so the interesting
timeline for a run is *modeled host time*, not Python runtime and not
simulated time: where did each lane (the SystemC main thread, each
parallel worker) spend its nanoseconds, and how do the lanes overlap?

:class:`HostTimeline` derives exactly that from the existing
:class:`repro.host.accounting.HostLedger`: it observes every billing event
(window, lane, nanoseconds, category) and lays the events out as spans —

* **sequential** mode: one shared cursor per quantum window; every billed
  slice lands after the previous one, so span durations *sum* to the
  ledger's window fold;
* **parallel** mode: one cursor per lane, all starting at the window's
  fold offset, so lanes overlap and the window's extent is the *max* lane;

plus one synthetic ``overhead`` span per window covering the dispatch/join
and kernel-per-window costs the fold adds on top of the billed work.  By
construction the laid-out timeline ends exactly at
``HostLedger.wall_time_ns()``.

:class:`SpanRecorder` is the generic begin/end recorder used for spans that
live on *simulated* time instead (WFI suspend→resume pairs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


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


class HostTimeline:
    """Lays HostLedger billing events out as an overlap-aware timeline."""

    def __init__(self, ledger):
        self.ledger = ledger
        #: window -> ordered list of (lane, nanoseconds, category)
        self._events: Dict[int, List[Tuple[int, float, str]]] = {}

    # -- recording ----------------------------------------------------------
    def record(self, window: int, lane: int, nanoseconds: float,
               category: str) -> None:
        """One billing event, in billing order (fed from ``host_bill``)."""
        self._events.setdefault(window, []).append((lane, nanoseconds, category))

    # -- layout ---------------------------------------------------------------
    @staticmethod
    def lane_track(lane: int) -> str:
        from ..host.machine import MAIN_LANE
        return "main" if lane == MAIN_LANE else f"core{lane}"

    def layout(self) -> List[Span]:
        """Place every billed slice on the host-time axis.

        Windows are folded in ascending window order with the ledger's own
        per-window arithmetic, so the returned spans tile the interval
        ``[0, ledger.wall_time_ns()]`` without gaps.
        """
        spans: List[Span] = []
        cursor = 0.0
        for window in sorted(self._events):
            events = self._events[window]
            lane_totals: Dict[int, float] = {}
            for lane, nanoseconds, _category in events:
                lane_totals[lane] = lane_totals.get(lane, 0.0) + nanoseconds
            window_span = self.ledger.window_span_ns(lane_totals)
            if self.ledger.parallel:
                lane_cursor = {lane: cursor for lane in lane_totals}
                for lane, nanoseconds, category in events:
                    spans.append(Span(self.lane_track(lane), category,
                                      lane_cursor[lane], nanoseconds,
                                      {"window": window}))
                    lane_cursor[lane] += nanoseconds
                busy = max(lane_totals.values()) if lane_totals else 0.0
            else:
                shared = cursor
                for lane, nanoseconds, category in events:
                    spans.append(Span(self.lane_track(lane), category,
                                      shared, nanoseconds, {"window": window}))
                    shared += nanoseconds
                busy = shared - cursor
            overhead = window_span - busy
            if overhead > 0:
                spans.append(Span("main", "overhead", cursor + busy, overhead,
                                  {"window": window}))
            cursor += window_span
        return spans

    def total_ns(self) -> float:
        """Extent of the laid-out timeline (== ledger fold by construction)."""
        spans = self.layout()
        return max((span.end for span in spans), default=0.0)

    def lane_totals_ns(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in self.layout():
            totals[span.track] = totals.get(span.track, 0.0) + span.duration
        return totals

    def window_count(self) -> int:
        return len(self._events)

    def window_events(self) -> Dict[int, List[Tuple[int, float, str]]]:
        """Per-window billing events in arrival order (read-only copy)."""
        return {window: list(events) for window, events in self._events.items()}

    # -- derived views (Perfetto enrichment) ---------------------------------
    def window_table(self) -> List[Tuple[int, float, float, Dict[str, float]]]:
        """Per-window ``(window, start_ns, span_ns, {track: busy_ns})``.

        Windows in ascending order with the same fold as :meth:`layout`, so
        start offsets line up with the laid-out spans.  This is what the
        Chrome-trace exporter turns into per-lane utilization counter
        tracks.
        """
        table = []
        cursor = 0.0
        for window in sorted(self._events):
            lane_totals: Dict[int, float] = {}
            for lane, nanoseconds, _category in self._events[window]:
                lane_totals[lane] = lane_totals.get(lane, 0.0) + nanoseconds
            span = self.ledger.window_span_ns(lane_totals)
            busy = {self.lane_track(lane): total
                    for lane, total in lane_totals.items()}
            table.append((window, cursor, span, busy))
            cursor += span
        return table

    def mmio_flows(self) -> List[Tuple[int, str, float, str, float]]:
        """Cross-lane MMIO request→completion pairs, for flow arrows.

        In parallel mode an MMIO access starts on the issuing core's lane
        (the round-trip slice) and completes on the main lane (the
        peripheral access, billed ``main_thread=True``); this pairs each
        worker-lane ``mmio`` slice with the next main-lane ``mmio`` slice
        of the same window, in order.  Returns ``(window, source_track,
        source_begin_ns, destination_track, destination_begin_ns)`` on the
        laid-out host-time axis.  Sequential mode has a single lane — no
        cross-lane hop, so no flows.
        """
        if not self.ledger.parallel:
            return []
        flows = []
        cursor = 0.0
        for window in sorted(self._events):
            events = self._events[window]
            lane_totals: Dict[int, float] = {}
            lane_cursor: Dict[int, float] = {}
            pending: List[Tuple[int, float]] = []   # (lane, begin) of requests
            for lane, nanoseconds, category in events:
                begin = lane_cursor.setdefault(lane, cursor)
                if category == "mmio":
                    from ..host.machine import MAIN_LANE
                    if lane == MAIN_LANE:
                        if pending:
                            src_lane, src_begin = pending.pop(0)
                            flows.append((window, self.lane_track(src_lane),
                                          src_begin, self.lane_track(lane),
                                          begin))
                    else:
                        pending.append((lane, begin))
                lane_cursor[lane] = begin + nanoseconds
                lane_totals[lane] = lane_totals.get(lane, 0.0) + nanoseconds
            cursor += self.ledger.window_span_ns(lane_totals)
        return flows
