"""Zoom re-runs: event-level capture scoped to one divergent window.

The ledger localizes a divergence to a (window, lane) at O(windows)
memory; this module recovers the *event-level* story without ever holding
a full trace.  :func:`zoom_run` replays a scenario with a DIGEST-tier
hook that keeps only the dispatches whose kernel timestamp falls in the
target window (everything else just advances a sequence counter), and
:func:`first_divergence` — the DET001 diff — lines two captures'
entries up to the first differing one, so the report reads exactly like
a determinism finding, but scoped.

:func:`localize_divergence` is the whole pipeline for in-process A/B
comparisons (cold vs snapshot-resumed, serial vs parallel kernel):
capture both ledgers, bisect, zoom re-run both sides, diff, and
optionally package everything as a divergence bundle
(:mod:`repro.divergence.bundle`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from ..systemc.kernel import DEFAULT_WINDOW, Kernel, TraceEntry
from .bisect import LedgerComparison, bisect
from .ledger import RunLedger, capture_ledger


@dataclass
class Divergence:
    """Where two traces first disagree."""

    index: int
    first: Optional[TraceEntry]     # None when one trace is a prefix of the other
    second: Optional[TraceEntry]
    context: List[Tuple[Optional[TraceEntry], Optional[TraceEntry]]] = field(
        default_factory=list)

    def describe(self) -> str:
        def show(entry: Optional[TraceEntry]) -> str:
            if entry is None:
                return "<end of trace>"
            kind, time_ps, name = entry
            return f"{kind} {name} @ {time_ps}ps"

        lines = [f"first divergence at dispatch #{self.index}:",
                 f"  run 1: {show(self.first)}",
                 f"  run 2: {show(self.second)}"]
        if self.context:
            lines.append("  preceding dispatches:")
            for left, right in self.context:
                lines.append(f"    {show(left)}")
        return "\n".join(lines)


def first_divergence(first: Sequence[TraceEntry],
                     second: Sequence[TraceEntry]) -> Optional[Divergence]:
    """Where two dispatch-entry lists first differ (``None`` if equal),
    with up to three preceding entry pairs as context."""
    limit = max(len(first), len(second))
    for index in range(limit):
        left = first[index] if index < len(first) else None
        right = second[index] if index < len(second) else None
        if left != right:
            lo = max(0, index - 3)
            context = [
                (first[i] if i < len(first) else None,
                 second[i] if i < len(second) else None)
                for i in range(lo, index)
            ]
            return Divergence(index=index, first=left, second=right, context=context)
    return None


class ZoomEntry(NamedTuple):
    """One retained dispatch: run-wide sequence number + the trace entry."""

    seq: int
    kind: str
    time_ps: int
    name: str

    @property
    def entry(self) -> TraceEntry:
        return (self.kind, self.time_ps, self.name)

    def to_json(self) -> dict:
        return {"seq": self.seq, "kind": self.kind,
                "t_ps": self.time_ps, "name": self.name}


class ZoomCapture:
    """Full event capture for one quantum window of one run."""

    def __init__(self, window: int, window_ps: int):
        self.window = window
        self.window_ps = window_ps
        self.entries: List[ZoomEntry] = []
        self.total_dispatches = 0       # across the whole run, all windows

    def record(self, kind: str, time_ps: int, name: str) -> None:
        if time_ps // self.window_ps == self.window:
            self.entries.append(
                ZoomEntry(self.total_dispatches, kind, time_ps, name))
        self.total_dispatches += 1

    def trace(self) -> List[TraceEntry]:
        """The captured dispatches as plain trace entries."""
        return [entry.entry for entry in self.entries]

    def __len__(self) -> int:
        return len(self.entries)


def zoom_run(action: Callable[[], object], window: int,
             window_ps: int) -> ZoomCapture:
    """Replay ``action`` capturing full events for ``window`` only.

    Memory is O(dispatches in the window), not O(run) — the point of
    bisecting first.  ``action`` must rebuild the same scenario that
    produced the ledger being zoomed into.
    """
    capture = ZoomCapture(window, window_ps)
    handle = Kernel.add_trace_hook(capture.record,
                                   Kernel.TRACE_PRIORITY_DIGEST)
    try:
        action()
    finally:
        Kernel.remove_trace_hook(handle)
    return capture


class DivergenceReport(NamedTuple):
    """Everything :func:`localize_divergence` learned about an A/B pair."""

    comparison: LedgerComparison
    ledger_a: RunLedger
    ledger_b: RunLedger
    zoom_a: Optional[ZoomCapture]
    zoom_b: Optional[ZoomCapture]
    event_diff: Optional[Divergence]
    bundle_path: Optional[str]

    @property
    def identical(self) -> bool:
        return self.comparison.identical

    def describe(self) -> str:
        lines = [self.comparison.describe()]
        if self.event_diff is not None:
            lines.append("zoom re-run event diff:")
            lines.append(self.event_diff.describe())
        if self.bundle_path is not None:
            lines.append(f"divergence bundle: {self.bundle_path}")
        return "\n".join(lines)


def localize_divergence(
    action_a: Callable[[], object], action_b: Callable[[], object],
    window=None, meta_a: Optional[dict] = None, meta_b: Optional[dict] = None,
    registry=None, bundle_dir: Optional[str] = None,
    labels: Tuple[str, str] = ("A", "B"),
) -> DivergenceReport:
    """Capture → bisect → zoom → (optionally) bundle, in one call.

    Runs each action once for its ledger; on divergence each action runs a
    *second* time for the zoom capture.  ``window`` defaults to
    :data:`~repro.systemc.kernel.DEFAULT_WINDOW`.
    """
    window = DEFAULT_WINDOW if window is None else window
    ledger_a = capture_ledger(action_a, window, meta=meta_a, registry=registry)
    ledger_b = capture_ledger(action_b, window, meta=meta_b, registry=registry)
    comparison = bisect(ledger_a, ledger_b, registry=registry)
    zoom_a = zoom_b = event_diff = bundle_path = None
    point = comparison.point
    if not comparison.identical and point is not None:
        zoom_a = zoom_run(action_a, point.window, ledger_a.window_ps)
        zoom_b = zoom_run(action_b, point.window, ledger_b.window_ps)
        # Returns None when the captures agree: the divergence then lives
        # in dispatch counts *outside* the window.  The index is relative
        # to the window; zoom_a.entries[index].seq is the run-wide one.
        event_diff = first_divergence(zoom_a.trace(), zoom_b.trace())
    if not comparison.identical and bundle_dir is not None:
        from .bundle import write_divergence_bundle
        bundle_path = write_divergence_bundle(
            bundle_dir, comparison, ledger_a, ledger_b, labels=labels,
            zoom_a=zoom_a, zoom_b=zoom_b, event_diff=event_diff)
    return DivergenceReport(comparison, ledger_a, ledger_b,
                            zoom_a, zoom_b, event_diff, bundle_path)
