"""Window-digest bisection between two :class:`~repro.divergence.RunLedger`.

Comparing two megabyte dispatch traces entry by entry is O(entries); a
ledger holds one stream digest per window instead.  Equal roots mean
equal runs: the root is a hash chain over the window digests, so two
roots differ exactly when the window-digest sequences differ.
:func:`bisect` then scans both sequences for the first position whose
digests differ: the first divergent window.  Inside that window, the
per-lane digests name the first diverging lane.

Two boundary cases are reported explicitly rather than guessed at:

* the runs sealed different numbers of windows and one sequence is a
  prefix of the other — the first extra window *is* the first
  divergence;
* every lane's sub-stream matches but the window's interleave-sensitive
  stream digest differs — the lanes did the same work in a different
  cross-lane order, exactly the class of divergence a parallel quantum
  merge can introduce; ``lane`` is ``None`` and the reason says so.

Telemetry: every comparison bumps ``divergence.compares`` and, when the
ledgers differ, ``divergence.mismatches`` (active registry or the one
passed in).
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

from ..telemetry import scope_registry
from .ledger import LaneDigest, RunLedger, WindowRecord


class DivergencePoint:
    """The first divergent (window, lane) between two ledgers."""

    __slots__ = ("position", "window", "lane", "lane_a", "lane_b",
                 "record_a", "record_b", "reason")

    def __init__(self, position: int, window: int,
                 lane: Optional[int],
                 lane_a: Optional[LaneDigest], lane_b: Optional[LaneDigest],
                 record_a: Optional[WindowRecord],
                 record_b: Optional[WindowRecord], reason: str):
        self.position = position        # index into the window sequence
        self.window = window            # window id at that position
        self.lane = lane                # first divergent lane (None: interleave)
        self.lane_a = lane_a
        self.lane_b = lane_b
        self.record_a = record_a
        self.record_b = record_b
        self.reason = reason

    def describe(self) -> str:
        def show(entry: Optional[LaneDigest]) -> str:
            if entry is None:
                return "<lane absent>"
            return (f"{entry.entries} dispatches "
                    f"(seq {entry.first_seq}..{entry.last_seq}, "
                    f"digest {entry.digest[:12]}…)")

        lines = [f"first divergence in window {self.window}"
                 + (f", lane {self.lane}" if self.lane is not None else "")
                 + f": {self.reason}"]
        if self.lane is not None:
            lines.append(f"  run A: {show(self.lane_a)}")
            lines.append(f"  run B: {show(self.lane_b)}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "position": self.position,
            "window": self.window,
            "lane": self.lane,
            "reason": self.reason,
            "lane_a": self.lane_a.to_json() if self.lane_a else None,
            "lane_b": self.lane_b.to_json() if self.lane_b else None,
        }


class LedgerComparison:
    """Outcome of :func:`bisect`: identical, or where they first differ."""

    __slots__ = ("identical", "root_a", "root_b", "window_ps",
                 "point", "windows_a", "windows_b")

    def __init__(self, identical: bool, root_a: str, root_b: str,
                 window_ps: int, point: Optional[DivergencePoint],
                 windows_a: int, windows_b: int):
        self.identical = identical
        self.root_a = root_a
        self.root_b = root_b
        self.window_ps = window_ps
        self.point = point
        self.windows_a = windows_a
        self.windows_b = windows_b

    def describe(self) -> str:
        if self.identical:
            return (f"ledgers identical: root {self.root_a[:16]}…, "
                    f"{self.windows_a} windows")
        lines = [f"root digests differ: {self.root_a[:16]}… vs "
                 f"{self.root_b[:16]}…"]
        if self.point is not None:
            lines.append(self.point.describe())
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "identical": self.identical,
            "root_a": self.root_a,
            "root_b": self.root_b,
            "window_ps": self.window_ps,
            "windows_a": self.windows_a,
            "windows_b": self.windows_b,
            "point": self.point.to_json() if self.point is not None else None,
        }


def _first_divergent_lane(
    record_a: Optional[WindowRecord], record_b: Optional[WindowRecord],
) -> Tuple[Optional[int], Optional[LaneDigest], Optional[LaneDigest], str]:
    if record_a is None or record_b is None:
        present = "A" if record_a is not None else "B"
        return None, None, None, (
            f"window present only in run {present} "
            f"(the runs sealed different window sequences)")
    lanes = sorted(set(record_a.lanes) | set(record_b.lanes))
    for lane in lanes:
        in_a = record_a.lanes.get(lane)
        in_b = record_b.lanes.get(lane)
        if in_a is None or in_b is None:
            present = "A" if in_a is not None else "B"
            return lane, in_a, in_b, f"lane active only in run {present}"
        if in_a.digest != in_b.digest:
            return lane, in_a, in_b, "lane sub-streams differ"
    return None, None, None, (
        "every lane's sub-stream matches but the cross-lane interleave "
        "within the window differs (merge-order divergence)")


def bisect(ledger_a: RunLedger, ledger_b: RunLedger,
           registry=None) -> LedgerComparison:
    """Compare two ledgers; localize the first divergent (window, lane).

    Raises :class:`ValueError` when the ledgers were folded with different
    window sizes — their window digests are not comparable.
    """
    if ledger_a.window_ps != ledger_b.window_ps:
        raise ValueError(
            f"ledger window sizes differ ({ledger_a.window_ps}ps vs "
            f"{ledger_b.window_ps}ps); re-capture with a common window")
    identical = ledger_a.root_digest == ledger_b.root_digest
    point = None
    if not identical:
        pairs = itertools.zip_longest(ledger_a.windows, ledger_b.windows)
        for position, (record_a, record_b) in enumerate(pairs):
            if record_a is None or record_b is None \
                    or record_a.digest != record_b.digest:
                lane, lane_a, lane_b, reason = _first_divergent_lane(
                    record_a, record_b)
                point = DivergencePoint(
                    position, (record_a or record_b).window, lane,
                    lane_a, lane_b, record_a, record_b, reason)
                break
    comparison = LedgerComparison(
        identical=identical,
        root_a=ledger_a.root_digest, root_b=ledger_b.root_digest,
        window_ps=ledger_a.window_ps, point=point,
        windows_a=len(ledger_a.windows), windows_b=len(ledger_b.windows))
    _count(registry, comparison)
    return comparison


def _count(registry, comparison: LedgerComparison) -> None:
    registry = scope_registry(registry)
    if registry is None:
        return
    registry.counter("divergence.compares").inc()
    if not comparison.identical:
        registry.counter("divergence.mismatches").inc()
