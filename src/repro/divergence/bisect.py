"""Digest-tree bisection between two :class:`~repro.divergence.RunLedger`.

Comparing two megabyte dispatch traces entry by entry is O(entries); the
ledger's window sequence admits a binary digest tree instead.  Leaves are
the per-window stream digests (in sequence order), an inner node hashes
its children, and two runs of the same scenario produce identical trees
iff they produced identical streams.  :func:`bisect` descends the two
trees in lockstep — at each level it compares one pair of child digests
and recurses into the first subtree that differs — reaching the first
divergent window in O(log windows) digest comparisons.  Inside that
window, the per-lane digests name the first diverging lane.

Two boundary cases are reported explicitly rather than guessed at:

* the runs sealed different numbers of windows — the shorter sequence is
  padded with empty sentinels, so the first extra window *is* the first
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

import hashlib
from typing import List, Optional, Tuple

from ..telemetry import scope_registry
from .ledger import EMPTY_DIGEST, LaneDigest, RunLedger, WindowRecord


class DivergencePoint:
    """The first divergent (window, lane) between two ledgers."""

    __slots__ = ("position", "window", "lane", "lane_a", "lane_b",
                 "record_a", "record_b", "reason")

    def __init__(self, position: int, window: Optional[int],
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

        where = (f"window {self.window}" if self.window is not None
                 else f"window position {self.position}")
        lines = [f"first divergence in {where}"
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
                 "point", "comparisons", "windows_a", "windows_b")

    def __init__(self, identical: bool, root_a: str, root_b: str,
                 window_ps: int, point: Optional[DivergencePoint],
                 comparisons: int, windows_a: int, windows_b: int):
        self.identical = identical
        self.root_a = root_a
        self.root_b = root_b
        self.window_ps = window_ps
        self.point = point
        self.comparisons = comparisons
        self.windows_a = windows_a
        self.windows_b = windows_b

    def describe(self) -> str:
        if self.identical:
            return (f"ledgers identical: root {self.root_a[:16]}…, "
                    f"{self.windows_a} windows")
        lines = [f"root digests differ: {self.root_a[:16]}… vs "
                 f"{self.root_b[:16]}… "
                 f"({self.comparisons} tree comparisons)"]
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
            "comparisons": self.comparisons,
            "point": self.point.to_json() if self.point is not None else None,
        }


class DigestTree:
    """Flat-array binary hash tree over a window-digest sequence."""

    def __init__(self, leaves: List[str]):
        size = 1
        while size < max(1, len(leaves)):
            size *= 2
        self.num_leaves = size
        # levels[0] is the leaf row (padded), levels[-1] is [root]
        padded = list(leaves) + [EMPTY_DIGEST] * (size - len(leaves))
        self.levels: List[List[str]] = [padded]
        row = padded
        while len(row) > 1:
            row = [self._combine(row[i], row[i + 1])
                   for i in range(0, len(row), 2)]
            self.levels.append(row)

    @staticmethod
    def _combine(left: str, right: str) -> str:
        return hashlib.sha256(f"{left}|{right}".encode()).hexdigest()

    @property
    def root(self) -> str:
        return self.levels[-1][0]


def _descend(tree_a: DigestTree, tree_b: DigestTree) -> Tuple[int, int]:
    """Walk both trees to the first differing leaf.

    Returns ``(leaf index, digest comparisons made)``; the roots are known
    to differ when this is called, so a differing leaf always exists.
    """
    comparisons = 0
    index = 0
    for level in range(len(tree_a.levels) - 1, 0, -1):
        left = 2 * index
        comparisons += 1
        if tree_a.levels[level - 1][left] != tree_b.levels[level - 1][left]:
            index = left
        else:
            index = left + 1
    return index, comparisons


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
    window sizes — their trees are not comparable.
    """
    if ledger_a.window_ps != ledger_b.window_ps:
        raise ValueError(
            f"ledger window sizes differ ({ledger_a.window_ps}ps vs "
            f"{ledger_b.window_ps}ps); re-capture with a common window")
    identical = ledger_a.root_digest == ledger_b.root_digest
    point = None
    comparisons = 1                     # the root-digest comparison
    if not identical:
        leaves_a = ledger_a.window_digests()
        leaves_b = ledger_b.window_digests()
        width = max(len(leaves_a), len(leaves_b))
        tree_a = DigestTree(leaves_a + [EMPTY_DIGEST] * (width - len(leaves_a)))
        tree_b = DigestTree(leaves_b + [EMPTY_DIGEST] * (width - len(leaves_b)))
        comparisons += 1
        if tree_a.root != tree_b.root:
            position, walked = _descend(tree_a, tree_b)
            comparisons += walked
            record_a = ledger_a.record_at(position)
            record_b = ledger_b.record_at(position)
            window = (record_a.window if record_a is not None
                      else record_b.window if record_b is not None else None)
            lane, lane_a, lane_b, reason = _first_divergent_lane(
                record_a, record_b)
            point = DivergencePoint(position, window, lane, lane_a, lane_b,
                                    record_a, record_b, reason)
        else:
            # Root (full-stream) digests differ while every window stream
            # digest matches: divergence at a window boundary seam (can
            # only happen across a seal the two runs placed differently).
            point = DivergencePoint(
                position=min(len(leaves_a), len(leaves_b)), window=None,
                lane=None, lane_a=None, lane_b=None,
                record_a=None, record_b=None,
                reason="window digests all match but root digests differ; "
                       "the runs sealed windows at different boundaries")
    comparison = LedgerComparison(
        identical=identical,
        root_a=ledger_a.root_digest, root_b=ledger_b.root_digest,
        window_ps=ledger_a.window_ps, point=point, comparisons=comparisons,
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
