"""Bisection tests: exact (window, lane) localization and the explicit
boundary cases."""

from __future__ import annotations

import pytest

from repro.divergence import (
    LaneDigest,
    RunLedger,
    WindowRecord,
    bisect,
    capture_ledger,
)
from repro.systemc.kernel import Kernel
from repro.systemc.time import SimTime
from repro.telemetry.metrics import MetricsRegistry

WINDOW = SimTime.us(100)


def seeded_sim(glitch_at=None, steps=50):
    """Two-core scenario; ``glitch_at`` injects one extra core1 event at
    iteration ``glitch_at`` — a seeded, exactly-localizable divergence."""
    kernel = Kernel()

    def core(extra_at):
        def body():
            for i in range(steps):
                if extra_at is not None and i == extra_at:
                    yield SimTime.ns(1)
                yield SimTime.us(10)
        return body

    kernel.spawn(core(None), "vp.cpu0.core0")
    kernel.spawn(core(glitch_at), "vp.cpu1.core1")
    kernel.run()


class TestBisect:
    def test_identical_ledgers(self):
        first = capture_ledger(seeded_sim, window=WINDOW)
        second = capture_ledger(seeded_sim, window=WINDOW)
        comparison = bisect(first, second)
        assert comparison.identical
        assert comparison.point is None

    def test_seeded_divergence_localized_to_exact_window_and_lane(self):
        # The glitch at iteration 25 lands at t=250us: window 2 under a
        # 100us window, on lane 1 (core1).
        clean = capture_ledger(lambda: seeded_sim(None), window=WINDOW)
        glitched = capture_ledger(lambda: seeded_sim(25), window=WINDOW)
        comparison = bisect(clean, glitched)
        assert not comparison.identical
        point = comparison.point
        assert point.window == 2
        assert point.lane == 1
        assert point.lane_a.digest != point.lane_b.digest
        assert "lane sub-streams differ" in point.reason
        assert "window 2, lane 1" in comparison.describe()

    def test_length_mismatch_names_first_extra_window(self):
        longer = capture_ledger(lambda: seeded_sim(None, steps=50),
                                window=WINDOW)
        shorter = capture_ledger(lambda: seeded_sim(None, steps=49),
                                 window=WINDOW)
        comparison = bisect(longer, shorter)
        assert not comparison.identical
        point = comparison.point
        assert point.position == comparison.windows_b
        assert "only in run A" in point.reason

    def test_window_size_mismatch_rejected(self):
        coarse = capture_ledger(seeded_sim, window=SimTime.us(100))
        fine = capture_ledger(seeded_sim, window=SimTime.us(50))
        with pytest.raises(ValueError, match="window sizes differ"):
            bisect(coarse, fine)

    def test_telemetry_counters(self):
        registry = MetricsRegistry()
        clean = capture_ledger(lambda: seeded_sim(None), window=WINDOW)
        glitched = capture_ledger(lambda: seeded_sim(25), window=WINDOW)
        bisect(clean, clean, registry=registry)
        bisect(clean, glitched, registry=registry)
        assert registry.counter("divergence.compares").value == 2
        assert registry.counter("divergence.mismatches").value == 1

    def test_json_round_trip_survives_comparison(self, tmp_path):
        # compare must work on *loaded* ledgers (the offline flow)
        clean = capture_ledger(lambda: seeded_sim(None), window=WINDOW)
        glitched = capture_ledger(lambda: seeded_sim(25), window=WINDOW)
        clean.save(str(tmp_path / "a.json"))
        glitched.save(str(tmp_path / "b.json"))
        comparison = bisect(RunLedger.load(str(tmp_path / "a.json")),
                            RunLedger.load(str(tmp_path / "b.json")))
        assert comparison.point.window == 2
        assert comparison.point.lane == 1


def _window(window, digest, lanes):
    return WindowRecord(window, digest, sum(l.entries for l in lanes.values()),
                        lanes)


def _lane(digest, entries=1, first=0, last=0):
    return LaneDigest(digest, entries, first, last)


class TestMergeOrderDivergence:
    def test_lane_match_interleave_differs_reports_lane_none(self):
        # Synthetic ledgers: identical per-lane sub-streams, different
        # interleave-sensitive window stream digests — the merge-order
        # divergence class a parallel quantum can introduce.
        lanes = {0: _lane("aaa"), 1: _lane("bbb")}
        first = RunLedger(100, [_window(0, "stream-one", lanes)],
                          "root-one", 2)
        second = RunLedger(100, [_window(0, "stream-two", dict(lanes))],
                           "root-two", 2)
        comparison = bisect(first, second)
        point = comparison.point
        assert point.window == 0
        assert point.lane is None
        assert "merge-order divergence" in point.reason

    def test_lane_only_present_in_one_run(self):
        first = RunLedger(100, [_window(0, "s1", {0: _lane("aaa")})], "r1", 1)
        second = RunLedger(
            100, [_window(0, "s2", {0: _lane("aaa"), 1: _lane("bbb")})],
            "r2", 2)
        point = bisect(first, second).point
        assert point.lane == 1
        assert "only in run B" in point.reason
