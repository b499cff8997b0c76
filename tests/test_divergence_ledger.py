"""Window-ledger tests: DET001 digest equality, window folding, lane
attribution, serialization, telemetry, and digest neutrality."""

from __future__ import annotations

import pytest

from repro.analysis.determinism import trace_run
from repro.divergence import (
    LEDGER_FORMAT,
    RunLedger,
    WindowLedger,
    capture_ledger,
)
from repro.divergence.ledger import lane_of_dispatch
from repro.host.machine import MAIN_LANE
from repro.systemc.kernel import DEFAULT_WINDOW, Kernel
from repro.systemc.probes import ProbeBus
from repro.systemc.time import SimTime
from repro.telemetry.metrics import MetricsRegistry

WINDOW = SimTime.us(100)

_HEADER = (f'"format": "{LEDGER_FORMAT}", "window_ps": 100000000, '
           f'"root_digest": "00", "entries": 1')

#: Ledger files that parse as JSON but are not ledgers.
HOSTILE_LEDGERS = {
    "top_level_list": "[1, 2]",
    "top_level_string": '"ledger"',
    "top_level_null": "null",
    "missing_windows": "{%s}" % _HEADER,
    "missing_root_digest": '{"format": "%s", "window_ps": 1, "entries": 0, '
                           '"windows": []}' % LEDGER_FORMAT,
    "window_is_int": '{%s, "windows": [5]}' % _HEADER,
    "windows_is_int": '{%s, "windows": 5}' % _HEADER,
    "window_missing_lanes": '{%s, "windows": [{"window": 0, "digest": "00", '
                            '"entries": 1}]}' % _HEADER,
    "lanes_is_list": '{%s, "windows": [{"window": 0, "digest": "00", '
                     '"entries": 1, "lanes": []}]}' % _HEADER,
    "lane_is_int": '{%s, "windows": [{"window": 0, "digest": "00", '
                   '"entries": 1, "lanes": {"0": 7}}]}' % _HEADER,
}


def truncation_lengths(size):
    """Cut points that leave a saved ledger's JSON unterminated."""
    return [0, 1, size // 4, size // 2, size - 3]


def two_core_sim(steps=50, period_us=10):
    """Fresh scenario: a main loop plus two core-named lanes."""
    kernel = Kernel()

    def loop(count, period):
        def body():
            for _ in range(count):
                yield SimTime.us(period)
        return body

    kernel.spawn(loop(steps, period_us), "main_loop")
    kernel.spawn(loop(steps, period_us), "vp.cpu0.core0")
    kernel.spawn(loop(steps, period_us), "vp.cpu1.core1")
    kernel.run()


class TestFolding:
    def test_root_digest_equals_det001_digest(self):
        ledger = capture_ledger(two_core_sim, window=DEFAULT_WINDOW)
        trace = trace_run(two_core_sim)
        assert ledger.root_digest == trace.digest()
        assert ledger.entries == len(trace.entries)

    def test_multi_window_root_digest_equals_det001_digest(self):
        # 35 steps of 100us span 3.5 ms: four default windows, so the root
        # chains several window digests on both sides.
        def action():
            two_core_sim(steps=35, period_us=100)

        ledger = capture_ledger(action, window=DEFAULT_WINDOW)
        trace = trace_run(action)
        assert len(ledger.windows) >= 3
        assert ledger.root_digest == trace.digest()

    def test_open_window_is_in_the_root_but_stays_open(self):
        ledger = WindowLedger(WINDOW).attach()
        try:
            two_core_sim(steps=15)
            live = ledger.ledger()
            root = ledger.root_digest
        finally:
            run = ledger.detach()
        assert live.root_digest == root == run.root_digest
        assert live.window_digests() == run.window_digests()

    def test_window_geometry(self):
        # 50 steps of 10us under a 100us window: windows 0..5 (the final
        # dispatches land at t=500us exactly).
        ledger = capture_ledger(two_core_sim, window=WINDOW)
        assert [record.window for record in ledger.windows] == [0, 1, 2, 3, 4, 5]
        assert sum(record.entries for record in ledger.windows) == ledger.entries

    def test_lane_attribution(self):
        ledger = capture_ledger(two_core_sim, window=WINDOW)
        first = ledger.windows[0]
        assert sorted(first.lanes) == [MAIN_LANE, 0, 1]
        core0 = first.lanes[0]
        assert core0.entries > 0
        assert core0.first_seq <= core0.last_seq
        # every dispatch in the window is attributed to exactly one lane
        assert sum(entry.entries for entry in first.lanes.values()) == first.entries

    @pytest.mark.parametrize("name, lane", [
        ("aoa.cpu0.core0", 0),
        ("aoa.cpu1.core1", 1),
        ("core12", 12),
        ("aoa.score1", MAIN_LANE),
        ("aoa.core1.irq", MAIN_LANE),
        ("aoa.timer", MAIN_LANE),
    ])
    def test_lane_of_dispatch(self, name, lane):
        assert lane_of_dispatch(name) == lane

    def test_per_window_digests_are_deterministic(self):
        first = capture_ledger(two_core_sim, window=WINDOW)
        second = capture_ledger(two_core_sim, window=WINDOW)
        assert first.root_digest == second.root_digest
        assert first.window_digests() == second.window_digests()

    def test_multi_kernel_capture_tolerates_time_restart(self):
        # A harness action that runs two platforms back to back restarts
        # simulation time at zero; the fold must seal on the window change
        # rather than assume monotonic window ids.
        def action():
            two_core_sim(steps=15)      # windows 0 and 1
            two_core_sim(steps=15)      # windows 0 and 1 again

        ledger = capture_ledger(action, window=WINDOW)
        assert [record.window for record in ledger.windows] == [0, 1, 0, 1]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowLedger(0)
        with pytest.raises(ValueError):
            WindowLedger(SimTime.zero())

    def test_double_attach_refused(self):
        ledger = WindowLedger(WINDOW)
        ledger.attach()
        try:
            with pytest.raises(RuntimeError):
                ledger.attach()
        finally:
            ledger.detach()

    def test_context_manager_detaches_on_error(self):
        with pytest.raises(ZeroDivisionError):
            with WindowLedger(WINDOW):
                1 // 0
        assert ProbeBus().dispatch is None


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ledger = capture_ledger(two_core_sim, window=WINDOW,
                                meta={"leg": "fabric"})
        path = tmp_path / "run.ledger.json"
        ledger.save(str(path))
        loaded = RunLedger.load(str(path))
        assert loaded.root_digest == ledger.root_digest
        assert loaded.window_ps == ledger.window_ps
        assert loaded.entries == ledger.entries
        assert loaded.meta == {"leg": "fabric"}
        assert loaded.window_digests() == ledger.window_digests()
        assert [record.lanes for record in loaded.windows] == \
            [record.lanes for record in ledger.windows]

    def test_format_tag_enforced(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something/else"}')
        with pytest.raises(ValueError, match=LEDGER_FORMAT):
            RunLedger.load(str(path))

    @pytest.mark.parametrize("name", sorted(HOSTILE_LEDGERS))
    def test_hostile_document_raises_value_error(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(HOSTILE_LEDGERS[name])
        with pytest.raises(ValueError, match="not a divergence ledger"):
            RunLedger.load(str(path))

    def test_flipped_window_digest_raises_value_error(self):
        # The root chains the window digests, so a ledger file checks
        # its own root on load.
        ledger = capture_ledger(two_core_sim, window=WINDOW)
        doc = ledger.to_json()
        doc["windows"][2]["digest"] = "0" * 64
        with pytest.raises(ValueError, match="not a divergence ledger"):
            RunLedger.from_json(doc)

    def test_truncated_file_raises_value_error(self, tmp_path):
        ledger = capture_ledger(two_core_sim, window=WINDOW)
        path = tmp_path / "run.ledger.json"
        ledger.save(str(path))
        text = path.read_text()
        for length in truncation_lengths(len(text)):
            path.write_text(text[:length])
            with pytest.raises(ValueError):
                RunLedger.load(str(path))


class TestTelemetry:
    def test_counters_flushed_on_detach(self):
        registry = MetricsRegistry()
        ledger = capture_ledger(two_core_sim, window=WINDOW, registry=registry)
        assert registry.counter("divergence.ledger.entries").value == ledger.entries
        # detach seals the final open window, so every window is counted
        assert registry.counter("divergence.ledger.windows").value == \
            len(ledger.windows)


class TestDigestNeutrality:
    """DET001 digests must not move when a ledger observes the same run."""

    def test_det001_unchanged_ledger_attached_first(self):
        baseline = trace_run(two_core_sim).digest()
        ledger = WindowLedger(DEFAULT_WINDOW).attach()
        try:
            observed = trace_run(two_core_sim).digest()
        finally:
            run = ledger.detach()
        assert observed == baseline
        assert run.root_digest == baseline

    def test_det001_unchanged_ledger_attached_second(self):
        baseline = trace_run(two_core_sim).digest()

        captured = {}

        def action():
            ledger = WindowLedger(DEFAULT_WINDOW).attach()
            try:
                two_core_sim()
            finally:
                captured["run"] = ledger.detach()

        observed = trace_run(action).digest()
        assert observed == baseline
        assert captured["run"].root_digest == baseline

    def test_hooks_fully_removed_after_capture(self):
        capture_ledger(two_core_sim, window=WINDOW)
        assert ProbeBus().dispatch is None
        assert ProbeBus().subscribers("dispatch") == ()
