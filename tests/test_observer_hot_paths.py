"""The observers' per-event paths give what their slower forms gave.

Telemetry updates instruments it resolved once, the flight ring stores
pre-sorted tuples, the attribution fold adds each bill as it arrives and
obs builds a window snapshot only for a sink.  Each test here pins one of
those paths to the behaviour it replaced.
"""

import json
import os
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flight import Flight, enable_flight
from repro.flight.recorder import FlightRecorder
from repro.host.accounting import HostLedger
from repro.host.machine import MAIN_LANE, apple_m2_pro
from repro.obs.attribution import AttributionFold, phase_of
from repro.obs.stream import ObsStreamer, SubscriberSink
from repro.systemc.time import SimTime
from repro.telemetry.metrics import DEFAULT_BUCKETS, Counter, Histogram
from repro.vp import VpConfig, build_platform
from repro.vp.linux import LinuxBootParams, linux_boot_software


def scanned_bucket(bounds, value):
    """The bucket index the linear scan picked: the first bound >= value."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


def bucket_of(value, bounds=DEFAULT_BUCKETS):
    histogram = Histogram("h", (), buckets=bounds)
    histogram.observe(value)
    return histogram.bucket_counts.index(1)


class TestHistogramBuckets:
    @pytest.mark.parametrize("bound", [1, 2, 5, 10, 1_000, 5_000_000_000])
    def test_value_equal_to_a_bound_lands_in_that_bound(self, bound):
        assert bucket_of(bound) == DEFAULT_BUCKETS.index(bound)
        assert bucket_of(float(bound)) == DEFAULT_BUCKETS.index(bound)

    @pytest.mark.parametrize("value", [0, 0.0, 0.5, -1, -3.5])
    def test_value_below_the_first_bound_lands_in_the_first(self, value):
        assert bucket_of(value) == 0

    @pytest.mark.parametrize("value", [DEFAULT_BUCKETS[-1] + 1, 1e12,
                                       float("inf")])
    def test_value_above_the_last_bound_lands_in_inf(self, value):
        histogram = Histogram("h", ())
        histogram.observe(value)
        assert histogram.bucket_counts[-1] == 1
        assert histogram.to_json()["buckets"] == {"+inf": 1}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.integers(-10, 10**11),
                              st.floats(-1e3, 1e11, allow_nan=False)),
                    max_size=40),
           st.sampled_from([DEFAULT_BUCKETS, (0.1, 0.5, 1.0, 1.5, 2.0),
                            (-5, 0, 5)]))
    def test_buckets_and_extremes_match_the_linear_scan(self, values, bounds):
        histogram = Histogram("h", (), buckets=bounds)
        for value in values:
            histogram.observe(value)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            expected[scanned_bucket(bounds, value)] += 1
        assert histogram.bucket_counts == expected
        assert histogram.min == (min(values) if values else None)
        assert histogram.max == (max(values) if values else None)

    def test_extremes_keep_the_first_of_equal_values(self):
        # min()/max() kept the earlier of two equal values: 0.0 stays 0.0.
        histogram = Histogram("h", ())
        histogram.observe(0.0)
        histogram.observe(0)
        assert type(histogram.min) is float and type(histogram.max) is float


class TestCounter:
    def test_negative_increment_still_raises(self):
        counter = Counter("c", (("core", 0),))
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)
        assert counter.value == 0


class TestFlightRing:
    def test_dropped_tail_and_jsonl_follow_the_ring(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        for index in range(10):
            recorder.record("tick", t_ps=index, core=index % 2, n=index)
        assert recorder.num_recorded == 10
        assert recorder.num_dropped == 6
        tail = recorder.tail()
        assert [event.seq for event in tail] == [6, 7, 8, 9]
        assert [event.seq for event in recorder.tail(2)] == [8, 9]
        path = tmp_path / "journal.jsonl"
        assert recorder.write_jsonl(str(path)) == 4
        assert path.read_text().splitlines() == [e.to_json() for e in tail]

    def test_record_returns_the_stored_event(self):
        recorder = FlightRecorder(capacity=2)
        for index in range(3):
            event = recorder.record("tick", t_ps=index, b=1, a=2)
        assert event == recorder.tail()[-1]
        assert event.seq == 2 and event.data == (("a", 2), ("b", 1))

    def test_hot_probes_write_key_sorted_data(self):
        # Every literal data tuple in flight/attach.py must be what
        # record(**data) would have stored.
        software = linux_boot_software(2, LinuxBootParams().scaled(0.02))
        config = VpConfig(num_cores=2, quantum=SimTime.us(100), parallel=True,
                          wfi_annotations=True)
        vp = build_platform("aoa", config, software)
        flight = enable_flight(vp, capacity=100_000, bundles=False)
        vp.run(SimTime.ms(20))
        flight.detach()
        events = list(flight.recorder)
        kinds = {event.kind for event in events}
        assert {"kvm_exit", "mmio_req", "mmio_resp", "irq", "quantum_sync",
                "watchdog_arm", "watchdog_fire", "watchdog_kick",
                "wfi_suspend", "wfi_resume"} <= kinds
        cold = FlightRecorder(capacity=len(events))
        for event in events:
            cold.record(event.kind, event.t_ps, event.host_ns, event.core,
                        **dict(event.data))
        assert list(cold) == events


class TestSymbolizer:
    def test_caches_each_pc_once(self):
        calls = []

        def symbol_at(address):
            calls.append(address)
            return "main" if address == 0x10 else None

        image = SimpleNamespace(symbol_at=symbol_at)
        vp = SimpleNamespace(software=SimpleNamespace(image=image,
                                                      load_offset=0x1000))
        symbolize = Flight._symbolizer(vp)
        for _ in range(3):
            assert symbolize(0x1010) == "main"
            assert symbolize(0x1020) == "0x1020"
            assert symbolize(0x1020, fallback=False) is None
        assert calls == [0x10, 0x20]


class TestCrashDirEnv:
    def test_existing_file_is_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "bundles"
        path.write_text("not a directory")
        monkeypatch.setenv("REPRO_FLIGHT_CRASH_DIR", str(path))
        with pytest.raises(ValueError, match="REPRO_FLIGHT_CRASH_DIR"):
            Flight()

    def test_path_under_a_file_is_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "bundles"
        path.write_text("not a directory")
        monkeypatch.setenv("REPRO_FLIGHT_CRASH_DIR", str(path / "sub"))
        with pytest.raises(ValueError, match="REPRO_FLIGHT_CRASH_DIR"):
            Flight()

    def test_empty_value_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_CRASH_DIR", "")
        with pytest.raises(ValueError, match="REPRO_FLIGHT_CRASH_DIR"):
            Flight()

    def test_new_directory_is_accepted_and_not_created(self, tmp_path,
                                                       monkeypatch):
        path = tmp_path / "later" / "bundles"
        monkeypatch.setenv("REPRO_FLIGHT_CRASH_DIR", str(path))
        flight = Flight()
        assert flight.bundler.crash_dir == str(path)
        assert not os.path.exists(tmp_path / "later")

    def test_explicit_crash_dir_ignores_the_variable(self, tmp_path,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_FLIGHT_CRASH_DIR", "")
        assert Flight(crash_dir=str(tmp_path)).bundler.crash_dir == str(tmp_path)


def replayed_windows(ledger, bills):
    """Fold ``bills`` the way the fold did before it added as bills arrived:
    keep every bill, then sum each window's bills in billing order."""
    windows = {}
    for window, attr_lane, lane, nanoseconds, category in bills:
        windows.setdefault(window, []).append(
            (attr_lane, lane, nanoseconds, category))
    out = []
    for window, events in windows.items():
        actual, busy, phases = {}, {}, {}
        for attr_lane, lane, nanoseconds, category in events:
            actual[lane] = actual.get(lane, 0.0) + nanoseconds
            busy[attr_lane] = busy.get(attr_lane, 0.0) + nanoseconds
            lane_phases = phases.setdefault(attr_lane, {})
            phase = phase_of(category)
            lane_phases[phase] = lane_phases.get(phase, 0.0) + nanoseconds
        out.append((window, ledger.window_span_ns(actual), busy, phases))
    return out


BILLS = st.lists(st.tuples(
    st.integers(0, 3), st.sampled_from([MAIN_LANE, 0, 1]),
    st.one_of(st.floats(-1e6, 1e9, allow_nan=False), st.integers(0, 10**6),
              st.just(-0.0)),
    st.sampled_from(["guest", "mmio", "irq", "watchdog", "cpu", "other"])),
    max_size=60)


class TestFoldAddsAsBillsArrive:
    @settings(max_examples=150, deadline=None)
    @given(BILLS, st.booleans())
    def test_windows_are_bit_identical_to_a_replay(self, raw, parallel):
        ledger = HostLedger(SimTime.us(100), parallel, apple_m2_pro(), 2)
        fold = AttributionFold(ledger)
        bills = []
        for window, attr_lane, nanoseconds, category in raw:
            main_thread = attr_lane == MAIN_LANE
            lane = attr_lane if parallel and not main_thread else MAIN_LANE
            fold.bill(SimpleNamespace(core_id=attr_lane), window, lane,
                      nanoseconds, category, main_thread)
            bills.append((window, attr_lane, lane, nanoseconds, category))
        got = [(r.window, r.wall_ns, r.busy_ns, r.phases)
               for r in fold.finalize()]
        # repr() compares floats bit for bit, -0.0 and int-vs-float included.
        assert repr(got) == repr(replayed_windows(ledger, bills))

    def test_open_records_do_not_alias_the_live_totals(self):
        ledger = HostLedger(SimTime.us(100), True, apple_m2_pro(), 2)
        fold = AttributionFold(ledger)
        core0 = SimpleNamespace(core_id=0)
        fold.bill(core0, 0, 0, 10.0, "guest", False)
        before = fold.records(include_open=True)
        snapshot = repr(before)
        fold.bill(core0, 0, 0, 5.0, "guest", False)
        fold.bill(core0, 0, 0, 1.0, "mmio", False)
        assert repr(before) == snapshot
        (record,) = fold.records(include_open=True)
        assert record.busy_ns == {0: 16.0}
        assert record.phases == {0: {"guest": 15.0, "mmio": 1.0}}
        assert fold.records() == []

    def test_bill_for_a_finalized_window_is_late(self):
        ledger = HostLedger(SimTime.us(100), False, apple_m2_pro(), 1)
        fold = AttributionFold(ledger)
        core0 = SimpleNamespace(core_id=0)
        fold.bill(core0, 3, MAIN_LANE, 1.0, "guest", False)
        fold.finalize()
        fold.bill(core0, 2, MAIN_LANE, 1.0, "guest", False)
        fold.record_dispatch(3)
        assert fold.late_events == 1
        assert not fold._events and not fold._dispatches


class TestLazySnapshots:
    @pytest.mark.parametrize("sinks, every, cap", [
        (False, 1, None), (True, 1, None), (True, 3, None), (True, 1, 2),
        (False, 2, 1)])
    def test_builder_runs_only_for_a_sink_and_counts_match(self, sinks, every,
                                                           cap):
        def streamer():
            seen = []
            made = ObsStreamer([SubscriberSink(seen.append)] if sinks else [],
                               every=every, max_snapshots=cap)
            return made, seen

        eager, eager_seen = streamer()
        lazy, lazy_seen = streamer()
        built = []

        def build(window):
            built.append(window)
            return {"window": window}

        for window in range(7):
            eager.offer({"window": window})
            lazy.offer(lambda window=window: build(window))
        eager.offer({"final": True}, force=True)
        lazy.offer({"final": True}, force=True)
        assert lazy.stats() == eager.stats()
        assert json.dumps(lazy_seen) == json.dumps(eager_seen)
        assert built == [s["window"] for s in lazy_seen if "window" in s]
