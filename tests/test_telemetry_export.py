"""Exporter tests: Chrome trace JSON, run report, metrics sidecar, VCD."""

import json

import pytest

from repro.arch.assembler import assemble
from repro.flight import enable_flight
from repro.host.machine import MAIN_LANE
from repro.obs.attribution import lane_name
from repro.systemc.time import SimTime
from repro.telemetry import (
    chrome_trace,
    enable_telemetry,
    metrics_json,
    run_report,
    write_metrics_json,
)
from repro.telemetry.spans import lay_out
from repro.vp import GuestSoftware, VpConfig, build_platform

from tests.test_telemetry_instrument import HEADER, HELLO, WFI_GUEST, make_vp


def traced_run(source=HELLO, **kwargs):
    max_ms = kwargs.pop("max_ms", 50)
    vp = make_vp(source=source, **kwargs)
    telemetry = enable_telemetry(vp)
    vp.run(SimTime.ms(max_ms))
    return vp, telemetry


def fold_records(telemetry):
    fold = telemetry.platforms[0].fold
    return fold.records(include_open=True)


class TestChromeTrace:
    def test_document_round_trips_and_events_are_well_formed(self):
        _, telemetry = traced_run()
        document = json.loads(json.dumps(chrome_trace(telemetry)))
        events = document["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "M", "C", "s", "f")
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            if event["ph"] == "X":
                assert event["ts"] >= 0
                assert event["dur"] >= 0
                assert event["cat"] in ("host", "sim")
            elif event["ph"] == "C":
                assert event["name"].startswith("util.")
                assert 0.0 <= event["args"]["utilization"] <= 1.0
            elif event["ph"] in ("s", "f"):
                assert event["cat"] == "mmio"
                assert "id" in event

    def test_one_thread_track_per_billed_host_lane(self):
        for parallel in (False, True):
            vp, telemetry = traced_run(cores=2, parallel=parallel)
            document = chrome_trace(telemetry)
            thread_names = [event["args"]["name"]
                            for event in document["traceEvents"]
                            if event["ph"] == "M"
                            and event["name"] == "thread_name"
                            and event["pid"] == 1]
            # Exactly the attribution lanes the fold billed, plus main
            # (which carries the per-window overhead); a parked secondary
            # core bills nothing and gets no track.  Sequential runs get
            # per-core tracks too.
            lanes = {lane for record in fold_records(telemetry)
                     for lane in record.busy_ns} | {MAIN_LANE}
            assert len(thread_names) == len(set(thread_names)) == len(lanes)
            assert "SystemC main thread" in thread_names
            assert "core0 worker" in thread_names

    def test_host_spans_total_matches_ledger(self):
        vp, telemetry = traced_run()
        document = chrome_trace(telemetry)
        host_spans = [event for event in document["traceEvents"]
                      if event["ph"] == "X" and event["cat"] == "host"]
        total_us = sum(event["dur"] for event in host_spans)
        assert total_us * 1e3 == pytest.approx(vp.ledger.wall_time_ns(),
                                               rel=1e-9)
        # One span per (window, lane, phase), never two.
        keys = [(event["args"]["window"], event["tid"], event["name"])
                for event in host_spans]
        assert len(keys) == len(set(keys))

    def test_sim_process_has_wfi_spans(self):
        _, telemetry = traced_run(source=WFI_GUEST, annotations=True)
        document = chrome_trace(telemetry)
        sim_spans = [event for event in document["traceEvents"]
                     if event["ph"] == "X" and event["cat"] == "sim"]
        assert sim_spans
        assert all(event["name"] == "wfi_suspend" for event in sim_spans)

    def test_utilization_counter_tracks_per_window(self):
        vp, telemetry = traced_run()
        records = fold_records(telemetry)
        assert records
        layout = lay_out(records, vp.ledger.parallel)
        document = chrome_trace(telemetry)
        counters = [event for event in document["traceEvents"]
                    if event["ph"] == "C"]
        tracks = {event["name"] for event in counters}
        assert tracks == {f"util.{lane_name(lane)}"
                          for record in records for lane in record.busy_ns}
        # One sample per window per track, plus a trailing zero per track
        # so the final sample has extent.
        assert len(counters) == len(records) * len(tracks) + len(tracks)
        for track in tracks:
            samples = sorted((e for e in counters if e["name"] == track),
                             key=lambda e: e["ts"])
            assert samples[-1]["args"]["utilization"] == 0
            assert samples[-1]["ts"] == layout.extent_ns / 1e3
            assert any(e["args"]["utilization"] > 0 for e in samples[:-1])
        # Counter start offsets line up with the laid-out window starts.
        starts = sorted({event["ts"] for event in counters})
        assert starts[:len(records)] == [start / 1e3
                                         for start in layout.starts]

    def test_mmio_flows_pair_worker_and_main_lane_in_parallel_mode(self):
        _, telemetry = traced_run(cores=2, parallel=True)
        # One flow per (window, worker lane with MMIO time) whose window
        # also has main-lane MMIO time.
        expected = [(record.window, lane) for record in fold_records(telemetry)
                    if record.phases.get(MAIN_LANE, {}).get("mmio", 0.0) > 0
                    for lane in sorted(record.phases) if lane != MAIN_LANE
                    and record.phases[lane].get("mmio", 0.0) > 0]
        assert expected
        document = chrome_trace(telemetry)
        starts = [e for e in document["traceEvents"] if e["ph"] == "s"]
        finishes = [e for e in document["traceEvents"] if e["ph"] == "f"]
        assert len(starts) == len(finishes) == len(expected)
        by_id = {event["id"]: event for event in finishes}
        spans = {(event["args"]["window"], event["tid"], event["ts"]): event
                 for event in document["traceEvents"]
                 if event["ph"] == "X" and event["name"] == "mmio"}
        for start in starts:
            finish = by_id[start["id"]]
            assert finish["bp"] == "e"
            # The arrow hops lanes: issuing core -> SystemC main thread.
            # (No ts ordering claim: parallel layout stacks each lane from
            # the window start, so the completion slice may sit earlier on
            # the folded axis than the request slice.)
            assert start["tid"] != finish["tid"] == 0
            window = start["args"]["window"]
            assert window == finish["args"]["window"]
            # Both ends sit on that window's MMIO spans.
            assert (window, start["tid"], start["ts"]) in spans
            assert (window, finish["tid"], finish["ts"]) in spans

    def test_sequential_mode_has_no_flow_events(self):
        _, telemetry = traced_run()
        document = chrome_trace(telemetry)
        assert not [event for event in document["traceEvents"]
                    if event["ph"] in ("s", "f")]

    def test_write_chrome_trace_file(self, tmp_path):
        _, telemetry = traced_run()
        path = tmp_path / "trace.json"
        telemetry.write_chrome_trace(str(path))
        document = json.loads(path.read_text())
        assert document["otherData"]["producer"] == "repro.telemetry"


class TestRunReport:
    def test_sections_and_nonzero_counters(self):
        _, telemetry = traced_run(source=WFI_GUEST, annotations=True)
        report = run_report(telemetry)
        for section in ("telemetry run report", "KVM exits", "watchdog",
                        "WFI idle skipping", "quantum", "scheduler",
                        "host timeline", "metric catalog"):
            assert section in report
        assert "mmio=" in report                    # per-core exit counts
        assert "suspends=3" in report
        assert "delta=0.000%" in report

    def test_report_renders_on_empty_telemetry(self):
        vp = make_vp()
        telemetry = enable_telemetry(vp)            # never run
        report = telemetry.report()
        assert "telemetry run report" in report


class TestMetricsSidecar:
    def test_sidecar_matches_in_memory_registry(self, tmp_path):
        _, telemetry = traced_run()
        path = tmp_path / "metrics.json"
        write_metrics_json(telemetry.registry, str(path))
        on_disk = json.loads(path.read_text())
        assert on_disk == metrics_json(telemetry.registry)
        assert on_disk == telemetry.metrics_snapshot()
        assert on_disk["num_series"] == len(telemetry.registry)

    def test_sidecar_values_are_queryable(self, tmp_path):
        _, telemetry = traced_run()
        path = tmp_path / "metrics.json"
        write_metrics_json(telemetry.registry, str(path))
        document = json.loads(path.read_text())
        by_name = {metric["name"]: metric for metric in document["metrics"]}
        exits = by_name["kvm.exits"]
        assert exits["type"] == "counter"
        assert sum(series["value"] for series in exits["series"]) == \
            telemetry.registry.total("kvm.exits")


def parse_vcd(text):
    """Minimal VCD structure parser: returns (var names, change sections)."""
    variables = []
    changes = []
    current_time = None
    in_definitions = True
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("$var"):
            parts = line.split()
            assert parts[1] == "wire" and parts[2] == "1"
            variables.append((parts[3], parts[4]))
        elif line == "$enddefinitions $end":
            in_definitions = False
        elif line.startswith("#"):
            assert not in_definitions
            time = int(line[1:])
            if current_time is not None:
                assert time > current_time
            current_time = time
            changes.append((time, []))
        elif not in_definitions and line and line[0] in "01":
            assert changes, "value change before first timestamp"
            changes[-1][1].append((line[0], line[1:]))
    return variables, changes


class TestIrqVcd:
    def test_vcd_parses_and_covers_all_lines(self):
        image = assemble(HEADER + WFI_GUEST, base_address=0x1000)
        software = GuestSoftware(image=image, mode="interpreter")
        vp = build_platform("aoa", VpConfig(num_cores=1,
                                            wfi_annotations=True), software)
        flight = enable_flight(vp, bundles=False)
        vp.run(SimTime.ms(50))
        assert flight.recorder.of_kind("irq")
        variables, changes = parse_vcd(flight.recorder.irq_vcd())
        codes = {code for code, _name in variables}
        assert len(codes) == len(variables)        # identifier codes unique
        names = {name for _code, name in variables}
        assert any("timer" in name for name in names)
        assert any("gic" in name for name in names)
        # Every change references a declared identifier code.
        for _time, edges in changes:
            for _level, code in edges:
                assert code in codes
        # The timer fired at least TICKS_WANTED times -> that many raises.
        timer_code = next(code for code, name in variables if "timer" in name)
        raises = sum(1 for _t, edges in changes
                     for level, code in edges
                     if code == timer_code and level == "1")
        assert raises >= 3
