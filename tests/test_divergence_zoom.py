"""Zoom re-run and divergence-bundle tests: window-scoped capture, first
differing trace entry, and the end-to-end localize pipeline."""

from __future__ import annotations

import json
import os

from repro.divergence import (
    bisect,
    capture_ledger,
    first_divergence,
    localize_divergence,
    zoom_run,
)
from repro.divergence.bundle import write_divergence_bundle
from repro.systemc.kernel import Kernel
from repro.systemc.probes import ProbeBus
from repro.systemc.time import SimTime

WINDOW = SimTime.us(100)
WINDOW_PS = WINDOW.picoseconds


def seeded_sim(glitch_at=None, steps=50):
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


class TestZoomRun:
    def test_capture_is_window_scoped(self):
        zoom = zoom_run(seeded_sim, window=2, window_ps=WINDOW_PS)
        assert len(zoom) > 0
        assert zoom.total_dispatches > len(zoom)
        for entry in zoom.entries:
            assert entry.time_ps // WINDOW_PS == 2
        # seq numbers are run-wide and strictly increasing
        seqs = [entry.seq for entry in zoom.entries]
        assert seqs == sorted(seqs)
        assert seqs[0] > 0

    def test_hook_removed_after_zoom(self):
        zoom_run(seeded_sim, window=0, window_ps=WINDOW_PS)
        assert ProbeBus().dispatch is None

    def test_identical_windows_have_no_diff(self):
        first = zoom_run(lambda: seeded_sim(None), 1, WINDOW_PS)
        second = zoom_run(lambda: seeded_sim(None), 1, WINDOW_PS)
        assert first_divergence(first.trace(), second.trace()) is None

    def test_diff_names_first_differing_entry(self):
        # glitch at iteration 25 (t=250us): core1 takes an extra 1ns event,
        # so within window 2 the streams agree up to the glitch point.
        clean = zoom_run(lambda: seeded_sim(None), 2, WINDOW_PS)
        glitched = zoom_run(lambda: seeded_sim(25), 2, WINDOW_PS)
        divergence = first_divergence(clean.trace(), glitched.trace())
        assert divergence is not None
        assert clean.entries[:divergence.index] == \
            glitched.entries[:divergence.index]
        assert divergence.first != divergence.second
        # the glitched side's diverging entry is core1's off-schedule event
        kind, time_ps, name = divergence.second
        assert name == "vp.cpu1.core1"
        assert time_ps == 250_001_000      # 250us + 1ns, in ps
        assert "250001000" in divergence.describe()


class TestLocalize:
    def test_identical_scenarios_short_circuit(self):
        report = localize_divergence(lambda: seeded_sim(None),
                                     lambda: seeded_sim(None), window=WINDOW)
        assert report.identical
        assert report.zoom_a is None and report.zoom_b is None
        assert report.event_diff is None
        assert report.bundle_path is None

    def test_end_to_end_localization(self, tmp_path):
        report = localize_divergence(
            lambda: seeded_sim(None), lambda: seeded_sim(25),
            window=WINDOW, meta_a={"leg": "clean"}, meta_b={"leg": "glitch"},
            bundle_dir=str(tmp_path), labels=("clean", "glitch"))
        assert not report.identical
        assert report.comparison.point.window == 2
        assert report.comparison.point.lane == 1
        assert report.event_diff is not None
        assert "zoom re-run event diff" in report.describe()
        assert report.bundle_path is not None
        assert os.path.isdir(report.bundle_path)

    def test_bundle_contents(self, tmp_path):
        report = localize_divergence(
            lambda: seeded_sim(None), lambda: seeded_sim(25),
            window=WINDOW, bundle_dir=str(tmp_path))
        bundle = report.bundle_path
        names = sorted(os.listdir(bundle))
        assert names == ["diff.json", "diff.txt", "ledger_a.json",
                         "ledger_b.json", "meta.json", "windows.json",
                         "zoom_a.jsonl", "zoom_b.jsonl"]
        meta = json.load(open(os.path.join(bundle, "meta.json")))
        assert meta["kind"] == "divergence"
        assert meta["comparison"]["point"]["window"] == 2
        assert meta["comparison"]["point"]["lane"] == 1
        assert meta["inputs"] == {"zoom": True, "event_diff": True,
                                  "journal": False, "cores": False}
        windows = json.load(open(os.path.join(bundle, "windows.json")))
        assert windows["a"]["window"] == 2 and windows["b"]["window"] == 2
        zoom_lines = open(os.path.join(bundle, "zoom_b.jsonl")).readlines()
        entries = [json.loads(line) for line in zoom_lines]
        assert all(entry["t_ps"] // WINDOW_PS == 2 for entry in entries)
        diff_text = open(os.path.join(bundle, "diff.txt")).read()
        assert "first divergence at dispatch" in diff_text

    def test_bundle_journal_slice_and_core_state(self, tmp_path):
        # With a flight recorder and a live platform, the bundle also gets
        # the journal slice scoped to the divergent window and cores/.
        from repro.arch.assembler import assemble
        from repro.flight.attach import Flight
        from repro.vp import GuestSoftware, VpConfig, build_platform

        image = assemble("_start:\n    hlt #0\n", base_address=0x1000)
        software = GuestSoftware(image=image, mode="interpreter",
                                 name="divtest")
        vp = build_platform(
            "aoa", VpConfig(num_cores=1, quantum=SimTime.us(100)), software)
        vp.run(SimTime.ms(1))

        flight = Flight(bundles=False, profile_interval=None)
        for t_ps in (0, 150_000_000, 250_000_000, 299_999_999, 300_000_000):
            flight.recorder.record("tick", t_ps=t_ps)

        ledger_a = capture_ledger(lambda: seeded_sim(None), window=WINDOW)
        ledger_b = capture_ledger(lambda: seeded_sim(25), window=WINDOW)
        comparison = bisect(ledger_a, ledger_b)
        assert comparison.point.window == 2
        bundle = write_divergence_bundle(str(tmp_path), comparison,
                                         ledger_a, ledger_b,
                                         vp=vp, flight=flight)
        journal = [json.loads(line)
                   for line in open(os.path.join(bundle, "journal.jsonl"))]
        # only the two events inside window 2 ([200us, 300us)) survive
        assert [event["t_ps"] for event in journal] == [250_000_000,
                                                        299_999_999]
        core = json.load(open(os.path.join(bundle, "cores", "core0.json")))
        assert core["core"] == 0 and "registers" in core
        meta = json.load(open(os.path.join(bundle, "meta.json")))
        assert meta["inputs"]["journal"] and meta["inputs"]["cores"]

    def test_bundle_names_do_not_collide(self, tmp_path):
        ledger_a = capture_ledger(lambda: seeded_sim(None), window=WINDOW)
        ledger_b = capture_ledger(lambda: seeded_sim(25), window=WINDOW)
        comparison = bisect(ledger_a, ledger_b)
        first = write_divergence_bundle(str(tmp_path), comparison,
                                        ledger_a, ledger_b)
        second = write_divergence_bundle(str(tmp_path), comparison,
                                         ledger_a, ledger_b)
        assert first != second
        assert os.path.isdir(first) and os.path.isdir(second)
