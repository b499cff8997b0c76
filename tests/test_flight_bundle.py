"""Post-mortem crash bundles: wedge, guest panic, kernel error, caps."""

import json
import os

import pytest

from repro.arch.assembler import assemble
from repro.flight import enable_flight, read_jsonl
from repro.systemc.time import SimTime
from repro.vp import GuestSoftware, VpConfig, build_platform
from repro.workloads.dhrystone import DhrystoneParams, dhrystone_software

GUEST = """
.equ UART_HI, 0x0904
.equ SIMCTL_HI, 0x090F

_start:
    movz x0, #5
    bl triple
    movz x1, #UART_HI, lsl #16
    movz x2, #0x21              // '!'
    strb x2, [x1]
    movz x4, #SIMCTL_HI, lsl #16
    str x4, [x4]
    hlt #0

triple:
    add x1, x0, x0
    add x0, x1, x0
    ret
"""

PANIC_GUEST = """
.equ SIMCTL_HI, 0x090F

_start:
    movz x5, #SIMCTL_HI, lsl #16
    add x5, x5, #0x20           // SIMCTL panic register
    movz x6, #0xDEAD
    str x6, [x5]
    hlt #0
"""


def make_vp(source=GUEST, num_cores=1):
    image = assemble(source, base_address=0x1000)
    software = GuestSoftware(image=image, mode="interpreter", name="bundletest")
    config = VpConfig(num_cores=num_cores, quantum=SimTime.us(100))
    return build_platform("aoa", config, software)


def read_bundle(path):
    meta = json.load(open(os.path.join(path, "meta.json")))
    cores = {}
    cores_dir = os.path.join(path, "cores")
    for name in sorted(os.listdir(cores_dir)):
        if name.endswith(".json"):
            cores[name] = json.load(open(os.path.join(cores_dir, name)))
    with open(os.path.join(path, "journal.jsonl")) as stream:
        journal = [json.loads(line) for line in stream]
    return meta, cores, journal


class TestForcedWedge:
    def test_bundle_written_end_to_end(self, tmp_path):
        vp = make_vp()
        flight = enable_flight(vp, crash_dir=str(tmp_path))
        vp.run(SimTime.ms(50))
        bundle = flight.force_watchdog_fire(vp, core=0)
        assert bundle is not None and os.path.isdir(bundle)
        assert flight.bundler.bundles == [bundle]

        meta, cores, journal = read_bundle(bundle)
        assert meta["reason"] == "watchdog"
        assert meta["platform"]["num_cores"] == 1
        assert meta["simctl"]["stop_reason"] == "shutdown"
        assert "!" in meta["console_tail"]
        # The journal holds real events and ends with the wedge itself.
        assert journal
        assert journal[-1]["kind"] == "watchdog_wedge"
        kinds = {event["kind"] for event in journal}
        assert {"kvm_exit", "watchdog_arm", "watchdog_kick"} <= kinds
        # The MMIO history is every retained bus transport.
        mmio = read_jsonl(os.path.join(bundle, "mmio.jsonl"))
        assert mmio == [event.to_dict()
                        for event in flight.recorder.of_kind("transport")]
        assert mmio and {event["kind"] for event in mmio} == {"transport"}
        # Full register state for the core.
        registers = cores["core0.json"]["registers"]
        assert "pc" in registers and "x0" in registers
        assert cores["core0.json"]["sysregs"]
        flight.detach()

    def test_disassembly_window_marks_pc(self, tmp_path):
        vp = make_vp()
        flight = enable_flight(vp, crash_dir=str(tmp_path))
        vp.run(SimTime.ms(50))
        bundle = flight.force_watchdog_fire(vp, core=0)
        disasm = open(os.path.join(bundle, "cores", "core0.disasm.txt")).read()
        lines = disasm.splitlines()
        assert lines
        assert any("=>" in line for line in lines)
        flight.detach()

    def test_every_core_gets_a_state_file(self, tmp_path):
        vp = make_vp(num_cores=2)
        flight = enable_flight(vp, crash_dir=str(tmp_path))
        vp.run(SimTime.ms(50))
        bundle = flight.force_watchdog_fire(vp, core=1)
        _, cores, _ = read_bundle(bundle)
        assert set(cores) == {"core0.json", "core1.json"}
        for state in cores.values():
            assert "pc" in state["registers"]
        flight.detach()

    def test_journal_respects_last_n(self, tmp_path):
        vp = make_vp()
        flight = enable_flight(vp, crash_dir=str(tmp_path), last_n=5)
        vp.run(SimTime.ms(50))
        bundle = flight.force_watchdog_fire(vp, core=0)
        _, _, journal = read_bundle(bundle)
        assert len(journal) == 5
        flight.detach()


class TestGuestPanic:
    def test_panic_write_dumps_a_bundle(self, tmp_path):
        vp = make_vp(source=PANIC_GUEST)
        flight = enable_flight(vp, crash_dir=str(tmp_path))
        vp.run(SimTime.ms(50))
        assert vp.simctl.stop_reason == "panic"
        assert len(flight.bundler.bundles) == 1
        meta, _, journal = read_bundle(flight.bundler.bundles[0])
        assert meta["reason"] == "guest-panic"
        assert meta["simctl"]["stop_reason"] == "panic"
        assert meta["simctl"]["panic_code"] == 0xDEAD
        assert any(event["kind"] == "simctl" and event.get("what") == "panic"
                   for event in journal)
        flight.detach()


class TestKernelError:
    def test_dispatch_exception_dumps_and_reraises(self, tmp_path):
        # A guest that never shuts down, so simulated time actually advances
        # and the exploding process gets dispatched.
        vp = make_vp(source="_start:\n    b _start\n")
        flight = enable_flight(vp, crash_dir=str(tmp_path))

        def exploding():
            yield SimTime.us(1)
            raise RuntimeError("boom in dispatch")

        vp.kernel.spawn(exploding)
        with pytest.raises(RuntimeError, match="boom in dispatch"):
            vp.run(SimTime.ms(50))
        assert len(flight.bundler.bundles) == 1
        meta, _, journal = read_bundle(flight.bundler.bundles[0])
        assert meta["reason"] == "kernel-error"
        assert "boom in dispatch" in meta["detail"]
        assert journal[-1]["kind"] == "kernel_error"
        flight.detach()


class TestBundleLimits:
    def test_max_bundles_cap(self, tmp_path):
        vp = make_vp()
        flight = enable_flight(vp, crash_dir=str(tmp_path), max_bundles=1)
        vp.run(SimTime.ms(50))
        first = flight.force_watchdog_fire(vp, core=0)
        second = flight.force_watchdog_fire(vp, core=0)
        assert first is not None
        assert second is None
        assert flight.bundler.num_skipped >= 1
        assert len(flight.bundler.bundles) == 1
        flight.detach()


class TestPhaseModeFallback:
    def test_phase_guest_gets_fallback_state(self, tmp_path):
        software = dhrystone_software(1, DhrystoneParams(iterations=50))
        config = VpConfig(num_cores=1, quantum=SimTime.us(100))
        vp = build_platform("aoa", config, software)
        flight = enable_flight(vp, crash_dir=str(tmp_path))
        vp.run(SimTime.ms(1))
        bundle = flight.force_watchdog_fire(vp, core=0)
        _, cores, _ = read_bundle(bundle)
        state = cores["core0.json"]
        assert "pc" in state["registers"]
        disasm = open(os.path.join(bundle, "cores", "core0.disasm.txt")).read()
        assert "disassembly unavailable" in disasm
        flight.detach()


class TestAttributionSnapshot:
    def test_panic_bundle_carries_obs_attribution(self, tmp_path):
        from repro.obs import enable_obs
        vp = make_vp(source=PANIC_GUEST)
        flight = enable_flight(vp, crash_dir=str(tmp_path))
        obs = enable_obs(vp)
        vp.run(SimTime.ms(50))
        (bundle,) = flight.bundler.bundles
        metrics = json.load(open(os.path.join(bundle, "metrics.json")))
        attribution = metrics["attribution"]
        # A mid-run snapshot (open windows included): phases still tile
        # each lane's wall time exactly, and the schema marks the source.
        assert attribution["schema"] == "repro.obs.attribution/1"
        assert attribution["consistent"]
        assert attribution["wall_time_ns"] > 0
        assert "main" in attribution["lanes"]
        obs.detach()
        flight.detach()

    def test_bundle_falls_back_to_telemetry_timeline(self, tmp_path):
        from repro.telemetry import enable_telemetry
        vp = make_vp(source=PANIC_GUEST)
        flight = enable_flight(vp, crash_dir=str(tmp_path))
        telemetry = enable_telemetry(vp)
        assert getattr(vp, "obs", None) is None
        vp.run(SimTime.ms(50))
        (bundle,) = flight.bundler.bundles
        metrics = json.load(open(os.path.join(bundle, "metrics.json")))
        attribution = metrics["attribution"]
        assert attribution["schema"] == "repro.obs.attribution/1"
        assert attribution["wall_time_ns"] > 0
        telemetry.detach()
        flight.detach()

    def test_bundle_without_observers_has_no_attribution(self, tmp_path):
        vp = make_vp(source=PANIC_GUEST)
        flight = enable_flight(vp, crash_dir=str(tmp_path))
        vp.run(SimTime.ms(50))
        (bundle,) = flight.bundler.bundles
        metrics = json.load(open(os.path.join(bundle, "metrics.json")))
        assert "attribution" not in metrics
        flight.detach()
