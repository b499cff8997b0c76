"""repro.obs attribution engine: fold exactness and digest neutrality.

The central invariants:

* per-lane phase attribution sums exactly to ``HostLedger.wall_time_ns()``
  in both sequential (sum) and parallel (max) mode, with the residual
  ``barrier_idle`` / ``overhead`` phases closing every window;
* the taps are purely observational — identical simulation results,
  identical DET001 scheduler digests, identical divergence-ledger root
  digests with obs attached or detached;
* finished platforms are *sealed*: taps restored and the platform
  reference dropped, while summaries stay available from the cache.
"""

import gc
import json
import weakref
from types import SimpleNamespace

import pytest

from repro.analysis.determinism import trace_run
from repro.arch.assembler import assemble
from repro.divergence import WindowLedger
from repro.host.accounting import HostLedger
from repro.host.machine import MAIN_LANE, apple_m2_pro
from repro.obs import SubscriberSink, enable_obs, observing
from repro.obs import __main__ as obs_main
from repro.obs.attribution import (AttributionFold, CATEGORY_PHASES, PHASES,
                                   render_summary)
from repro.systemc.probes import POINTS
from repro.systemc.time import SimTime
from repro.telemetry import enable_telemetry
from repro.vp import GuestSoftware, VpConfig, build_platform
from repro.vp.linux import LinuxBootParams, linux_boot_software

HEADER = """
.equ UART_BASE_HI, 0x0904
.equ SIMCTL_BASE_HI, 0x090F
"""

HELLO = """
_start:
    movz x1, #UART_BASE_HI, lsl #16
    adr x2, message
next:
    ldrb x3, [x2]
    cbz x3, done
    strb x3, [x1]
    add x2, x2, #1
    b next
done:
    movz x4, #SIMCTL_BASE_HI, lsl #16
    str x4, [x4]
    hlt #0
message:
    .asciz "obs\\n"
"""


def subscribed_points(vp):
    """The probe points of ``vp``'s kernel bus that have a subscriber."""
    return {point for point in POINTS if vp.kernel.probes.subscribers(point)}


def make_vp(kind="aoa", cores=1, parallel=False, quantum_us=100,
            track_host_time=True):
    image = assemble(HEADER + HELLO, base_address=0x1000)
    software = GuestSoftware(image=image, mode="interpreter", name="obs-test")
    config = VpConfig(num_cores=cores, quantum=SimTime.us(quantum_us),
                      parallel=parallel, track_host_time=track_host_time)
    return build_platform(kind, config, software)


def make_ledger(parallel, num_cores=2, quantum_us=100):
    return HostLedger(SimTime.us(quantum_us), parallel, apple_m2_pro(),
                      num_cores)


def mirror(ledger, fold, window, lane, ns, category, parallel):
    """Bill the ledger and the fold the way ``Processor.bill_host_time``
    and its ``host_bill`` probe do (lane < 0 means main thread)."""
    main_thread = lane == MAIN_LANE
    actual = lane if (parallel and not main_thread) else MAIN_LANE
    ledger.add(window, actual, ns, category)
    fold.bill(SimpleNamespace(core_id=lane), window, actual, ns, category,
              main_thread)


class TestFold:
    def test_sequential_phases_sum_exactly_to_ledger_wall(self):
        ledger = make_ledger(parallel=False)
        fold = AttributionFold(ledger)
        events = [(0, 0, 100.0, "guest"), (0, MAIN_LANE, 7.5, "mmio"),
                  (0, 1, 33.25, "guest"), (1, 1, 12.125, "irq"),
                  (1, 0, 0.3, "watchdog"), (2, MAIN_LANE, 5.0, "cpu")]
        for window, lane, ns, category in events:
            mirror(ledger, fold, window, lane, ns, category, parallel=False)
        fold.finalize()
        summary = fold.summary(platform="unit", num_cores=2)
        assert summary.verify() == []
        # Bit-exact: same floats, same accumulation order as the ledger.
        assert summary.wall_time_ns == ledger.wall_time_ns()
        for lane_phases in summary.lanes.values():
            assert sum(lane_phases.get(p, 0.0) for p in PHASES) == pytest.approx(
                summary.wall_time_ns, rel=1e-12)

    def test_parallel_residuals_close_every_window(self):
        ledger = make_ledger(parallel=True)
        fold = AttributionFold(ledger)
        # lane0 busy 100, lane1 busy 60: idle(lane1)=40, idle(lane0)=0.
        mirror(ledger, fold, 0, 0, 100.0, "guest", parallel=True)
        mirror(ledger, fold, 0, 1, 60.0, "guest", parallel=True)
        mirror(ledger, fold, 0, MAIN_LANE, 10.0, "irq", parallel=True)
        records = fold.finalize()
        assert len(records) == 1
        record = records[0]
        assert record.fold_busy_ns == 100.0
        assert record.wall_ns == ledger.wall_time_ns()
        summary = fold.summary(platform="unit", num_cores=2)
        assert summary.verify() == []
        assert summary.wall_time_ns == ledger.wall_time_ns()
        lanes = summary.lanes
        assert lanes["core1"]["barrier_idle"] == 40.0
        assert lanes["core0"]["barrier_idle"] == 0.0
        assert lanes["main"]["barrier_idle"] == 90.0
        overhead = record.wall_ns - record.fold_busy_ns
        for name in ("main", "core0", "core1"):
            assert lanes[name]["overhead"] == overhead

    def test_category_phase_mapping(self):
        assert CATEGORY_PHASES["guest"] == "guest"
        assert CATEGORY_PHASES["wfi_blocked"] == "guest"
        assert CATEGORY_PHASES["iss"] == "guest"
        assert CATEGORY_PHASES["emulation"] == "mmio"
        ledger = make_ledger(parallel=False)
        fold = AttributionFold(ledger)
        mirror(ledger, fold, 0, 0, 5.0, "never-heard-of-it", parallel=False)
        fold.finalize()
        summary = fold.summary()
        assert summary.lanes["core0"]["kernel"] == 5.0

    def test_advance_to_finalizes_only_complete_windows(self):
        ledger = make_ledger(parallel=False, quantum_us=100)
        fold = AttributionFold(ledger)
        window_ps = ledger.window_size.picoseconds
        mirror(ledger, fold, 0, 0, 10.0, "guest", parallel=False)
        mirror(ledger, fold, 1, 0, 20.0, "guest", parallel=False)
        assert fold.advance_to(window_ps - 1) == []
        done = fold.advance_to(window_ps)          # window 0 just ended
        assert [record.window for record in done] == [0]
        assert [record.window for record in fold.finalize()] == [1]

    def test_late_events_are_drop_accounted(self):
        ledger = make_ledger(parallel=False)
        fold = AttributionFold(ledger)
        mirror(ledger, fold, 1, 0, 10.0, "guest", parallel=False)
        fold.advance_to(2 * ledger.window_size.picoseconds)
        fold.bill(SimpleNamespace(core_id=0), 0, MAIN_LANE, 5.0, "guest",
                  False)                               # window 0 is closed
        assert fold.late_events == 1
        assert fold.summary().verify()                 # reported as a problem

    def test_include_open_summary_does_not_finalize(self):
        ledger = make_ledger(parallel=False)
        fold = AttributionFold(ledger)
        mirror(ledger, fold, 0, 0, 10.0, "guest", parallel=False)
        live = fold.summary(include_open=True)
        assert live.window_count == 1
        assert live.wall_time_ns == ledger.wall_time_ns()
        assert fold.records() == []                    # still open
        fold.finalize()
        assert fold.summary().wall_time_ns == live.wall_time_ns

    def test_projected_parallel_figures(self):
        ledger = make_ledger(parallel=False)
        fold = AttributionFold(ledger)
        # Two equally busy lanes: serializing costs 2x, so the projected
        # parallel speedup is 2 and efficiency 1.
        mirror(ledger, fold, 0, 0, 50.0, "guest", parallel=False)
        mirror(ledger, fold, 0, 1, 50.0, "guest", parallel=False)
        fold.finalize()
        summary = fold.summary(num_cores=2)
        assert summary.projected_parallel_speedup == 2.0
        assert summary.projected_parallel_efficiency == 1.0


@pytest.mark.parametrize("kind", ["aoa", "avp64"])
@pytest.mark.parametrize("cores,parallel", [(1, False), (2, False),
                                            (2, True), (4, True)])
class TestEndToEndExactness:
    def test_phases_sum_to_wall_time(self, kind, cores, parallel):
        vp = make_vp(kind=kind, cores=cores, parallel=parallel)
        obs = enable_obs(vp)
        vp.run(SimTime.ms(50))
        summary = obs.summaries()[f"{vp.name}#0"]
        assert summary.verify() == []
        assert summary.wall_time_ns == vp.ledger.wall_time_ns()
        assert summary.instructions == vp.total_instructions()
        assert summary.mips == pytest.approx(vp.mips(), rel=1e-9)
        # Attribution lanes are per-core even in sequential mode (a core
        # only gets a lane once it bills — the guest shuts the simulation
        # down from core 0, so late cores may never run a leg).
        assert {"main", "core0"} <= set(summary.lanes)
        assert set(summary.lanes) <= (
            {"main"} | {f"core{i}" for i in range(cores)})
        text = render_summary(summary)
        assert "host-time attribution" in text and "!!" not in text


class TestDigestNeutrality:
    def test_det001_digest_identical_with_obs(self):
        def plain_action():
            make_vp().run(SimTime.ms(50))

        def obs_action():
            vp = make_vp()
            enable_obs(vp, sinks=[SubscriberSink(lambda _s: None)])
            vp.run(SimTime.ms(50))

        plain = trace_run(plain_action)
        observed = trace_run(obs_action)
        assert len(plain) > 0
        assert observed.digest() == plain.digest()

    def test_divergence_root_digest_identical_with_obs(self):
        def run_once(with_obs):
            with WindowLedger(100_000_000) as scope:
                vp = make_vp()
                if with_obs:
                    enable_obs(vp)
                vp.run(SimTime.ms(50))
            return scope.ledger().root_digest

        assert run_once(True) == run_once(False)

    def test_simulation_results_identical_with_obs(self):
        plain = make_vp()
        plain.run(SimTime.ms(50))
        observed = make_vp()
        enable_obs(observed)
        observed.run(SimTime.ms(50))
        assert observed.console_output() == plain.console_output()
        assert observed.total_instructions() == plain.total_instructions()
        assert observed.wall_time_seconds() == plain.wall_time_seconds()
        assert observed.kernel.delta_count == plain.kernel.delta_count


class TestEngineLifecycle:
    def test_double_attach_raises(self):
        vp = make_vp()
        enable_obs(vp)
        with pytest.raises(ValueError):
            enable_obs(vp)

    def test_finished_run_seals_and_releases_the_platform(self):
        vp = make_vp()
        obs = enable_obs(vp)
        assert subscribed_points(vp) == {"host_bill", "time_advance",
                                         "dispatch", "run_return"}
        vp.run(SimTime.ms(50))
        # All cores halted: the run_return probe sealed the entry.
        entry = obs.platforms[0]
        assert entry.sealed and entry.vp is None
        assert vp.obs is None
        assert subscribed_points(vp) == set()
        # The summary survives from the sealed cache.
        summary = obs.summaries()[f"{vp.name}#0"]
        assert summary.instructions == vp.total_instructions()
        assert summary.wall_time_ns == vp.ledger.wall_time_ns()

    def test_detach_mid_run_cancels_every_subscription(self):
        vp = make_vp()
        obs = enable_obs(vp)
        obs.detach()
        assert vp.obs is None
        assert subscribed_points(vp) == set()
        vp.run(SimTime.ms(50))
        assert vp.console_output() == "obs\n"

    def test_observing_scope_auto_attaches(self):
        with observing() as obs:
            vp = make_vp()
            assert vp.obs is obs
            vp.run(SimTime.ms(50))
        assert obs.summaries()[f"{vp.name}#0"].verify() == []

    def test_scope_keeps_no_finished_stop_on_boot_platform_alive(self):
        # A stop_on_boot run ends through sim.stop(): no core halts and no
        # shutdown is requested, so its entry never seals itself.
        params = LinuxBootParams().scaled(0.01)
        alive, expected = [], {}
        with observing() as obs:
            for index in range(3):
                config = VpConfig(num_cores=2, quantum=SimTime.ms(1))
                vp = build_platform("aoa", config, linux_boot_software(2, params))
                vp.simctl.on_boot_done = lambda _t, vp=vp: vp.sim.stop()
                vp.run(SimTime.seconds(3000))
                assert vp.simctl.boot_done_at is not None
                assert not obs.platforms[index].sealed
                expected[f"{vp.name}#{index}"] = (
                    vp.total_instructions(), vp.kernel.now.picoseconds,
                    vp.ledger.wall_time_ns())
                alive.append(weakref.ref(vp))
                del vp
            gc.collect()
            assert [ref() for ref in alive] == [None, None, None]
        summaries = obs.summaries()
        assert {key: (summary.instructions, summary.sim_time_ps,
                      summary.wall_time_ns)
                for key, summary in summaries.items()} == expected
        assert all(summary.verify() == [] for summary in summaries.values())

    def test_platform_without_ledger_attaches_inert(self):
        vp = make_vp(track_host_time=False)
        obs = enable_obs(vp)
        assert vp.obs is obs
        vp.run(SimTime.ms(50))
        assert obs.summaries() == {}
        assert vp.console_output() == "obs\n"

    def test_obs_and_telemetry_stack(self):
        vp = make_vp()
        telemetry = enable_telemetry(vp)
        obs = enable_obs(vp)
        vp.run(SimTime.ms(50))
        summary = obs.summaries()[f"{vp.name}#0"]
        assert summary.verify() == []
        assert telemetry.registry.total("kernel.dispatch") > 0
        assert summary.dispatches > 0

    def test_window_snapshots_stream_in_order(self):
        seen = []
        vp = make_vp()
        enable_obs(vp, sinks=[SubscriberSink(seen.append)])
        vp.run(SimTime.ms(50))
        assert seen, "no snapshots streamed"
        windows = [s["window"] for s in seen if not s.get("final")]
        assert windows == sorted(windows)
        assert seen[-1]["final"] is True
        final = seen[-1]["summary"]
        assert final["consistent"] is True
        for snapshot in seen[:-1]:
            for lane in snapshot["lanes"].values():
                assert 0.0 <= lane["utilization"] <= 1.0 + 1e-9


class TestTimelineFallback:
    def test_summarize_timeline_matches_ledger(self):
        # Without obs, the flight bundle summarizes telemetry's own fold,
        # open windows included.
        vp = make_vp()
        telemetry = enable_telemetry(vp)
        vp.run(SimTime.ms(50))
        fold = telemetry.platforms[0].fold
        summary = fold.summary(include_open=True)
        assert summary.verify() == []
        assert summary.wall_time_ns == vp.ledger.wall_time_ns()


class TestTelemetryFold:
    @pytest.mark.parametrize("cores,parallel", [(1, False), (2, True)])
    def test_telemetry_folds_the_same_windows_as_obs(self, cores, parallel):
        vp = make_vp(cores=cores, parallel=parallel)
        telemetry = enable_telemetry(vp)
        obs = enable_obs(vp)
        vp.run(SimTime.ms(50))
        telemetry.detach()
        fold = telemetry.platforms[0].fold
        (entry,) = obs.platforms
        # One fold per platform: telemetry's windows are obs's windows.
        assert fold is entry.fold
        summary = fold.summary()
        assert summary.verify() == []
        assert summary.wall_time_ns == vp.ledger.wall_time_ns()

    def test_one_billing_subscriber_with_telemetry_and_obs(self):
        vp = make_vp(cores=2, parallel=True)
        enable_telemetry(vp)
        enable_obs(vp)
        probes = vp.kernel.probes
        assert len(probes.subscribers("host_bill")) == 1
        assert len(probes.subscribers("time_advance")) == 1


class TestReportCli:
    """Malformed ``python -m repro.obs report`` inputs exit 2, ``cannot load``."""

    REPORTS = {
        "list": "[]",
        "truncated": '{"summaries": [{"platform": ',
        "summary_not_object": json.dumps({"summaries": [1]}),
        "summaries_not_list": json.dumps({"summaries": "none"}),
    }

    @pytest.mark.parametrize("case", sorted(REPORTS))
    def test_report_cli_cannot_load(self, case, tmp_path, capsys):
        path = tmp_path / "run.obs.json"
        path.write_text(self.REPORTS[case])
        assert obs_main.main(["report", str(path)]) == 2
        assert f"cannot load {path}" in capsys.readouterr().err

    def test_report_cli_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.obs.json"
        assert obs_main.main(["report", str(path)]) == 2
        assert "cannot load" in capsys.readouterr().err
