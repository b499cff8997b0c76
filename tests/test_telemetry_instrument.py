"""End-to-end telemetry instrumentation tests on the real platforms.

The central invariants: every probe is purely observational (identical
simulation results and identical DET001 scheduler digests with telemetry
on and off), detaching cancels every probe subscription, and the host
timeline laid out from the attribution fold ends exactly at the ledger's
wall-clock fold in both sequential (sum) and parallel (max) modes.
"""

import pytest

from repro.analysis.determinism import trace_run
from repro.arch.assembler import assemble
from repro.systemc.probes import POINTS
from repro.systemc.time import SimTime
from repro.telemetry import MetricsRegistry, Telemetry, collecting, enable_telemetry
from repro.telemetry.spans import lay_out
from repro.vp import GuestSoftware, VpConfig, build_platform
from repro.vp.linux import LinuxBootParams, linux_boot_software

HEADER = """
.equ GICD_BASE_HI, 0x0800
.equ GICC0_BASE_HI, 0x0801
.equ TIMER_BASE_HI, 0x0900
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
    .asciz "telemetry\\n"
"""

# Timer-interrupt guest with an annotatable cpu_do_idle (same shape as the
# WFI-annotation functional test): three timer ticks, idling in WFI between.
WFI_GUEST = """
.equ TICKS_WANTED, 3
_start:
    movz x28, #0
    adr x1, vectors
    msr VBAR_EL1, x1
    movz x2, #GICD_BASE_HI, lsl #16
    movz x3, #1
    strw x3, [x2]
    movz x4, #0x2000, lsl #16
    strw x4, [x2, #0x100]
    movz x5, #GICC0_BASE_HI, lsl #16
    movz x6, #0xFF
    strw x6, [x5, #4]
    movz x6, #1
    strw x6, [x5]
    movz x7, #TIMER_BASE_HI, lsl #16
    movz x8, #6250
    strw x8, [x7, #4]
    movz x8, #7
    strw x8, [x7]
    msr daifclr, #2
idle_loop:
    bl cpu_do_idle
    cmp x28, #TICKS_WANTED
    b.lo idle_loop
    movz x11, #SIMCTL_BASE_HI, lsl #16
    str x11, [x11]
    hlt #0

cpu_do_idle:
    dmb
    wfi
    ret

.align 256
vectors:
    b .
.org vectors + 0x80
    movz x12, #GICC0_BASE_HI, lsl #16
    ldrw x13, [x12, #0xC]
    movz x14, #TIMER_BASE_HI, lsl #16
    movz x15, #1
    strw x15, [x14, #0x10]
    strw x13, [x12, #0x10]
    add x28, x28, #1
    eret
"""


def subscribed_points(vp):
    """The probe points of ``vp``'s kernel bus that have a subscriber."""
    return {point for point in POINTS if vp.kernel.probes.subscribers(point)}


def make_vp(source=HELLO, kind="aoa", cores=1, parallel=False,
            annotations=False, quantum_us=100):
    image = assemble(HEADER + source, base_address=0x1000)
    software = GuestSoftware(image=image, mode="interpreter", name="telem-test")
    config = VpConfig(num_cores=cores, quantum=SimTime.us(quantum_us),
                      parallel=parallel, wfi_annotations=annotations)
    return build_platform(kind, config, software)


def run_instrumented(**kwargs):
    max_ms = kwargs.pop("max_ms", 50)
    vp = make_vp(**kwargs)
    telemetry = enable_telemetry(vp)
    vp.run(SimTime.ms(max_ms))
    return vp, telemetry


class TestAttachment:
    def test_enable_is_idempotent(self):
        vp = make_vp()
        telemetry = enable_telemetry(vp)
        assert vp.telemetry is telemetry
        # A second enable returns the existing handle instead of stacking a
        # second probe set (even when handed a different registry).
        assert enable_telemetry(vp) is telemetry
        assert enable_telemetry(vp, MetricsRegistry()) is telemetry
        assert vp.telemetry is telemetry
        # Direct attach keeps its guard: it would double-wrap.
        with pytest.raises(ValueError):
            Telemetry().attach(vp)

    def test_double_enable_does_not_double_count(self):
        vp = make_vp()
        telemetry = enable_telemetry(vp)
        again = enable_telemetry(vp)
        vp.run(SimTime.ms(50))
        assert again is telemetry
        # One set of probes: the dispatch counter matches the kernel's own
        # tally, and each UART store is one fabric access, not two.
        registry = telemetry.registry
        dispatches = registry.total("kernel.dispatch")
        assert dispatches > 0
        _, reference = run_instrumented()
        expected = reference.registry.total("fabric.accesses")
        assert registry.total("fabric.accesses") == expected

    def test_shared_registry_across_platforms(self):
        registry = MetricsRegistry()
        telemetry = Telemetry(registry)
        telemetry.attach(make_vp())
        telemetry.attach(make_vp(kind="avp64"))
        assert len(telemetry.platforms) == 2
        assert telemetry.registry is registry

    def test_collecting_scope_auto_attaches_and_detaches(self):
        with collecting() as telemetry:
            vp = make_vp()
            assert vp.telemetry is telemetry
            vp.run(SimTime.ms(50))
            assert telemetry.registry.total("kernel.dispatch") > 0
        assert vp.telemetry is None
        vp2 = make_vp()
        assert vp2.telemetry is None


class TestMetricsCapture:
    def test_kvm_exit_counters_nonzero(self):
        vp, telemetry = run_instrumented()
        registry = telemetry.registry
        # 10 UART byte stores + 1 simctl store = MMIO exits, plus shutdown.
        assert registry.total("kvm.exits", reason="mmio") >= 11
        assert registry.total("kvm.exits") == sum(
            i.value for i in registry.series_of("kvm.exits"))
        # The trapped instruction of each MMIO exit retires during MMIO
        # emulation, outside the in-guest instruction count.
        assert (registry.total("kvm.instructions")
                + registry.total("kvm.exits", reason="mmio")
                == vp.total_instructions())

    def test_fabric_access_counters(self):
        vp, telemetry = run_instrumented()
        registry = telemetry.registry
        mem = vp.cpus[0].mem
        # UART/simctl stores ride the transport path of the fabric port.
        assert registry.total("fabric.accesses", path="transport") >= 11
        assert registry.total("fabric.accesses") == (
            mem.num_dmi_hits + mem.num_transports + mem.num_debug_accesses)

    def test_mmio_roundtrip_histogram_populated(self):
        _, telemetry = run_instrumented()
        (histogram,) = telemetry.registry.series_of("kvm.mmio_roundtrip_ns")
        assert histogram.count >= 11
        assert histogram.min > 0

    def test_scheduler_and_quantum_metrics(self):
        # A quantum smaller than the guest's runtime, so syncs happen
        # mid-run rather than only on the final HALT path.
        _, telemetry = run_instrumented(quantum_us=5)
        registry = telemetry.registry
        assert registry.total("kernel.dispatch", kind="step") > 0
        assert registry.total("quantum.syncs") >= 1
        (utilization,) = registry.series_of("quantum.utilization")
        assert 0.0 < utilization.mean <= 2.0

    def test_watchdog_metrics(self):
        _, telemetry = run_instrumented(source=WFI_GUEST, annotations=True)
        registry = telemetry.registry
        assert registry.total("watchdog.armed") > 0
        fired = registry.total("watchdog.fired")
        stale = registry.total("watchdog.kicks_stale")
        delivered = registry.total("watchdog.kicks_delivered")
        # Every fired watchdog produced a kick that was either delivered or
        # filtered as stale by the kick-id guard (Listing 1).
        assert fired == stale + delivered

    def test_wfi_suspend_metrics_and_spans(self):
        vp, telemetry = run_instrumented(source=WFI_GUEST, annotations=True)
        registry = telemetry.registry
        suspends = registry.total("wfi.suspends")
        assert suspends == vp.cpus[0].num_wfi_suspends >= 3
        assert registry.total("wfi.skipped_cycles") > 0
        # Each completed suspend produced one simulated-time span.
        assert len(telemetry.sim_spans.spans) >= suspends - 1
        for span in telemetry.sim_spans.spans:
            assert span.name == "wfi_suspend"
            assert span.duration > 0


def host_layout(vp, telemetry):
    fold = telemetry.platforms[0].fold
    return lay_out(fold.records(include_open=True), vp.ledger.parallel)


class TestTimelineMatchesLedger:
    @pytest.mark.parametrize("cores,parallel", [(1, False), (2, False),
                                                (1, True), (2, True)])
    def test_timeline_total_within_1pct_of_ledger(self, cores, parallel):
        # The laid-out extent is not just within 1% of the ledger: it is
        # the same fold, so it is equal.
        vp, telemetry = run_instrumented(source=WFI_GUEST, annotations=True,
                                         cores=cores, parallel=parallel)
        ledger_ns = vp.ledger.wall_time_ns()
        assert ledger_ns > 0
        assert host_layout(vp, telemetry).extent_ns == ledger_ns

    def test_sequential_spans_sum_to_ledger(self):
        vp, telemetry = run_instrumented(parallel=False)
        spans = host_layout(vp, telemetry).spans
        assert sum(span.duration for span in spans) == pytest.approx(
            vp.ledger.wall_time_ns(), rel=1e-9)

    def test_sequential_mode_has_one_track_per_core(self):
        # Attribution lanes are per-core even though the ledger bills every
        # sequential event on the main lane.
        vp, telemetry = run_instrumented(cores=2, parallel=False)
        tracks = {span.track for span in host_layout(vp, telemetry).spans}
        assert {"main", "core0"} <= tracks <= {"main", "core0", "core1"}

    def test_parallel_multicore_lanes_max_to_ledger(self):
        vp, telemetry = run_instrumented(cores=2, parallel=True)
        layout = host_layout(vp, telemetry)
        assert layout.extent_ns == vp.ledger.wall_time_ns()
        # Parallel mode bills each worker on its own lane.
        assert len({span.track for span in layout.spans}) >= 2


class TestHostTimeMemory:
    """Telemetry's host-time state is O(windows), not O(billing events)."""

    @pytest.mark.parametrize("length_ms", [5, 20])
    def test_fold_keeps_window_records_not_billing_events(self, length_ms):
        config = VpConfig(num_cores=2, quantum=SimTime.us(100), parallel=True)
        software = linux_boot_software(2, LinuxBootParams().scaled(0.02))
        with collecting() as telemetry:
            vp = build_platform("aoa", config, software)
            vp.run(SimTime.ms(length_ms))
            fold = telemetry.platforms[0].fold
            # Mid-scope only the windows simulated time has not yet passed
            # can hold billing events.
            assert len(fold._events) <= 2
        assert not fold._events
        assert len(fold.records()) == vp.ledger.window_count()
        assert len(fold.records()) >= length_ms * 10 - 1


class TestTransparency:
    def test_simulation_results_identical_with_and_without(self):
        plain = make_vp(source=WFI_GUEST, annotations=True)
        plain.run(SimTime.ms(50))
        observed, _ = run_instrumented(source=WFI_GUEST, annotations=True)
        assert observed.console_output() == plain.console_output()
        assert observed.total_instructions() == plain.total_instructions()
        assert observed.wall_time_seconds() == plain.wall_time_seconds()
        assert observed.kernel.delta_count == plain.kernel.delta_count

    def test_det001_digest_identical_with_telemetry(self):
        def plain_action():
            make_vp().run(SimTime.ms(50))

        def telemetry_action():
            vp = make_vp()
            enable_telemetry(vp)
            vp.run(SimTime.ms(50))

        plain = trace_run(plain_action)
        instrumented = trace_run(telemetry_action)
        assert len(plain) > 0
        assert instrumented.digest() == plain.digest()

    def test_detach_cancels_every_subscription(self):
        vp = make_vp()
        cpu = vp.cpus[0]
        bus = vp.kernel.probes
        assert cpu.probes is bus and cpu.mem.probes is bus
        assert cpu.kick_guard.probes is bus and vp.watchdog.probes is bus
        assert subscribed_points(vp) == set()
        telemetry = enable_telemetry(vp)
        assert subscribed_points(vp) == {
            "dispatch", "watchdog_arm", "watchdog_fire", "quantum_sync",
            "wfi_suspend", "wfi_resume", "fabric_access", "vcpu_exit",
            "mmio", "kick", "host_bill", "time_advance", "run_return"}
        telemetry.detach()
        assert subscribed_points(vp) == set()
        assert vp.telemetry is None
        # The platform still runs normally afterwards...
        vp.run(SimTime.ms(50))
        assert vp.console_output() == "telemetry\n"
        # ...without recording anything new.
        assert telemetry.registry.total("kernel.dispatch") == 0
