"""Probe points carry facts: telemetry and flight read the same ones.

The processor loop emits ``wfi_suspend`` and ``wfi_resume`` and the CPU
models emit ``mmio`` with its round trip, so neither observer pairs two
emissions.  On one boot the two observers must then agree event for
event, and neither may subscribe the per-leg ``simulate`` point.
"""

from collections import Counter

from repro.flight import enable_flight
from repro.systemc.time import SimTime
from repro.telemetry import enable_telemetry
from repro.vp import VpConfig, build_platform
from repro.vp.linux import LinuxBootParams, linux_boot_software


def test_telemetry_and_flight_agree_on_wfi_and_mmio():
    config = VpConfig(num_cores=2, quantum=SimTime.us(100), parallel=True,
                      wfi_annotations=True)
    software = linux_boot_software(2, LinuxBootParams().scaled(0.02))
    vp = build_platform("aoa", config, software)
    telemetry = enable_telemetry(vp)
    flight = enable_flight(vp, capacity=1 << 16, bundles=False)
    probes = vp.kernel.probes
    assert probes.simulate is None
    assert probes.wfi_suspend is not None and probes.wfi_resume is not None
    vp.run(SimTime.ms(20))
    assert flight.recorder.num_dropped == 0

    journal = [event.to_dict() for event in flight.recorder]
    suspends = [event for event in journal if event["kind"] == "wfi_suspend"]
    resumes = [event for event in journal if event["kind"] == "wfi_resume"]
    assert len(suspends) == 122
    assert telemetry.registry.total("wfi.suspends") == len(suspends)

    spans = telemetry.sim_spans.spans
    assert len(spans) == len(resumes) == 120
    assert Counter((span.args["core"], span.begin, span.duration)
                   for span in spans) == \
        Counter((event["core"], event["t_ps"] - event["skipped_ps"],
                 event["skipped_ps"]) for event in resumes)

    roundtrips = telemetry.registry.series_of("kvm.mmio_roundtrip_ns")
    assert sum(histogram.count for histogram in roundtrips) == \
        sum(cpu.num_mmio for cpu in vp.cpus) > 0
