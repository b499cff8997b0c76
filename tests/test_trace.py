"""Non-intrusive tracing (NISTT-style): the flight journal's tracer views.

Flight journals every transaction through the platform bus as one
``transport`` entry and every interrupt-line edge as one ``irq`` entry;
``FlightRecorder.transports``/``statistics``/``to_text``/``irq_vcd`` read
them back.
"""

import runpy
import tempfile
from pathlib import Path

import pytest

from repro.arch.assembler import assemble
from repro.flight import FlightRecorder, enable_flight
from repro.systemc.time import SimTime
from repro.tlm.sockets import InitiatorSocket
from repro.vp import GuestSoftware, VpConfig, build_platform

HELLO = """
_start:
    movz x1, #0x0904, lsl #16
    movz x2, #0x48
    strb x2, [x1]
    ldrw x3, [x1, #0x18]      // UART FR
    movz x4, #0x090F, lsl #16
    str x4, [x4]
    hlt #0
"""

UART = (0x0904_0000, 0x0904_FFFF)


def make_vp():
    image = assemble(HELLO, base_address=0x1000)
    software = GuestSoftware(image=image, mode="interpreter")
    return build_platform("aoa", VpConfig(num_cores=1), software)


def traced_run(capacity=4096):
    vp = make_vp()
    flight = enable_flight(vp, capacity=capacity, bundles=False)
    vp.run(SimTime.ms(10))
    return vp, flight


def data_of(event):
    return dict(event.data)


class TestSocketTracing:
    def test_records_reads_and_writes(self):
        _, flight = traced_run()
        write, read, shutdown = flight.recorder.transports()
        assert data_of(write) == {"address": 0x0904_0000, "command": "write",
                                  "data": "48", "latency_ps": 10_000,
                                  "length": 1, "response": "ok"}
        assert data_of(read)["command"] == "read"
        assert data_of(read)["address"] == 0x0904_0018
        assert data_of(shutdown)["address"] == 0x090F_0000
        # Initiator 0 is the KVM core; its modeled host clock moves on.
        assert [event.core for event in (write, read, shutdown)] == [0, 0, 0]
        assert 0 < write.host_ns < read.host_ns < shutdown.host_ns

    def test_tracing_does_not_change_behaviour(self):
        plain = make_vp()
        plain.run(SimTime.ms(10))
        traced, _ = traced_run()
        assert traced.uart.tx_log == plain.uart.tx_log == b"H"
        assert ((traced.uart.num_reads, traced.uart.num_writes)
                == (plain.uart.num_reads, plain.uart.num_writes) == (1, 1))

    def test_double_attach_rejected(self):
        vp = make_vp()
        enable_flight(vp, bundles=False)
        with pytest.raises(ValueError, match="already has flight"):
            enable_flight(vp, bundles=False)

    def test_filtering(self):
        _, flight = traced_run()
        journal = flight.recorder
        assert len(journal.transports(command="write")) == 2
        assert len(journal.transports(address_range=(0x0904_0010, 0x0904_0020))) == 1
        assert len(journal.transports(core=0)) == 3
        assert journal.transports(core=3) == []

    def test_statistics(self):
        _, flight = traced_run()
        assert flight.recorder.statistics() == {
            "reads": 1, "writes": 2, "bytes_read": 4, "bytes_written": 9,
            "errors": 0}


class TestDetachAndDoubleWrap:
    def test_detach_all_restores_transport_and_irqs(self):
        vp = make_vp()
        flight = enable_flight(vp, bundles=False)
        harness = InitiatorSocket("harness", initiator_id=7)
        harness.bind(vp.bus.in_socket)
        harness.write_u32(0x100, 1)
        vp.uart.irq.pulse()
        probes = vp.kernel.probes
        assert probes.subscribers("transport") and probes.subscribers("irq")
        flight.detach()
        assert probes.subscribers("transport") == ()
        assert probes.subscribers("irq") == ()
        # Nothing is recorded after detaching; history stays readable.
        recorded = flight.recorder.num_recorded
        harness.write_u32(0x104, 2)
        vp.uart.irq.pulse()
        assert flight.recorder.num_recorded == recorded
        assert [event.core for event in flight.recorder.transports()] == [7]
        assert len(flight.recorder.of_kind("irq")) == 4

    def test_second_tracer_on_same_socket_records_too(self):
        vp = make_vp()
        flight = enable_flight(vp, bundles=False)
        bus = vp.bus.in_socket
        seen = []
        second = vp.kernel.probes.subscribe(
            "transport", lambda socket, payload, delay_in, delay_out:
            seen.append(payload.address) if socket is bus else None)
        harness = InitiatorSocket("harness", initiator_id=7)
        harness.bind(bus)
        harness.write_u32(0x100, 1)
        assert len(flight.recorder.transports()) == 1 and seen == [0x100]
        flight.detach()
        harness.write_u32(0x104, 2)
        assert len(flight.recorder.transports()) == 1 and seen == [0x100, 0x104]
        second.cancel()

    def test_detach_then_reattach_works(self):
        vp = make_vp()
        first = enable_flight(vp, bundles=False)
        first.detach()
        second = enable_flight(vp, bundles=False)
        vp.run(SimTime.ms(10))
        assert first.recorder.transports() == []
        assert len(second.recorder.transports()) == 3


class TestRingBuffer:
    def test_keeps_most_recent_records(self):
        _, full = traced_run()
        events = list(full.recorder)
        _, ring = traced_run(capacity=3)
        assert len(ring.recorder) == 3
        assert ring.recorder.num_dropped == len(events) - 3
        assert list(ring.recorder) == events[-3:]

    def test_to_text_with_ring(self):
        _, full = traced_run()
        events = list(full.recorder)
        # Keep the journal from the second transport (the FR read) on.
        second = full.recorder.transports()[1].seq
        _, ring = traced_run(capacity=len(events) - second)
        text = ring.recorder.to_text(limit=1)
        assert "read  0x09040018 len=4" in text
        assert "\n" not in text and "0x09040000" not in text

    def test_statistics_report_drops(self):
        _, full = traced_run()
        events = list(full.recorder)
        second = full.recorder.transports()[1].seq
        _, ring = traced_run(capacity=len(events) - second)
        assert ring.recorder.num_dropped == second
        # The UART write fell out of the ring; statistics count what is kept.
        full_stats = full.recorder.statistics()
        ring_stats = ring.recorder.statistics()
        assert ring_stats["writes"] == full_stats["writes"] - 1
        assert ring_stats["bytes_written"] == full_stats["bytes_written"] - 1
        assert ring_stats["reads"] == full_stats["reads"]

    def test_nonpositive_max_records_rejected(self):
        for capacity in (0, -1):
            with pytest.raises(ValueError):
                enable_flight(make_vp(), capacity=capacity, bundles=False)


class TestIrqTracing:
    def test_edges_recorded(self):
        vp = make_vp()
        flight = enable_flight(vp, bundles=False)
        vp.uart.irq.raise_irq()
        vp.uart.irq.lower_irq()
        edges = [(data["line"], data["level"]) for data
                 in map(data_of, flight.recorder.of_kind("irq"))]
        # Each edge is journalled on the UART line before the GIC input
        # it drives.
        spi = vp.gic.spi_in(vp.IRQ_UART).name
        assert edges == [("aoa.uart.irq", True), (spi, True),
                         ("aoa.uart.irq", False), (spi, False)]

    def test_vcd_export(self):
        vp = make_vp()
        flight = enable_flight(vp, bundles=False)
        vp.uart.irq.raise_irq()
        vp.rtc.irq.raise_irq()
        vp.uart.irq.lower_irq()
        vcd = flight.recorder.irq_vcd()
        assert "$timescale 1ps $end" in vcd
        assert "aoa.uart.irq" in vcd and "aoa.rtc.irq" in vcd
        assert "$enddefinitions" in vcd

    def test_vcd_codes_stay_unique_past_94_lines(self):
        journal = FlightRecorder()
        for index in range(200):
            journal.record("irq", t_ps=index, level=True, line=f"line{index}")
        declared = [line.split()[3] for line in journal.irq_vcd().splitlines()
                    if line.startswith("$var")]
        assert len(declared) == len(set(declared)) == 200
        assert all(33 <= ord(char) <= 126 for code in declared for char in code)


class TestPlatformTracing:
    def test_full_platform_trace(self):
        vp, flight = traced_run()
        assert vp.console_output() == "H"
        uart_writes = flight.recorder.transports(address_range=UART,
                                                 command="write")
        assert [data_of(event)["data"] for event in uart_writes] == ["48"]
        # The FR read was observed too.
        assert len(flight.recorder.transports(address_range=UART,
                                              command="read")) == 1

    def test_trace_text_rendering(self):
        _, flight = traced_run()
        text = flight.recorder.to_text(limit=3)
        assert len(text.splitlines()) == 3
        assert "write 0x09040000 len=1 data=48 ok" in text

    def test_tracer_is_deterministically_transparent(self):
        plain = make_vp()
        plain.run(SimTime.ms(10))
        traced, _ = traced_run()
        assert plain.console_output() == traced.console_output()
        assert plain.total_instructions() == traced.total_instructions()
        assert plain.wall_time_seconds() == traced.wall_time_seconds()


def test_trace_and_debug_example_runs(tmp_path, monkeypatch, capsys):
    # The example's crash bundle goes to a temporary directory under
    # tempfile.gettempdir(), removed when the example exits.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    example = Path(__file__).parent.parent / "examples" / "trace_and_debug.py"
    runpy.run_path(str(example), run_name="__main__")
    output = capsys.readouterr().out
    assert "total transactions observed: 3" in output
    assert "  bus: {'reads': 1, 'writes': 2, " in output
    assert "$enddefinitions $end" in output
    assert "$var wire 1 % aoa.timer.irq0 $end" in output
    assert "bundle reason  : watchdog (core 0 kicked twice" in output
    assert not list(tmp_path.glob("repro-bundles*"))
