"""Non-intrusive tracing (NISTT-style)."""

import runpy
import tempfile
from pathlib import Path

import pytest

from repro.arch.assembler import assemble
from repro.systemc.kernel import Kernel
from repro.systemc.signal import IrqLine
from repro.systemc.time import SimTime
from repro.tlm.payload import Command
from repro.tlm.sockets import InitiatorSocket
from repro.trace import TlmTracer, attach_platform
from repro.vcml.memory import Memory
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


class TestSocketTracing:
    def make(self):
        kernel = Kernel()
        memory = Memory("ram", 0x1000, parent=kernel)
        tracer = TlmTracer(kernel)
        tracer.attach_socket(memory.in_socket, name="ram")
        initiator = InitiatorSocket("cpu", initiator_id=4)
        initiator.bind(memory.in_socket)
        return tracer, initiator, memory

    def test_records_reads_and_writes(self):
        tracer, initiator, _ = self.make()
        initiator.write_u32(0x10, 0xAABBCCDD)
        initiator.read_u32(0x10)
        assert len(tracer) == 2
        write, read = tracer.records
        assert write.command is Command.WRITE and write.address == 0x10
        assert write.data == (0xAABBCCDD).to_bytes(4, "little")
        assert read.command is Command.READ
        assert read.initiator_id == 4
        assert write.latency_ps > 0

    def test_tracing_does_not_change_behaviour(self):
        tracer, initiator, memory = self.make()
        initiator.write(0x20, b"\x55")
        assert memory.peek(0x20, 1) == b"\x55"
        assert memory.num_writes == 1

    def test_pause_resume(self):
        tracer, initiator, _ = self.make()
        tracer.pause()
        initiator.write_u32(0, 1)
        tracer.resume()
        initiator.write_u32(0, 2)
        assert len(tracer) == 1

    def test_double_attach_rejected(self):
        tracer, _, memory = self.make()
        with pytest.raises(ValueError):
            tracer.attach_socket(memory.in_socket, name="ram")
        with pytest.raises(ValueError):
            tracer.attach_socket(memory.in_socket, name="ram-again")

    def test_filtering(self):
        tracer, initiator, _ = self.make()
        initiator.write_u32(0x10, 1)
        initiator.write_u32(0x50, 2)
        initiator.read_u32(0x10)
        assert len(tracer.filter(command=Command.WRITE)) == 2
        assert len(tracer.filter(address_range=(0x40, 0x60))) == 1
        assert len(tracer.filter(socket="nope")) == 0

    def test_statistics(self):
        tracer, initiator, _ = self.make()
        initiator.write_u32(0x10, 1)
        initiator.write_u32(0x14, 2)
        initiator.read(0x10, 8)
        stats = tracer.statistics()["ram"]
        assert stats["writes"] == 2
        assert stats["reads"] == 1
        assert stats["bytes_written"] == 8
        assert stats["bytes_read"] == 8

    def test_csv_export(self, tmp_path):
        tracer, initiator, _ = self.make()
        initiator.write_u32(0x10, 0xDEAD)
        path = tmp_path / "trace.csv"
        assert tracer.to_csv(str(path)) == 1
        content = path.read_text()
        assert "0x10" in content and "WRITE" in content

    def test_capture_data_disabled(self):
        kernel = Kernel()
        memory = Memory("ram", 0x100, parent=kernel)
        tracer = TlmTracer(kernel, capture_data=False)
        tracer.attach_socket(memory.in_socket)
        initiator = InitiatorSocket("cpu")
        initiator.bind(memory.in_socket)
        initiator.write_u32(0, 1)
        assert tracer.records[0].data == b""


class TestDetachAndDoubleWrap:
    def test_second_tracer_on_same_socket_records_too(self):
        kernel = Kernel()
        memory = Memory("ram", 0x1000, parent=kernel)
        first = TlmTracer(kernel)
        first.attach_socket(memory.in_socket, name="ram")
        second = TlmTracer(kernel)
        second.attach_socket(memory.in_socket, name="ram2")
        initiator = InitiatorSocket("cpu")
        initiator.bind(memory.in_socket)
        initiator.write_u32(0, 1)
        assert [r.socket for r in first.records] == ["ram"]
        assert [r.socket for r in second.records] == ["ram2"]
        first.detach_all()
        initiator.write_u32(4, 2)
        assert len(first) == 1 and len(second) == 2

    def test_detach_all_restores_transport_and_irqs(self):
        kernel = Kernel()
        memory = Memory("ram", 0x1000, parent=kernel)
        line = IrqLine("irq", kernel)
        tracer = TlmTracer(kernel)
        tracer.attach_socket(memory.in_socket, name="ram")
        tracer.attach_irq(line, "irq")
        assert kernel.probes.subscribers("transport")
        tracer.detach_all()
        assert kernel.probes.subscribers("transport") == ()
        assert line._targets == []
        # Nothing is recorded after detaching; history stays readable.
        initiator = InitiatorSocket("cpu")
        initiator.bind(memory.in_socket)
        initiator.write_u32(0, 1)
        line.pulse()
        assert len(tracer) == 0
        assert tracer.irq_records == []

    def test_detach_then_reattach_works(self):
        kernel = Kernel()
        memory = Memory("ram", 0x1000, parent=kernel)
        first = TlmTracer(kernel)
        first.attach_socket(memory.in_socket, name="ram")
        first.detach_all()
        second = TlmTracer(kernel)
        second.attach_socket(memory.in_socket, name="ram")
        initiator = InitiatorSocket("cpu")
        initiator.bind(memory.in_socket)
        initiator.write_u32(0, 1)
        assert len(first) == 0 and len(second) == 1

    def test_irq_disconnect_unknown_callback_rejected(self):
        kernel = Kernel()
        line = IrqLine("irq", kernel)
        with pytest.raises(ValueError, match="not connected"):
            line.disconnect(lambda level: None)


class TestRingBuffer:
    def make(self, max_records):
        kernel = Kernel()
        memory = Memory("ram", 0x1000, parent=kernel)
        tracer = TlmTracer(kernel, max_records=max_records)
        tracer.attach_socket(memory.in_socket, name="ram")
        initiator = InitiatorSocket("cpu")
        initiator.bind(memory.in_socket)
        return tracer, initiator

    def test_keeps_most_recent_records(self):
        tracer, initiator = self.make(max_records=3)
        for address in range(0, 24, 4):
            initiator.write_u32(address, address)
        assert len(tracer) == 3
        assert [record.address for record in tracer.records] == [12, 16, 20]
        assert tracer.num_dropped == 3

    def test_statistics_report_drops(self):
        tracer, initiator = self.make(max_records=2)
        for address in range(0, 20, 4):
            initiator.write_u32(address, 1)
        meta = tracer.statistics()["__meta__"]
        assert meta == {"max_records": 2, "dropped_records": 3,
                        "dropped_irq_records": 0}

    def test_unbounded_tracer_has_no_meta_entry(self):
        kernel = Kernel()
        memory = Memory("ram", 0x1000, parent=kernel)
        tracer = TlmTracer(kernel)
        tracer.attach_socket(memory.in_socket, name="ram")
        assert "__meta__" not in tracer.statistics()

    def test_irq_ring_is_independent(self):
        kernel = Kernel()
        tracer = TlmTracer(kernel, max_records=2)
        line = IrqLine("irq", kernel)
        tracer.attach_irq(line, "irq")
        for _ in range(3):
            line.pulse()                     # two edges each
        assert len(tracer.irq_records) == 2
        assert tracer.num_irq_dropped == 4

    def test_to_text_and_clear_with_ring(self):
        tracer, initiator = self.make(max_records=2)
        initiator.write_u32(0, 1)
        initiator.write_u32(4, 2)
        initiator.write_u32(8, 3)
        text = tracer.to_text(limit=1)
        assert "0x00000004" in text
        tracer.clear()
        assert tracer.num_dropped == 0 and len(tracer) == 0

    def test_nonpositive_max_records_rejected(self):
        kernel = Kernel()
        with pytest.raises(ValueError):
            TlmTracer(kernel, max_records=0)


class TestIrqTracing:
    def test_edges_recorded(self):
        kernel = Kernel()
        tracer = TlmTracer(kernel)
        line = IrqLine("irq", kernel)
        tracer.attach_irq(line, "timer")
        line.raise_irq()
        line.lower_irq()
        assert [record.level for record in tracer.irq_records] == [True, False]

    def test_vcd_export(self):
        kernel = Kernel()
        tracer = TlmTracer(kernel)
        line_a = IrqLine("a", kernel)
        line_b = IrqLine("b", kernel)
        tracer.attach_irq(line_a, "uart_irq")
        tracer.attach_irq(line_b, "timer_irq")
        line_a.raise_irq()
        line_b.raise_irq()
        line_a.lower_irq()
        vcd = tracer.irq_vcd()
        assert "$timescale 1ps $end" in vcd
        assert "uart_irq" in vcd and "timer_irq" in vcd
        assert "$enddefinitions" in vcd


class TestPlatformTracing:
    def _traced_run(self):
        image = assemble(HELLO, base_address=0x1000)
        software = GuestSoftware(image=image, mode="interpreter")
        vp = build_platform("aoa", VpConfig(num_cores=1), software)
        tracer = attach_platform(vp)
        vp.run(SimTime.ms(10))
        return vp, tracer

    def test_full_platform_trace(self):
        vp, tracer = self._traced_run()
        assert vp.console_output() == "H"
        uart_writes = tracer.filter(address_range=(0x0904_0000, 0x0904_FFFF),
                                    command=Command.WRITE)
        assert len(uart_writes) == 1
        assert uart_writes[0].data == b"H"
        # The FR read was observed too.
        uart_reads = tracer.filter(address_range=(0x0904_0000, 0x0904_FFFF),
                                   command=Command.READ)
        assert len(uart_reads) == 1

    def test_trace_text_rendering(self):
        _, tracer = self._traced_run()
        text = tracer.to_text(limit=3)
        assert "bus" in text and "0x0904" in text

    def test_tracer_is_deterministically_transparent(self):
        image = assemble(HELLO, base_address=0x1000)
        software = GuestSoftware(image=image, mode="interpreter")
        plain = build_platform("aoa", VpConfig(num_cores=1), software)
        plain.run(SimTime.ms(10))
        traced, _ = self._traced_run()
        assert plain.console_output() == traced.console_output()
        assert plain.total_instructions() == traced.total_instructions()
        assert plain.wall_time_seconds() == traced.wall_time_seconds()


def test_trace_and_debug_example_runs(tmp_path, monkeypatch, capsys):
    # The example writes its crash bundle under tempfile.gettempdir().
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    example = Path(__file__).parent.parent / "examples" / "trace_and_debug.py"
    runpy.run_path(str(example), run_name="__main__")
    output = capsys.readouterr().out
    assert "total transactions observed: 3" in output
    assert "  bus: {'reads': 1, 'writes': 2, " in output
    assert list(tmp_path.glob("repro-bundles/bundle-*/meta.json"))
