"""The tracer implementation.

Sockets are observed through the ``transport`` point of their probe bus —
models never know they are being observed, which is what "non-intrusive"
means in NISTT [5]: no recompilation, no inheritance, no changed
interfaces, and nothing of the socket is replaced.
"""

from __future__ import annotations

import csv
import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..systemc.kernel import Kernel
from ..systemc.probes import Subscription
from ..systemc.signal import IrqLine
from ..systemc.time import SimTime
from ..tlm.payload import Command, GenericPayload
from ..tlm.sockets import TargetSocket


@dataclass
class TraceRecord:
    """One observed TLM transaction."""

    timestamp: SimTime
    socket: str
    command: Command
    address: int
    length: int
    data: bytes
    response: str
    latency_ps: int
    initiator_id: int

    def __str__(self) -> str:
        data_hex = self.data.hex() if len(self.data) <= 8 else self.data[:8].hex() + "..."
        return (f"{str(self.timestamp):>12}  {self.socket:<20} "
                f"{self.command.name:<5} 0x{self.address:08x} len={self.length} "
                f"data={data_hex} {self.response} (+{self.latency_ps} ps) "
                f"initiator={self.initiator_id}")


@dataclass
class IrqTraceRecord:
    """One observed interrupt-line level change."""

    timestamp: SimTime
    line: str
    level: bool

    def __str__(self) -> str:
        edge = "raise" if self.level else "lower"
        return f"{str(self.timestamp):>12}  {self.line:<28} {edge}"


class TlmTracer:
    """Records TLM transactions and IRQ edges across attached observation
    points.

    With ``max_records`` the tracer keeps only the most recent that many
    TLM (and, independently, IRQ) records in a ring buffer — long runs
    stay bounded while the tail of the trace, usually the interesting
    part, survives.  Dropped-record counts are reported by
    :meth:`statistics` under the ``"__meta__"`` key.
    """

    def __init__(self, kernel: Kernel, capture_data: bool = True,
                 max_records: Optional[int] = None):
        if max_records is not None and max_records <= 0:
            raise ValueError("max_records must be positive (or None for unbounded)")
        self._kernel = kernel
        self.capture_data = capture_data
        self.max_records = max_records
        if max_records is None:
            self.records: List[TraceRecord] = []
            self.irq_records: List[IrqTraceRecord] = []
        else:
            self.records = deque(maxlen=max_records)
            self.irq_records = deque(maxlen=max_records)
        self.num_dropped = 0
        self.num_irq_dropped = 0
        self.enabled = True
        #: attached socket -> its label in the records
        self._labels: Dict[TargetSocket, str] = {}
        self._subscriptions: List[Subscription] = []
        self._irq_connections: List[Tuple[IrqLine, Callable]] = []

    # -- attachment -----------------------------------------------------------
    def attach_socket(self, socket: TargetSocket, name: Optional[str] = None) -> None:
        """Record every b_transport through ``socket``."""
        label = name or socket.name
        if socket in self._labels or label in self._labels.values():
            raise ValueError(f"socket {label!r} already attached")
        self._labels[socket] = label
        if not any(sub.bus is socket.probes for sub in self._subscriptions):
            self._subscriptions.append(
                socket.probes.subscribe("transport", self._record_transport))

    def attach_irq(self, line: IrqLine, name: Optional[str] = None) -> None:
        label = name or line.name
        callback = lambda level, _label=label: self._record_irq(_label, level)
        self._irq_connections.append((line, callback))
        line.connect(callback)

    def detach_all(self) -> None:
        """Stop observing every attached socket and IRQ line.  The recorded
        history stays readable."""
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()
        self._labels.clear()
        for line, callback in self._irq_connections:
            line.disconnect(callback)
        self._irq_connections.clear()

    # -- recording ----------------------------------------------------------------
    def _record_transport(self, socket: TargetSocket, payload: GenericPayload,
                          delay_in: SimTime, delay_out: SimTime) -> None:
        label = self._labels.get(socket)
        if label is None or not self.enabled:
            return
        if (self.max_records is not None
                and len(self.records) == self.max_records):
            self.num_dropped += 1
        self.records.append(TraceRecord(
            timestamp=self._kernel.now,
            socket=label,
            command=payload.command,
            address=payload.address,
            length=payload.length,
            data=bytes(payload.data) if self.capture_data else b"",
            response=payload.response_status.value,
            latency_ps=(delay_out - delay_in).picoseconds if delay_out >= delay_in else 0,
            initiator_id=payload.initiator_id,
        ))

    def _record_irq(self, label: str, level: bool) -> None:
        if self.enabled:
            if (self.max_records is not None
                    and len(self.irq_records) == self.max_records):
                self.num_irq_dropped += 1
            self.irq_records.append(IrqTraceRecord(self._kernel.now, label, level))

    # -- control -----------------------------------------------------------------
    def pause(self) -> None:
        self.enabled = False

    def resume(self) -> None:
        self.enabled = True

    def clear(self) -> None:
        self.records.clear()
        self.irq_records.clear()
        self.num_dropped = 0
        self.num_irq_dropped = 0

    # -- queries ------------------------------------------------------------------
    def filter(self, socket: Optional[str] = None,
               address_range: Optional[Tuple[int, int]] = None,
               command: Optional[Command] = None,
               initiator_id: Optional[int] = None) -> List[TraceRecord]:
        out = []
        for record in self.records:
            if socket is not None and record.socket != socket:
                continue
            if command is not None and record.command is not command:
                continue
            if initiator_id is not None and record.initiator_id != initiator_id:
                continue
            if address_range is not None:
                lo, hi = address_range
                if not lo <= record.address <= hi:
                    continue
            out.append(record)
        return out

    def statistics(self) -> Dict[str, dict]:
        """Per-socket access counts and byte volumes."""
        stats: Dict[str, dict] = {}
        for record in self.records:
            entry = stats.setdefault(record.socket, {
                "reads": 0, "writes": 0, "bytes_read": 0, "bytes_written": 0,
                "errors": 0,
            })
            if record.response != "ok":
                entry["errors"] += 1
            elif record.command is Command.READ:
                entry["reads"] += 1
                entry["bytes_read"] += record.length
            elif record.command is Command.WRITE:
                entry["writes"] += 1
                entry["bytes_written"] += record.length
        if self.max_records is not None:
            stats["__meta__"] = {
                "max_records": self.max_records,
                "dropped_records": self.num_dropped,
                "dropped_irq_records": self.num_irq_dropped,
            }
        return stats

    # -- export --------------------------------------------------------------------
    def to_text(self, limit: Optional[int] = None) -> str:
        records = (self.records if limit is None
                   else itertools.islice(self.records, limit))
        return "\n".join(str(record) for record in records)

    def to_csv(self, path: str) -> int:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_ps", "socket", "command", "address", "length",
                             "data", "response", "latency_ps", "initiator"])
            for record in self.records:
                writer.writerow([
                    record.timestamp.picoseconds, record.socket,
                    record.command.name, f"0x{record.address:x}", record.length,
                    record.data.hex(), record.response, record.latency_ps,
                    record.initiator_id,
                ])
        return len(self.records)

    def irq_vcd(self) -> str:
        """Render the recorded IRQ edges as a VCD waveform document."""
        lines = ["$timescale 1ps $end", "$scope module irqs $end"]
        names = []
        for record in self.irq_records:
            if record.line not in names:
                names.append(record.line)
        codes = {name: chr(33 + index) for index, name in enumerate(names)}
        for name, code in codes.items():
            safe = name.replace(" ", "_")
            lines.append(f"$var wire 1 {code} {safe} $end")
        lines.append("$upscope $end")
        lines.append("$enddefinitions $end")
        lines.append("#0")
        for code in codes.values():
            lines.append(f"0{code}")
        last_time = 0
        for record in sorted(self.irq_records, key=lambda r: r.timestamp.picoseconds):
            if record.timestamp.picoseconds != last_time:
                last_time = record.timestamp.picoseconds
                lines.append(f"#{last_time}")
            lines.append(f"{int(record.level)}{codes[record.line]}")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self.records)


def attach_platform(vp, trace_bus: bool = True, trace_irqs: bool = True,
                    capture_data: bool = True) -> TlmTracer:
    """Instrument a whole virtual platform in one call.

    Observes the bus input socket (all CPU-visible traffic) and the standard
    peripheral interrupt lines.  Purely observational: simulation results
    are bit-for-bit identical with and without the tracer.
    """
    tracer = TlmTracer(vp.kernel, capture_data=capture_data)
    if trace_bus:
        tracer.attach_socket(vp.bus.in_socket, name="bus")
    if trace_irqs:
        tracer.attach_irq(vp.uart.irq, "uart.irq")
        tracer.attach_irq(vp.rtc.irq, "rtc.irq")
        tracer.attach_irq(vp.sdhci.irq, "sdhci.irq")
        for core, line in enumerate(vp.gic.irq_out):
            tracer.attach_irq(line, f"gic.nIRQ{core}")
        for core in range(vp.config.num_cores):
            tracer.attach_irq(vp.timer.irq_line(core), f"timer.irq{core}")
    return tracer
