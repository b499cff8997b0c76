"""Non-intrusive tracing facilities (NISTT-style, paper reference [5]).

The paper's introduction lists "insightful tracing facilities" among the
key advantages of virtual platforms, citing the authors' NISTT tool — a
non-intrusive SystemC-TLM-2.0 tracer that observes transactions without
modifying the models.  This package provides the equivalent for this VP:

* :class:`TlmTracer` subscribes to the ``transport`` probe point of
  target sockets and records every transaction (timestamp, initiator,
  command, address, data, response, annotated latency) without touching
  the models;
* IRQ lines can be attached the same way, and their level changes can be
  exported as a VCD waveform;
* recorded traces support filtering, bandwidth/statistics summaries and
  text/CSV export.
"""

from .tracer import IrqTraceRecord, TlmTracer, TraceRecord, attach_platform

__all__ = ["IrqTraceRecord", "TlmTracer", "TraceRecord", "attach_platform"]
