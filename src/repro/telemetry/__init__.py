"""repro.telemetry — unified metrics, span profiling, and timeline export.

The observability layer for the whole VP: labeled counters/gauges/
histograms in a :class:`MetricsRegistry`, span capture on the modeled
host-time axis (one track per attribution lane, laid out from the
:class:`~repro.obs.attribution.AttributionFold` window records) and on
simulated time, and exporters for Perfetto-compatible Chrome
trace JSON, a plain-text run report, and a metrics-sidecar JSON.

Everything is opt-in and non-intrusive::

    from repro.telemetry import enable_telemetry

    vp = build_platform("aoa", config, software)
    telemetry = enable_telemetry(vp)          # as enable_flight, enable_obs
    vp.run(SimTime.ms(100))
    print(telemetry.report())
    telemetry.write_chrome_trace("trace.json")   # open in ui.perfetto.dev

Enabling telemetry changes no simulation result: every probe is a pure
subscriber on the platform kernel's probe bus (:mod:`repro.systemc.probes`)
and all timestamps come from modeled host time or simulated time, never
the Python wall clock.
"""

from .export import (
    chrome_trace,
    metrics_json,
    run_report,
    write_chrome_trace,
    write_metrics_json,
    write_run_report,
)
from .instrument import Telemetry, collecting, enable_telemetry, scope_registry
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .spans import Span, SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanRecorder",
    "Telemetry",
    "chrome_trace",
    "collecting",
    "enable_telemetry",
    "metrics_json",
    "run_report",
    "scope_registry",
    "write_chrome_trace",
    "write_metrics_json",
    "write_run_report",
]
