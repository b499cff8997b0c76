"""Exporters: Chrome trace-event JSON, plain-text run report, metrics JSON.

The Chrome trace document loads directly into Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``: one *process* per
attached platform for the modeled host-time axis with one *thread track*
per attribution lane (the SystemC main thread + one per core, in either
mode — lane overlap makes the sequential-sum vs parallel-max fold
visible), per-lane utilization counter tracks (one sample per quantum
window), cross-lane MMIO flow arrows in parallel mode, plus one process
for simulated-time spans (WFI suspend→resume pairs).  Every host-time
event derives from :func:`~repro.telemetry.spans.lay_out` over the
platform's attribution-fold window records.

Timestamps: Chrome traces use microseconds.  Host-time spans are modeled
nanoseconds (÷ 1e3), simulated-time spans are picoseconds (÷ 1e6).  Both
axes start at zero — they are different clocks and deliberately live in
different trace processes.
"""

from __future__ import annotations

import json
from typing import Dict, List, Tuple

from ..obs.attribution import PHASE_MMIO, lane_name
from .metrics import Histogram, MetricsRegistry
from .spans import Span, lay_out


def _lane_tid(track: str) -> int:
    """Thread id of a lane track; also the track order (main, then cores)."""
    if track == "main":
        return 0
    return int(track.replace("core", "")) + 1


def _mmio_flows(spans: List[Span]) -> List[Tuple[Span, Span]]:
    """(worker MMIO span, same window's main-lane MMIO span) pairs."""
    main_mmio = {span.args["window"]: span for span in spans
                 if span.name == PHASE_MMIO and span.track == "main"}
    return [(span, main_mmio[span.args["window"]]) for span in spans
            if span.name == PHASE_MMIO and span.track != "main"
            and span.args["window"] in main_mmio]


# -- Chrome trace-event JSON ----------------------------------------------------

def chrome_trace(telemetry) -> Dict[str, object]:
    """Build the trace-event document for everything ``telemetry`` captured."""
    events: List[Dict[str, object]] = []

    def metadata(pid: int, tid: int, name: str, what: str) -> None:
        events.append({"ph": "M", "pid": pid, "tid": tid, "name": what,
                       "args": {"name": name}})

    # Host-time timelines: one process per platform.
    for index, entry in enumerate(telemetry.platforms):
        fold = entry.fold
        if fold is None:
            continue
        pid = index + 1
        metadata(pid, 0, f"{entry.key} host-time (modeled)", "process_name")
        records = fold.records(include_open=True)
        layout = lay_out(records, fold.ledger.parallel)
        for track in sorted({span.track for span in layout.spans},
                            key=_lane_tid):
            label = ("SystemC main thread" if track == "main"
                     else f"{track} worker")
            metadata(pid, _lane_tid(track), label, "thread_name")
        for span in layout.spans:
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": span.begin / 1e3,        # ns -> us
                "dur": span.duration / 1e3,
                "pid": pid,
                "tid": _lane_tid(span.track),
                "cat": "host",
                "args": dict(span.args),
            })

        # Per-lane utilization counter tracks: one sample per quantum
        # window (busy_ns / wall_ns), plus a trailing zero so the last
        # sample has a visible extent in Perfetto.
        lanes = sorted({lane for record in records for lane in record.busy_ns})
        samples = [(start_ns, {lane: busy / record.wall_ns
                               for lane, busy in record.busy_ns.items()})
                   for record, start_ns in zip(records, layout.starts)
                   if record.wall_ns > 0]
        samples.append((layout.extent_ns, {}))
        for start_ns, utilization in samples:
            for lane in lanes:
                events.append({
                    "name": f"util.{lane_name(lane)}",
                    "ph": "C",
                    "ts": start_ns / 1e3,
                    "pid": pid,
                    "tid": 0,
                    "cat": "host",
                    "args": {"utilization":
                             round(utilization.get(lane, 0.0), 6)},
                })

        # Cross-lane MMIO flow arrows (parallel mode only): "s" at a worker
        # lane's MMIO span, "f" at the same window's main-lane MMIO span
        # (the peripheral access that completes the round trip).
        flows = _mmio_flows(layout.spans) if fold.ledger.parallel else []
        for flow_id, (source, target) in enumerate(flows):
            common = {"cat": "mmio", "name": "mmio-roundtrip", "pid": pid,
                      "id": f"{pid}.{flow_id}",
                      "args": {"window": source.args["window"]}}
            events.append({**common, "ph": "s", "ts": source.begin / 1e3,
                           "tid": _lane_tid(source.track)})
            events.append({**common, "ph": "f", "bp": "e",
                           "ts": target.begin / 1e3,
                           "tid": _lane_tid(target.track)})

    # Simulated-time spans (WFI suspends) in their own process.
    if telemetry.sim_spans.spans:
        pid = len(telemetry.platforms) + 1
        metadata(pid, 0, "sim-time (target)", "process_name")
        track_tids = {track: tid for tid, track
                      in enumerate(telemetry.sim_spans.tracks())}
        for track, tid in track_tids.items():
            metadata(pid, tid, track, "thread_name")
        for span in telemetry.sim_spans.spans:
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": span.begin / 1e6,        # ps -> us
                "dur": span.duration / 1e6,
                "pid": pid,
                "tid": track_tids[span.track],
                "cat": "sim",
                "args": dict(span.args),
            })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry"},
    }


def write_chrome_trace(telemetry, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(chrome_trace(telemetry), handle, indent=1)


# -- metrics sidecar JSON --------------------------------------------------------

def metrics_json(registry: MetricsRegistry) -> Dict[str, object]:
    return registry.snapshot()


def write_metrics_json(registry: MetricsRegistry, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(metrics_json(registry), handle, indent=1, sort_keys=True)


# -- plain-text run report -------------------------------------------------------

def _histogram_line(histogram: Histogram) -> str:
    if histogram.count == 0:
        return "count=0"
    return (f"count={histogram.count} mean={histogram.mean:.1f} "
            f"min={histogram.min:.1f} max={histogram.max:.1f} "
            f"p90<={histogram.quantile(0.9):g}")


def _fmt_ns(nanoseconds: float) -> str:
    if nanoseconds >= 1e9:
        return f"{nanoseconds / 1e9:.3f} s"
    if nanoseconds >= 1e6:
        return f"{nanoseconds / 1e6:.3f} ms"
    if nanoseconds >= 1e3:
        return f"{nanoseconds / 1e3:.1f} us"
    return f"{nanoseconds:.0f} ns"


def run_report(telemetry) -> str:
    """Human-readable summary of every instrumented mechanism.

    The headline sections always render (zero-valued when a mechanism never
    engaged) so a report is comparable across runs and configurations.
    """
    registry = telemetry.registry
    lines: List[str] = ["=== telemetry run report ==="]
    platform_keys = [entry.key for entry in telemetry.platforms]
    lines.append("platforms: " + (", ".join(platform_keys) or "(none attached)"))

    # -- KVM exits ---------------------------------------------------------
    lines.append("")
    lines.append("-- KVM exits --")
    cores = sorted({instrument.labels["core"]
                    for instrument in registry.series_of("kvm.exits")})
    if not cores:
        lines.append("(no KVM cores attached)")
    for core in cores:
        parts = []
        for instrument in registry.series_of("kvm.exits"):
            if instrument.labels["core"] == core:
                parts.append(f"{instrument.labels['reason']}={instrument.value}")
        lines.append(f"core {core}: " + " ".join(parts))
    for instrument in registry.series_of("kvm.exit_wall_ns"):
        lines.append(f"exit wall ns [{instrument.labels['reason']}]: "
                     + _histogram_line(instrument))
    for instrument in registry.series_of("kvm.mmio_roundtrip_ns"):
        lines.append(f"mmio roundtrip ns [core {instrument.labels['core']}]: "
                     + _histogram_line(instrument))

    # -- watchdog ------------------------------------------------------------
    lines.append("")
    lines.append("-- watchdog --")
    lines.append(
        f"kicks: armed={registry.total('watchdog.armed'):.0f} "
        f"fired={registry.total('watchdog.fired'):.0f} "
        f"delivered={registry.total('watchdog.kicks_delivered'):.0f} "
        f"stale(kick-id filtered)={registry.total('watchdog.kicks_stale'):.0f}")
    for instrument in registry.series_of("watchdog.fire_margin_ns"):
        lines.append(f"fire margin ns [core {instrument.labels['core']}]: "
                     + _histogram_line(instrument))

    # -- WFI ------------------------------------------------------------------
    lines.append("")
    lines.append("-- WFI idle skipping --")
    lines.append(
        f"suspends={registry.total('wfi.suspends'):.0f} "
        f"skipped cycles={registry.total('wfi.skipped_cycles'):.0f} "
        f"blocked runs (no annotation)={registry.total('wfi.blocked_runs'):.0f}")

    # -- quantum ---------------------------------------------------------------
    lines.append("")
    lines.append("-- quantum --")
    lines.append(f"syncs={registry.total('quantum.syncs'):.0f}")
    utilization = registry.series_of("quantum.utilization")
    if utilization:
        for instrument in utilization:
            lines.append(
                f"utilization [core {instrument.labels['core']}]: "
                f"count={instrument.count} mean={instrument.mean:.3f} "
                f"min={instrument.min:.3f} max={instrument.max:.3f}")
    else:
        lines.append("utilization: (no syncs observed)")

    # -- scheduler ---------------------------------------------------------------
    lines.append("")
    lines.append("-- scheduler --")
    lines.append(f"dispatches: step={registry.total('kernel.dispatch', kind='step'):.0f} "
                 f"method={registry.total('kernel.dispatch', kind='method'):.0f}")
    depth = registry.get("kernel.runnable_depth")
    if depth is not None and depth.updates:
        lines.append(f"runnable-queue depth: last={depth.value} max={depth.max}")

    # -- host timeline -------------------------------------------------------------
    lines.append("")
    lines.append("-- host timeline --")
    for entry in telemetry.platforms:
        fold = entry.fold
        if fold is None:
            lines.append(f"{entry.key}: (host-time tracking disabled)")
            continue
        records = fold.records(include_open=True)
        layout = lay_out(records, fold.ledger.parallel)
        ledger_ns = fold.ledger.wall_time_ns()
        delta_pct = (abs(layout.extent_ns - ledger_ns) / ledger_ns * 100.0
                     if ledger_ns else 0.0)
        mode = "parallel(max)" if fold.ledger.parallel else "sequential(sum)"
        lines.append(f"{entry.key} [{mode}]: timeline={_fmt_ns(layout.extent_ns)} "
                     f"ledger={_fmt_ns(ledger_ns)} delta={delta_pct:.3f}% "
                     f"windows={len(records)}")
        totals: Dict[str, float] = {}
        for span in layout.spans:
            totals[span.track] = totals.get(span.track, 0.0) + span.duration
        for track in sorted(totals, key=_lane_tid):
            lines.append(f"  lane {track}: busy {_fmt_ns(totals[track])}")

    # -- full catalog -----------------------------------------------------------------
    lines.append("")
    lines.append("-- metric catalog --")
    for instrument in registry:
        if isinstance(instrument, Histogram):
            lines.append(f"{instrument.series_name}  {_histogram_line(instrument)}")
        else:
            lines.append(f"{instrument.series_name}  {instrument.to_json()['value']}")
    return "\n".join(lines) + "\n"


def write_run_report(telemetry, path: str) -> None:
    with open(path, "w") as handle:
        handle.write(run_report(telemetry))
