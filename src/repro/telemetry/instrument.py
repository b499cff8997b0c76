"""Non-intrusive instrumentation of a virtual platform.

``enable_telemetry(vp)`` is the telemetry twin of
:func:`repro.trace.attach_platform`: one call, no model changes, pure
observation.  Every probe is a subscriber on the platform kernel's probe
bus (:mod:`repro.systemc.probes`), so

* models never know they are observed,
* behaviour is bit-for-bit identical with telemetry on and off (the
  determinism checker's DET001 digests do not move), and
* ``Telemetry.detach()`` cancels every subscription.

Probes installed per platform:

=====================  ========================================================
``KvmCpu`` / ``Vcpu``  per-core exit-reason counters, per-reason wall-time and
                       cycle histograms, MMIO round-trip latency on the
                       modeled host axis (``vcpu_exit``, ``mmio_request``/
                       ``mmio_response``)
``Watchdog``           timers armed/fired, kick-id stale-vs-delivered counts,
                       fire-margin histogram (how late past the deadline the
                       software watchdog thread fires) (``watchdog_arm``,
                       ``watchdog_fire``, ``kick``)
WFI / ``WAIT_IRQ``     suspend counter, idle cycles skipped, suspend→resume
                       span pairs on the simulated-time axis
                       (``simulate_call``/``simulate_return``)
``QuantumKeeper``      sync counter and quantum-utilization histogram (local
                       offset at sync / global quantum) (``quantum_sync``)
``MemoryPort``         fabric access counters keyed by the path that served
                       each access (DMI fast path / blocking transport /
                       debug transport), plus a failed-access counter
                       (``fabric_access``)
``Kernel``             scheduler dispatch counters and a runnable-queue depth
                       gauge (``dispatch``)
``HostLedger``         one host-time attribution fold
                       (:class:`~repro.obs.attribution.AttributionFold`) per
                       platform, fed by ``host_bill``, windows closed on
                       ``time_advance`` and the rest on detach; the span
                       timeline is laid out from its window records
                       (:func:`~repro.telemetry.spans.lay_out`)
=====================  ========================================================
"""

from __future__ import annotations

import contextlib
from typing import List, Optional, Tuple

from ..obs.attribution import AttributionFold
from ..systemc.probes import Subscription
from ..vcml.processor import SimulateAction
from .metrics import MetricsRegistry
from .spans import SpanRecorder

#: fraction-valued histogram bounds (quantum utilization)
FRACTION_BUCKETS = tuple(i / 10 for i in range(1, 11)) + (1.5, 2.0)


class _Core:
    """Per-core probe state of one attached platform."""

    __slots__ = ("core", "kvm", "track", "suspend_begin_ps", "mmio_begin_ns")

    def __init__(self, platform_key: str, cpu):
        self.core = cpu.core_id
        #: KVM-backed (has a vcpu and a host clock) rather than an ISS core
        self.kvm = getattr(cpu, "vcpu", None) is not None
        self.track = f"{platform_key}.core{self.core}"
        #: where the pending WFI suspend began (ps), None when running
        self.suspend_begin_ps: Optional[int] = None
        self.mmio_begin_ns = 0.0


class Telemetry:
    """One collection scope: a registry, span recorders, attached platforms."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        # `is not None`, not truthiness: an empty registry is falsy via
        # __len__ but is still the caller's registry to share.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: simulated-time spans (picoseconds): WFI suspend→resume pairs
        self.sim_spans = SpanRecorder(unit="ps")
        #: (key, platform, AttributionFold or None) per attached platform
        self.platforms: List[Tuple[str, object, Optional[AttributionFold]]] = []
        self._subscriptions: List[Subscription] = []

    def detach(self) -> None:
        """Cancel every probe subscription and seal every host-time fold."""
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()
        for _key, vp, fold in self.platforms:
            if fold is not None:
                fold.finalize()
            if getattr(vp, "telemetry", None) is self:
                vp.telemetry = None

    # -- attachment -----------------------------------------------------------
    def attach(self, vp) -> "Telemetry":
        """Instrument a whole virtual platform (idempotence-guarded)."""
        if getattr(vp, "telemetry", None) is not None:
            raise ValueError(f"platform {vp.name!r} already has telemetry attached")
        key = f"{vp.name}#{len(self.platforms)}"
        fold = AttributionFold(vp.ledger) if vp.ledger is not None else None
        self.platforms.append((key, vp, fold))
        vp.telemetry = self
        handlers = self._platform_probes(vp.kernel)
        handlers.update(self._core_probes(key, vp.cpus))
        if fold is not None:
            handlers["host_bill"] = fold.bill
            handlers["time_advance"] = fold.advance_to
        bus = vp.kernel.probes
        self._subscriptions += [bus.subscribe(point, handler)
                                for point, handler in handlers.items()]
        return self

    def _platform_probes(self, kernel) -> dict:
        registry = self.registry
        step_counter = registry.counter("kernel.dispatch", kind="step")
        method_counter = registry.counter("kernel.dispatch", kind="method")
        depth_gauge = registry.gauge("kernel.runnable_depth")

        def dispatch(kind: str, time_ps: int, name: str) -> None:
            (step_counter if kind == "step" else method_counter).inc()
            depth_gauge.set(len(kernel._runnable))

        def watchdog_arm(core_id, now_ns, timeout_ns, kick_id) -> None:
            registry.counter("watchdog.armed", core=core_id).inc()

        def watchdog_fire(fire) -> None:
            registry.counter("watchdog.fired", core=fire.core_id).inc()
            registry.histogram("watchdog.fire_margin_ns",
                               core=fire.core_id).observe(fire.margin_ns)

        return {"dispatch": dispatch, "watchdog_arm": watchdog_arm,
                "watchdog_fire": watchdog_fire}

    def _core_probes(self, platform_key: str, cpus) -> dict:
        registry = self.registry
        cores = {cpu: _Core(platform_key, cpu) for cpu in cpus}
        ports = {cpu.mem: cpu.core_id for cpu in cpus}
        guards = {cpu.kick_guard: cpu.core_id for cpu in cpus
                  if getattr(cpu, "kick_guard", None) is not None}

        def quantum_sync(cpu) -> None:
            core = cpu.core_id
            quantum_ps = cpu.keeper.global_quantum.quantum.picoseconds
            offset_ps = cpu.keeper.local_time_offset.picoseconds
            registry.counter("quantum.syncs", core=core).inc()
            registry.histogram("quantum.utilization", buckets=FRACTION_BUCKETS,
                               core=core).observe(offset_ps / quantum_ps)

        # WFI / WAIT_IRQ: suspend counter, skipped idle cycles, span pairs.
        def simulate_call(cpu, cycles) -> None:
            state = cores[cpu]
            if state.suspend_begin_ps is None:
                return
            begin_ps, state.suspend_begin_ps = state.suspend_begin_ps, None
            now_ps = cpu.keeper.current_time().picoseconds
            skipped_ps = max(0, now_ps - begin_ps)
            skipped_cycles = int(round(skipped_ps * 1e-12 * cpu.clock_hz))
            registry.counter("wfi.skipped_cycles",
                             core=state.core).inc(skipped_cycles)
            self.sim_spans.complete(state.track, "wfi_suspend", begin_ps,
                                    skipped_ps, core=state.core)

        def simulate_return(cpu, result) -> None:
            # Pure observer: WAIT_IRQ is the only action with a metric;
            # every other action passes through untouched by design.
            if result.action is not SimulateAction.WAIT_IRQ:  # repro: ignore[RPR004]
                return
            state = cores[cpu]
            registry.counter("wfi.suspends", core=state.core).inc()
            # The core will realize `result.cycles` of local time, sync,
            # then sleep: the suspend begins there.
            resume_base = (cpu.keeper.current_time()
                           + cpu.cycles_to_time(result.cycles))
            state.suspend_begin_ps = resume_base.picoseconds

        # Fabric port: which path (dmi / transport / debug) served each access.
        def fabric_access(port, path: str, ok: bool) -> None:
            core = ports[port]
            registry.counter("fabric.accesses", core=core, path=path).inc()
            if not ok:
                registry.counter("fabric.errors", core=core, path=path).inc()

        # KVM-specific probes (IssCpu has no vcpu or kick path).
        def vcpu_exit(cpu, info) -> None:
            state = cores[cpu]
            if not state.kvm:
                return
            core = state.core
            reason = info.reason.value
            registry.counter("kvm.exits", core=core, reason=reason).inc()
            registry.histogram("kvm.exit_wall_ns", reason=reason).observe(info.wall_ns)
            registry.histogram("kvm.exit_cycles",
                               reason=reason).observe(info.instructions)
            if info.instructions:
                registry.counter("kvm.instructions",
                                 core=core).inc(info.instructions)
            if info.blocked_in_wfi:
                registry.counter("wfi.blocked_runs", core=core).inc()

        def mmio_request(cpu, request) -> None:
            state = cores[cpu]
            if state.kvm:
                state.mmio_begin_ns = cpu.host_now_ns

        def mmio_response(cpu, request, cycles, ok) -> None:
            state = cores[cpu]
            if not state.kvm:
                return
            registry.histogram("kvm.mmio_roundtrip_ns", core=state.core).observe(
                cpu.host_now_ns - state.mmio_begin_ns)

        def kick(guard, kick_id, delivered) -> None:
            core = guards[guard]
            if delivered:
                registry.counter("watchdog.kicks_delivered", core=core).inc()
            else:
                registry.counter("watchdog.kicks_stale", core=core).inc()

        return {"quantum_sync": quantum_sync, "simulate_call": simulate_call,
                "simulate_return": simulate_return,
                "fabric_access": fabric_access, "vcpu_exit": vcpu_exit,
                "mmio_request": mmio_request, "mmio_response": mmio_response,
                "kick": kick}

    # -- results ---------------------------------------------------------------
    def report(self) -> str:
        from .export import run_report
        return run_report(self)

    def chrome_trace(self) -> dict:
        from .export import chrome_trace
        return chrome_trace(self)

    def write_chrome_trace(self, path: str) -> None:
        from .export import write_chrome_trace
        write_chrome_trace(self, path)

    def metrics_snapshot(self) -> dict:
        return self.registry.snapshot()


def enable_telemetry(vp, registry: Optional[MetricsRegistry] = None) -> Telemetry:
    """Instrument ``vp`` with a fresh (or shared) registry; returns the
    :class:`Telemetry` handle, also reachable as ``vp.telemetry``.

    Idempotent: calling it again on an already-instrumented platform
    returns the existing handle instead of stacking a second set of probes
    (which would double every counter).  Pass a different ``registry`` and
    you still get the existing handle — detach first to re-instrument.
    """
    existing = getattr(vp, "telemetry", None)
    if existing is not None:
        return existing
    telemetry = Telemetry(registry)
    telemetry.attach(vp)
    return telemetry


# -- collection context (used by repro.bench and repro.vp.build_platform) ------

_ACTIVE: List[Telemetry] = []


def active_telemetry() -> Optional[Telemetry]:
    """The innermost open ``collecting()`` scope, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


def maybe_attach(vp) -> Optional[Telemetry]:
    """Attach ``vp`` to the active collection scope (no-op without one)."""
    telemetry = active_telemetry()
    if telemetry is not None:
        telemetry.attach(vp)
    return telemetry


@contextlib.contextmanager
def collecting(registry: Optional[MetricsRegistry] = None):
    """Scope within which every ``build_platform`` auto-attaches telemetry.

    ``repro.bench.runner`` wraps each experiment in one of these so the
    metrics sidecar written next to the experiment result covers every
    platform the experiment built, without the experiments knowing.
    """
    telemetry = Telemetry(registry)
    _ACTIVE.append(telemetry)
    try:
        yield telemetry
    finally:
        _ACTIVE.remove(telemetry)
        telemetry.detach()
