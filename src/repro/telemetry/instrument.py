"""Non-intrusive instrumentation of a virtual platform.

``enable_telemetry(vp)`` attaches a :class:`Telemetry` scope, which like
:class:`~repro.flight.Flight` and :class:`~repro.obs.Obs` is an
:class:`~repro.obs.scope.ObserverScope`: one call, no model changes, pure
observation.  Every probe is a subscriber on the platform kernel's probe
bus (:mod:`repro.systemc.probes`), so

* models never know they are observed,
* behaviour is bit-for-bit identical with telemetry on and off (the
  determinism checker's DET001 digests do not move), and
* a finished run seals the platform (its fold finalizes, every
  subscription is cancelled, the platform is released) and
  ``Telemetry.detach()`` seals the rest; the registry, spans and window
  records stay readable.

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
``HostLedger``         the platform's one host-time attribution fold
                       (:class:`~repro.obs.attribution.AttributionFold`),
                       shared with obs when both attach; the span timeline
                       is laid out from its window records
                       (:func:`~repro.telemetry.spans.lay_out`)
=====================  ========================================================

Each handler resolves a series once: it keeps its instruments in a
``_Slots`` dict keyed by core (or by core and exit reason, fabric path or
kick outcome), asks the registry the first time a key occurs and updates
the instrument directly after that.  No event builds or sorts a label set,
and a series that no event touches is never created.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..obs.scope import ObserverScope, innermost, opened
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


class _Slots(dict):
    """One handler's instruments by key (a core, or a core and a reason).

    A key's instrument is fetched from the registry the first time the key
    occurs and updated directly after that, so no event looks up a label
    set, and series are still created lazily, in first-use order.
    """

    __slots__ = ("fetch",)

    def __init__(self, fetch: Callable[[Any], Any]):
        super().__init__()
        self.fetch = fetch

    def __missing__(self, key):
        value = self[key] = self.fetch(key)
        return value


class Telemetry(ObserverScope):
    """One collection scope: a registry, span recorders, attached platforms."""

    attr = "telemetry"
    uses_fold = True

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        super().__init__()
        # `is not None`, not truthiness: an empty registry is falsy via
        # __len__ but is still the caller's registry to share.
        self.registry = registry if registry is not None else MetricsRegistry()
        #: simulated-time spans (picoseconds): WFI suspend→resume pairs
        self.sim_spans = SpanRecorder(unit="ps")

    def _bind(self, vp, scope) -> None:
        vp.telemetry = scope

    def _probes(self, entry, vp) -> dict:
        kernel = vp.kernel
        registry = self.registry
        step_counter = registry.counter("kernel.dispatch", kind="step")
        method_counter = registry.counter("kernel.dispatch", kind="method")
        depth_gauge = registry.gauge("kernel.runnable_depth")
        armed = _Slots(lambda core: registry.counter("watchdog.armed",
                                                     core=core))
        fired = _Slots(lambda core: (
            registry.counter("watchdog.fired", core=core),
            registry.histogram("watchdog.fire_margin_ns", core=core)))

        def dispatch(kind: str, time_ps: int, name: str) -> None:
            (step_counter if kind == "step" else method_counter).value += 1
            depth_gauge.set(len(kernel._runnable))

        def watchdog_arm(core_id, now_ns, timeout_ns, kick_id) -> None:
            armed[core_id].value += 1

        def watchdog_fire(fire) -> None:
            counter, margin = fired[fire.core_id]
            counter.value += 1
            margin.observe(fire.margin_ns)

        return {"dispatch": dispatch, "watchdog_arm": watchdog_arm,
                "watchdog_fire": watchdog_fire,
                **self._core_probes(entry.key, vp.cpus)}

    def _core_probes(self, platform_key: str, cpus) -> dict:
        registry = self.registry
        cores = {cpu: _Core(platform_key, cpu) for cpu in cpus}
        ports = {cpu.mem: cpu.core_id for cpu in cpus}
        guards = {cpu.kick_guard: cpu.core_id for cpu in cpus
                  if getattr(cpu, "kick_guard", None) is not None}
        syncs = _Slots(lambda core: (
            registry.counter("quantum.syncs", core=core),
            registry.histogram("quantum.utilization", buckets=FRACTION_BUCKETS,
                               core=core)))
        skipped = _Slots(lambda core: registry.counter("wfi.skipped_cycles",
                                                       core=core))
        suspends = _Slots(lambda core: registry.counter("wfi.suspends",
                                                        core=core))
        accesses = _Slots(lambda key: registry.counter(
            "fabric.accesses", core=key[0], path=key[1]))
        errors = _Slots(lambda key: registry.counter(
            "fabric.errors", core=key[0], path=key[1]))
        exits = _Slots(lambda key: (
            registry.counter("kvm.exits", core=key[0], reason=key[1]),
            registry.histogram("kvm.exit_wall_ns", reason=key[1]),
            registry.histogram("kvm.exit_cycles", reason=key[1])))
        instructions = _Slots(lambda core: registry.counter(
            "kvm.instructions", core=core))
        blocked = _Slots(lambda core: registry.counter("wfi.blocked_runs",
                                                       core=core))
        roundtrips = _Slots(lambda core: registry.histogram(
            "kvm.mmio_roundtrip_ns", core=core))
        kicks = _Slots(lambda key: registry.counter(
            "watchdog.kicks_delivered" if key[1] else "watchdog.kicks_stale",
            core=key[0]))

        def quantum_sync(cpu) -> None:
            counter, utilization = syncs[cpu.core_id]
            counter.value += 1
            keeper = cpu.keeper
            utilization.observe(keeper.offset_ps
                                / keeper.global_quantum.quantum_ps)

        # WFI / WAIT_IRQ: suspend counter, skipped idle cycles, span pairs.
        def simulate_call(cpu, cycles) -> None:
            state = cores[cpu]
            if state.suspend_begin_ps is None:
                return
            begin_ps, state.suspend_begin_ps = state.suspend_begin_ps, None
            now_ps = cpu.keeper.current_time().picoseconds
            skipped_ps = max(0, now_ps - begin_ps)
            skipped_cycles = int(round(skipped_ps * 1e-12 * cpu.clock_hz))
            skipped[state.core].inc(skipped_cycles)
            self.sim_spans.complete(state.track, "wfi_suspend", begin_ps,
                                    skipped_ps, core=state.core)

        def simulate_return(cpu, result) -> None:
            # Pure observer: WAIT_IRQ is the only action with a metric;
            # every other action passes through untouched by design.
            if result.action is not SimulateAction.WAIT_IRQ:  # repro: ignore[RPR004]
                return
            state = cores[cpu]
            suspends[state.core].value += 1
            # The core will realize `result.cycles` of local time, sync,
            # then sleep: the suspend begins there.
            resume_base = (cpu.keeper.current_time()
                           + cpu.cycles_to_time(result.cycles))
            state.suspend_begin_ps = resume_base.picoseconds

        # Fabric port: which path (dmi / transport / debug) served each access.
        def fabric_access(port, path: str, ok: bool) -> None:
            key = (ports[port], path)
            accesses[key].value += 1
            if not ok:
                errors[key].value += 1

        # KVM-specific probes (IssCpu has no vcpu or kick path).
        def vcpu_exit(cpu, info) -> None:
            state = cores[cpu]
            if not state.kvm:
                return
            core = state.core
            counter, wall, cycles = exits[core, info.reason.value]
            counter.value += 1
            wall.observe(info.wall_ns)
            cycles.observe(info.instructions)
            if info.instructions:
                instructions[core].inc(info.instructions)
            if info.blocked_in_wfi:
                blocked[core].value += 1

        def mmio_request(cpu, request) -> None:
            state = cores[cpu]
            if state.kvm:
                state.mmio_begin_ns = cpu.host_now_ns

        def mmio_response(cpu, request, cycles, ok) -> None:
            state = cores[cpu]
            if not state.kvm:
                return
            roundtrips[state.core].observe(cpu.host_now_ns
                                           - state.mmio_begin_ns)

        def kick(guard, kick_id, delivered) -> None:
            kicks[guards[guard], bool(delivered)].value += 1

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

def scope_registry(registry: Optional[MetricsRegistry] = None
                   ) -> Optional[MetricsRegistry]:
    """``registry`` if given, else the innermost ``collecting()`` scope's
    registry, else None: where a tool outside any platform records."""
    if registry is not None:
        return registry
    telemetry = innermost(Telemetry)
    return telemetry.registry if telemetry is not None else None


def collecting(registry: Optional[MetricsRegistry] = None):
    """Scope within which every ``build_platform`` auto-attaches telemetry.

    ``repro.bench.runner`` wraps each experiment in one of these so the
    metrics sidecar written next to the experiment result covers every
    platform the experiment built, without the experiments knowing.
    """
    return opened(Telemetry(registry))
