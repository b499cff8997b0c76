"""Wiring the flight recorder, profiler and crash bundler into a platform.

:class:`Flight` is the observability twin of
:class:`repro.telemetry.instrument.Telemetry`: one ``attach(vp)`` call, no
model changes, pure observation.  Every probe is a subscriber on the
platform kernel's probe bus (:mod:`repro.systemc.probes`), so behaviour is
bit-for-bit identical with the recorder on and off (the determinism
checker's DET001 digests do not move) and ``detach()`` cancels every
subscription.  Telemetry and flight may be attached to the same platform
in either order; each receives the same events.  The guest console and the
``SimControl`` device reach flight through the ``console_tx`` and
``simctl`` points, so their ``on_*`` slots stay free for harness code.

Crash-bundle triggers (see ``repro.flight.bundle``):

* a **wedged core** — the kick-id guard delivered a second kick for a run
  id it had already kicked, i.e. the first SIGUSR1 failed to end KVM_RUN
  (``wedge``);
* an **exception escaping kernel dispatch** (``kernel_error``);
* a **runtime sanitizer finding** (``sanitizer_finding``, emitted inside
  an active ``repro.analysis.sanitize`` scope);
* a **guest panic** via the ``SimControl`` panic register.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from ..systemc.probes import Subscription
from ..vcml.processor import SimulateAction
from .bundle import CrashBundler
from .profiler import GuestProfiler
from .recorder import FlightRecorder

#: a console line longer than this is journalled in chunks
CONSOLE_LINE_LIMIT = 256


class _Core:
    """Per-core probe state of one attached platform."""

    __slots__ = ("cpu", "core", "kvm", "track", "base", "executor",
                 "suspend_begin_ps")

    def __init__(self, platform_key: str, cpu):
        self.cpu = cpu
        self.core = cpu.core_id
        vcpu = getattr(cpu, "vcpu", None)
        #: KVM-backed (has a vcpu and a host clock) rather than an ISS core
        self.kvm = vcpu is not None
        self.track = f"{platform_key}.core{self.core}"
        self.base = (platform_key, f"core{self.core}")
        self.executor = vcpu.executor if vcpu is not None else cpu.executor
        #: where the pending WFI suspend began (ps), None when running
        self.suspend_begin_ps: Optional[int] = None

    def host_ns(self) -> Optional[float]:
        """The core's modeled host clock; an ISS core has none."""
        return self.cpu.host_now_ns if self.kvm else None


class Flight:
    """One black-box scope: recorder + profiler + bundler, attached platforms."""

    def __init__(self, capacity: int = 4096,
                 profile_interval: Optional[int] = 10_000,
                 crash_dir: Optional[str] = None,
                 last_n: int = 256, max_bundles: int = 5,
                 bundles: bool = True):
        self.recorder = FlightRecorder(capacity)
        self.profiler = (GuestProfiler(profile_interval)
                         if profile_interval else None)
        if crash_dir is None:
            crash_dir = os.environ.get("REPRO_FLIGHT_CRASH_DIR", "crash-bundles")
        self.bundler = (CrashBundler(self, crash_dir, last_n, max_bundles)
                        if bundles else None)
        #: (key, platform) per attached platform
        self.platforms: List[Tuple[str, object]] = []
        self._subscriptions: List[Subscription] = []
        self._console_buffers: List[Tuple[str, object, bytearray]] = []
        #: ring stats already published (publish_metrics records deltas)
        self._published_recorded = 0
        self._published_dropped = 0

    # -- attachment -----------------------------------------------------------
    def attach(self, vp) -> "Flight":
        """Instrument a whole virtual platform (idempotence-guarded)."""
        if getattr(vp, "flight", None) is not None:
            raise ValueError(f"platform {vp.name!r} already has a flight recorder")
        key = f"{vp.name}#{len(self.platforms)}"
        self.platforms.append((key, vp))
        vp.flight = self
        handlers = self._platform_probes(vp)
        handlers.update(self._guest_probes(key, vp))
        handlers.update(self._core_probes(key, vp))
        bus = vp.kernel.probes
        self._subscriptions += [bus.subscribe(point, handler)
                                for point, handler in handlers.items()]
        return self

    def detach(self) -> None:
        """Cancel every subscription and flush pending console/profile
        state."""
        for key, vp, buffer in self._console_buffers:
            if buffer:
                self._record_console(key, vp, buffer)
        self._console_buffers.clear()
        if self.profiler is not None:
            self.profiler.flush()
        self.publish_metrics()
        for subscription in self._subscriptions:
            subscription.cancel()
        self._subscriptions.clear()
        for _key, vp in self.platforms:
            if getattr(vp, "flight", None) is self:
                vp.flight = None

    def publish_metrics(self) -> None:
        """Publish journal ring statistics as telemetry metrics.

        ``flight.journal.recorded`` / ``flight.journal.dropped`` counters
        and a ``flight.journal.capacity`` gauge land in every distinct
        registry among the attached platforms' telemetry (falling back to
        the active ``collecting()`` scope), so the metrics sidecar shows
        whether the ring was large enough for the run.  Called from
        :meth:`detach`; safe to call again (counters record deltas since
        the last publish).
        """
        registries = []
        for _key, vp in self.platforms:
            telemetry = getattr(vp, "telemetry", None)
            registry = getattr(telemetry, "registry", None)
            if registry is not None and not any(r is registry
                                                for r in registries):
                registries.append(registry)
        if not registries:
            from ..telemetry import active_telemetry
            active = active_telemetry()
            if active is not None:
                registries.append(active.registry)
        recorded = self.recorder.num_recorded - self._published_recorded
        dropped = self.recorder.num_dropped - self._published_dropped
        self._published_recorded = self.recorder.num_recorded
        self._published_dropped = self.recorder.num_dropped
        for registry in registries:
            registry.counter("flight.journal.recorded").inc(recorded)
            registry.counter("flight.journal.dropped").inc(dropped)
            registry.gauge("flight.journal.capacity").set(self.recorder.capacity)

    # -- outputs ----------------------------------------------------------------
    def write_journal(self, path: str, last: Optional[int] = None) -> int:
        return self.recorder.write_jsonl(path, last=last)

    def force_watchdog_fire(self, vp, core: int = 0) -> Optional[str]:
        """Simulate a wedged core for demos/tests: the same run id is armed
        twice with a zero budget, so advancing the watchdog delivers two
        kicks for one kick id — the bundler's wedge trigger.  Returns the
        bundle path (None if bundling is off or the cap was hit)."""
        cpu = vp.cpus[core]
        guard = cpu.kick_guard
        now_ns = cpu.host_now_ns
        bundles_before = len(self.bundler.bundles) if self.bundler else 0
        guard.arm(vp.watchdog, core, now_ns, 0.0)
        guard.arm(vp.watchdog, core, now_ns, 0.0)
        vp.watchdog.advance(core, now_ns)
        if self.bundler and len(self.bundler.bundles) > bundles_before:
            return self.bundler.bundles[-1]
        return None

    # -- kernel, watchdog and sanitizers --------------------------------------
    def _platform_probes(self, vp) -> dict:
        kernel = vp.kernel
        record = self.recorder.record

        def kernel_error(exc: BaseException) -> None:
            record("kernel_error", kernel.now.picoseconds,
                   error=f"{type(exc).__name__}: {exc}")
            if self.bundler is not None:
                self.bundler.trigger(vp, "kernel-error",
                                     detail=f"{type(exc).__name__}: {exc}")

        def watchdog_arm(core_id, now_ns, timeout_ns, kick_id) -> None:
            record("watchdog_arm", kernel.now.picoseconds, host_ns=now_ns,
                   core=core_id, budget_ns=round(timeout_ns, 3),
                   kick_id=kick_id)

        def watchdog_fire(fire) -> None:
            record("watchdog_fire", kernel.now.picoseconds,
                   host_ns=fire.fired_at_ns, core=fire.core_id,
                   kick_id=fire.kick_id,
                   budget_ns=(None if fire.budget_ns is None
                              else round(fire.budget_ns, 3)),
                   margin_ns=round(fire.margin_ns, 3))

        def sanitizer_finding(finding) -> None:
            record("sanitizer", kernel.now.picoseconds, rule=finding.rule,
                   path=finding.path, message=finding.message)
            if self.bundler is not None:
                self.bundler.trigger(vp, "sanitizer",
                                     detail=f"{finding.rule}: {finding.message}")

        return {"kernel_error": kernel_error, "watchdog_arm": watchdog_arm,
                "watchdog_fire": watchdog_fire,
                "sanitizer_finding": sanitizer_finding}

    # -- guest console and SimControl -----------------------------------------
    def _guest_probes(self, key: str, vp) -> dict:
        kernel = vp.kernel
        uart = vp.uart
        buffer = bytearray()
        self._console_buffers.append((key, vp, buffer))

        def console_tx(source, byte: int) -> None:
            if source is not uart:
                return
            if byte == 0x0A:
                self._record_console(key, vp, buffer)
            else:
                buffer.append(byte)
                if len(buffer) >= CONSOLE_LINE_LIMIT:
                    self._record_console(key, vp, buffer)

        def simctl(what: str, value: int) -> None:
            now_ps = kernel.now.picoseconds
            if what == "boot_done":
                self.recorder.record("simctl", now_ps, what=what)
            elif what == "checkpoint":
                self.recorder.record("simctl", now_ps, what=what, value=value)
            else:
                self.recorder.record("simctl", now_ps, what=what, code=value)
            if what == "panic" and self.bundler is not None:
                self.bundler.trigger(vp, "guest-panic",
                                     detail=f"guest panic, code {value}")

        return {"console_tx": console_tx, "simctl": simctl}

    def _record_console(self, key: str, vp, buffer: bytearray) -> None:
        text = bytes(buffer).decode("utf-8", errors="replace")
        del buffer[:]
        self.recorder.record("console", vp.kernel.now.picoseconds, text=text)

    # -- CPU cores ---------------------------------------------------------------
    def _core_probes(self, key: str, vp) -> dict:
        kernel = vp.kernel
        record = self.recorder.record
        profiler = self.profiler
        symbolize = self._symbolizer(vp)
        cores = {cpu: _Core(key, cpu) for cpu in vp.cpus}
        guards = {cpu.kick_guard: cpu for cpu in vp.cpus
                  if getattr(cpu, "kick_guard", None) is not None}

        def stack_at(core: "_Core", pc: int):
            frames = list(core.base)
            state = getattr(core.executor, "state", None)
            if state is not None:
                caller = symbolize(state.lr, fallback=False)
                if caller is not None:
                    frames.append(caller)
            frames.append(symbolize(pc))
            return tuple(frames)

        def retire(cpu, instructions: int, pc: int) -> None:
            if instructions > 0:
                core = cores[cpu]
                profiler.account(core.track, instructions, stack_at(core, pc))

        # MMIO: request/response events around the TLM round trip.
        def mmio_request(cpu, request) -> None:
            is_write = bool(request.is_write)
            size = len(request.data) if is_write else request.size
            record("mmio_req", kernel.now.picoseconds,
                   host_ns=cores[cpu].host_ns(), core=cpu.core_id,
                   address=request.address, write=is_write, size=size)

        def mmio_response(cpu, request, cycles: int, ok: bool) -> None:
            record("mmio_resp", kernel.now.picoseconds,
                   host_ns=cores[cpu].host_ns(), core=cpu.core_id,
                   address=request.address, cycles=cycles, error=not ok)

        def irq(cpu, number: int, level) -> None:
            record("irq", kernel.now.picoseconds, core=cpu.core_id,
                   line=number, level=bool(level))

        # WFI suspend/resume pairs on the simulated-time axis.
        def simulate_call(cpu, cycles: int) -> None:
            core = cores[cpu]
            if core.suspend_begin_ps is not None:
                begin_ps, core.suspend_begin_ps = core.suspend_begin_ps, None
                now_ps = cpu.keeper.current_time().picoseconds
                record("wfi_resume", now_ps, core=core.core,
                       skipped_ps=max(0, now_ps - begin_ps))

        def simulate_return(cpu, result) -> None:
            # Pure observer: only WAIT_IRQ leaves a journal entry.
            if result.action is SimulateAction.WAIT_IRQ:  # repro: ignore[RPR004]
                resume_base = (cpu.keeper.current_time()
                               + cpu.cycles_to_time(result.cycles))
                record("wfi_suspend", resume_base.picoseconds, core=cpu.core_id)
                cores[cpu].suspend_begin_ps = resume_base.picoseconds

        def quantum_sync(cpu) -> None:
            record("quantum_sync", kernel.now.picoseconds, core=cpu.core_id,
                   offset_ps=cpu.keeper.local_time_offset.picoseconds)

        def vcpu_exit(cpu, info) -> None:
            if cores[cpu].kvm:
                record("kvm_exit", kernel.now.picoseconds,
                       host_ns=cpu.host_now_ns + info.wall_ns, core=cpu.core_id,
                       reason=info.reason.value, pc=info.pc,
                       instructions=info.instructions,
                       wall_ns=round(info.wall_ns, 3),
                       blocked_in_wfi=info.blocked_in_wfi)
            else:
                record("cpu_exit", kernel.now.picoseconds, core=cpu.core_id,
                       reason=info.reason.name.lower(), pc=info.pc,
                       instructions=info.instructions)

        # KVM model: kick filtering and wedge detection.
        def kick(guard, kick_id: int, delivered: bool) -> None:
            cpu = guards[guard]
            record("watchdog_kick", kernel.now.picoseconds,
                   host_ns=cpu.host_now_ns, core=cpu.core_id, kick_id=kick_id,
                   delivered=delivered)

        def wedge(guard, kick_id: int) -> None:
            cpu = guards[guard]
            core = cpu.core_id
            record("watchdog_wedge", kernel.now.picoseconds,
                   host_ns=cpu.host_now_ns, core=core, kick_id=kick_id)
            if self.bundler is not None:
                self.bundler.trigger(
                    vp, "watchdog",
                    detail=(f"core {core} kicked twice for run {kick_id}: "
                            "SIGUSR1 did not end KVM_RUN"),
                    payload={"core": core, "kick_id": kick_id})

        handlers = {"mmio_request": mmio_request, "mmio_response": mmio_response,
                    "irq": irq, "simulate_call": simulate_call,
                    "simulate_return": simulate_return,
                    "quantum_sync": quantum_sync, "vcpu_exit": vcpu_exit,
                    "kick": kick, "wedge": wedge}
        if profiler is not None:
            handlers["retire"] = retire
        return handlers

    # -- symbolization -----------------------------------------------------------
    @staticmethod
    def _symbolizer(vp):
        image = vp.software.image
        offset = vp.software.load_offset

        def symbolize(pc: int, fallback: bool = True) -> Optional[str]:
            name = image.symbol_at(pc - offset)
            if name is not None:
                return name
            return f"0x{pc:x}" if fallback else None

        return symbolize


def enable_flight(vp, **kwargs) -> Flight:
    """Attach a fresh :class:`Flight` to ``vp``; also reachable as
    ``vp.flight``."""
    flight = Flight(**kwargs)
    flight.attach(vp)
    return flight
