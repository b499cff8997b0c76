"""Wiring the flight recorder, profiler and crash bundler into a platform.

:class:`Flight`, like :class:`~repro.telemetry.Telemetry` and
:class:`~repro.obs.Obs`, is an :class:`~repro.obs.scope.ObserverScope`:
one ``attach(vp)`` call, no model changes, pure observation.  Every probe
is a subscriber on the platform kernel's probe bus
(:mod:`repro.systemc.probes`), so behaviour is bit-for-bit identical with
the recorder on and off (the determinism checker's DET001 digests do not
move).  A finished run seals the platform (every subscription cancelled,
the platform released); ``detach()`` seals the rest, then journals each
platform's unfinished console line and publishes the ring statistics.
Telemetry and flight may be attached to the same platform in either
order; each receives the same events.  The guest console and the
``SimControl`` device reach flight through the ``console_tx`` and
``simctl`` points, so their ``on_*`` slots stay free for harness code.
Each handler journals one entry from one emission: the processor loop
emits ``wfi_suspend`` and ``wfi_resume`` (which carries the suspend's
begin), so no handler keeps state that pairs two events.

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

from ..obs.scope import ObserverScope
from ..telemetry import scope_registry
from ..tlm.payload import Command
from .bundle import CrashBundler
from .profiler import GuestProfiler
from .recorder import FlightRecorder

#: a console line longer than this is journalled in chunks
CONSOLE_LINE_LIMIT = 256

#: a transport entry's ``command`` value
_COMMANDS = {command: command.name.lower() for command in Command}

#: where crash bundles go when ``Flight`` is given no ``crash_dir``
CRASH_DIR_ENV = "REPRO_FLIGHT_CRASH_DIR"


class _Core:
    """Per-core probe state of one attached platform."""

    __slots__ = ("core", "kvm", "track", "base", "executor")

    def __init__(self, platform_key: str, cpu):
        self.core = cpu.core_id
        vcpu = getattr(cpu, "vcpu", None)
        #: KVM-backed (has a vcpu and a host clock) rather than an ISS core
        self.kvm = vcpu is not None
        self.track = f"{platform_key}.core{self.core}"
        self.base = (platform_key, f"core{self.core}")
        self.executor = vcpu.executor if vcpu is not None else cpu.executor


class Flight(ObserverScope):
    """One black-box scope: recorder + profiler + bundler, attached platforms."""

    attr = "flight"

    def __init__(self, capacity: int = 4096,
                 profile_interval: Optional[int] = 10_000,
                 crash_dir: Optional[str] = None,
                 last_n: int = 256, max_bundles: int = 5,
                 bundles: bool = True):
        super().__init__()
        self.recorder = FlightRecorder(capacity)
        self.profiler = (GuestProfiler(profile_interval)
                         if profile_interval else None)
        if crash_dir is None:
            crash_dir = _env_crash_dir()
        self.bundler = (CrashBundler(self, crash_dir, last_n, max_bundles)
                        if bundles else None)
        #: (entry, pending console bytes) per attached platform
        self._console_buffers: List[Tuple[object, bytearray]] = []
        #: the attached platforms' telemetry registries, seen at attach or seal
        self._registries: list = []
        #: ring stats already published (publish_metrics records deltas)
        self._published_recorded = 0
        self._published_dropped = 0

    def _bind(self, vp, scope) -> None:
        vp.flight = scope

    def _on_seal(self, entry, vp) -> None:
        self._note_registry(vp)

    def _note_registry(self, vp) -> None:
        """Remember ``vp``'s telemetry registry for :meth:`publish_metrics`."""
        registry = getattr(getattr(vp, "telemetry", None), "registry", None)
        if registry is not None and not any(r is registry
                                            for r in self._registries):
            self._registries.append(registry)

    def detach(self) -> None:
        """Seal every platform, then flush pending console/profile state."""
        super().detach()
        for entry, buffer in self._console_buffers:
            if buffer:
                self._record_console(entry.sim_time_ps, buffer)
        if self.profiler is not None:
            self.profiler.flush()
        self.publish_metrics()

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
        registries = self._registries
        if not registries:
            active = scope_registry()
            registries = [active] if active is not None else []
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
        bundle path (None if bundling is off or the cap was hit).  A
        platform whose finished run sealed it is probed again for the
        forced fire only."""
        transient = vp.flight is not self
        if transient:
            self.attach(vp)
        cpu = vp.cpus[core]
        guard = cpu.kick_guard
        now_ns = cpu.host_now_ns
        bundles_before = len(self.bundler.bundles) if self.bundler else 0
        guard.arm(vp.watchdog, core, now_ns, 0.0)
        guard.arm(vp.watchdog, core, now_ns, 0.0)
        vp.watchdog.advance(core, now_ns)
        if transient:
            self._seal(self.platforms[-1])
        if self.bundler and len(self.bundler.bundles) > bundles_before:
            return self.bundler.bundles[-1]
        return None

    # -- kernel, watchdog and sanitizers --------------------------------------
    def _probes(self, entry, vp) -> dict:
        self._note_registry(vp)
        kernel = vp.kernel
        record = self.recorder.record
        add = self.recorder.add

        def kernel_error(exc: BaseException) -> None:
            record("kernel_error", kernel._now_ps,
                   error=f"{type(exc).__name__}: {exc}")
            if self.bundler is not None:
                self.bundler.trigger(vp, "kernel-error",
                                     detail=f"{type(exc).__name__}: {exc}")

        # The hot probes write each entry's data out key-sorted (see
        # FlightRecorder.add); the cold ones go through record(**data).
        def watchdog_arm(core_id, now_ns, timeout_ns, kick_id) -> None:
            add("watchdog_arm", kernel._now_ps, now_ns, core_id,
                (("budget_ns", round(timeout_ns, 3)), ("kick_id", kick_id)))

        def watchdog_fire(fire) -> None:
            budget_ns = fire.budget_ns
            add("watchdog_fire", kernel._now_ps, fire.fired_at_ns,
                fire.core_id,
                (("budget_ns",
                  None if budget_ns is None else round(budget_ns, 3)),
                 ("kick_id", fire.kick_id),
                 ("margin_ns", round(fire.margin_ns, 3))))

        def sanitizer_finding(finding) -> None:
            record("sanitizer", kernel._now_ps, rule=finding.rule,
                   path=finding.path, message=finding.message)
            if self.bundler is not None:
                self.bundler.trigger(vp, "sanitizer",
                                     detail=f"{finding.rule}: {finding.message}")

        return {"kernel_error": kernel_error, "watchdog_arm": watchdog_arm,
                "watchdog_fire": watchdog_fire,
                "sanitizer_finding": sanitizer_finding,
                **self._guest_probes(entry, vp),
                **self._core_probes(entry.key, vp)}

    # -- guest console and SimControl -----------------------------------------
    def _guest_probes(self, entry, vp) -> dict:
        kernel = vp.kernel
        uart = vp.uart
        buffer = bytearray()
        self._console_buffers.append((entry, buffer))

        def console_tx(source, byte: int) -> None:
            if source is not uart:
                return
            if byte == 0x0A:
                self._record_console(kernel._now_ps, buffer)
            else:
                buffer.append(byte)
                if len(buffer) >= CONSOLE_LINE_LIMIT:
                    self._record_console(kernel._now_ps, buffer)

        def simctl(what: str, value: int) -> None:
            now_ps = kernel._now_ps
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

    def _record_console(self, time_ps: int, buffer: bytearray) -> None:
        text = bytes(buffer).decode("utf-8", errors="replace")
        del buffer[:]
        self.recorder.record("console", time_ps, text=text)

    # -- CPU cores ---------------------------------------------------------------
    def _core_probes(self, key: str, vp) -> dict:
        kernel = vp.kernel
        add = self.recorder.add
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

        # TLM: one entry per transaction through the platform bus.  Its
        # target socket emits the same transaction again; that call returns
        # after the identity check.
        bus = vp.bus.in_socket
        kvm_cpus = {core.core: cpu for cpu, core in cores.items() if core.kvm}

        def transport(socket, payload, delay_in, delay_out) -> None:
            if socket is not bus:
                return
            initiator = payload.initiator_id
            cpu = kvm_cpus.get(initiator)
            data = payload.data
            add("transport", kernel._now_ps,
                cpu.host_now_ns if cpu is not None else None, initiator,
                (("address", payload.address),
                 ("command", _COMMANDS[payload.command]),
                 ("data", data.hex()), ("latency_ps", delay_out._ps - delay_in._ps),
                 ("length", len(data)),
                 ("response", payload.response_status.value)))

        def irq(line, level: bool) -> None:
            add("irq", kernel._now_ps, None, None,
                (("level", level), ("line", line.name)))

        # WFI suspends and resumes on the simulated-time axis.
        def wfi_suspend(cpu, begin_ps: int) -> None:
            add("wfi_suspend", begin_ps, None, cpu.core_id, ())

        def wfi_resume(cpu, begin_ps: int, now_ps: int) -> None:
            add("wfi_resume", now_ps, None, cpu.core_id,
                (("skipped_ps", max(0, now_ps - begin_ps)),))

        def quantum_sync(cpu) -> None:
            add("quantum_sync", kernel._now_ps, None, cpu.core_id,
                (("offset_ps", cpu.keeper.offset_ps),))

        def vcpu_exit(cpu, info) -> None:
            if cores[cpu].kvm:
                add("kvm_exit", kernel._now_ps, cpu.host_now_ns + info.wall_ns,
                    cpu.core_id,
                    (("blocked_in_wfi", info.blocked_in_wfi),
                     ("instructions", info.instructions), ("pc", info.pc),
                     ("reason", info.reason.value),
                     ("wall_ns", round(info.wall_ns, 3))))
            else:
                add("cpu_exit", kernel._now_ps, None, cpu.core_id,
                    (("instructions", info.instructions), ("pc", info.pc),
                     ("reason", info.reason.name.lower())))

        # KVM model: kick filtering and wedge detection.
        def kick(guard, kick_id: int, delivered: bool) -> None:
            cpu = guards[guard]
            add("watchdog_kick", kernel._now_ps, cpu.host_now_ns, cpu.core_id,
                (("delivered", delivered), ("kick_id", kick_id)))

        def wedge(guard, kick_id: int) -> None:
            cpu = guards[guard]
            core = cpu.core_id
            self.recorder.record("watchdog_wedge", kernel._now_ps,
                                 host_ns=cpu.host_now_ns, core=core,
                                 kick_id=kick_id)
            if self.bundler is not None:
                self.bundler.trigger(
                    vp, "watchdog",
                    detail=(f"core {core} kicked twice for run {kick_id}: "
                            "SIGUSR1 did not end KVM_RUN"),
                    payload={"core": core, "kick_id": kick_id})

        handlers = {"transport": transport, "irq": irq,
                    "wfi_suspend": wfi_suspend, "wfi_resume": wfi_resume,
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
        # pc -> its symbol (or None); bounded by the guest's distinct PCs
        names = {}

        def symbolize(pc: int, fallback: bool = True) -> Optional[str]:
            if pc in names:
                name = names[pc]
            else:
                name = names[pc] = image.symbol_at(pc - offset)
            if name is not None:
                return name
            return f"0x{pc:x}" if fallback else None

        return symbolize


def _env_crash_dir() -> str:
    """``REPRO_FLIGHT_CRASH_DIR`` (default ``crash-bundles``), checked now:
    a bad value must not surface as an ``os.makedirs`` error inside a
    probe handler at the first crash, in the middle of a run."""
    crash_dir = os.environ.get(CRASH_DIR_ENV, "crash-bundles")
    if not crash_dir:
        raise ValueError(f"{CRASH_DIR_ENV} is set but empty; unset it or "
                         "name a directory for crash bundles")
    existing = os.path.abspath(crash_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ValueError(f"{CRASH_DIR_ENV}={crash_dir!r}: {existing!r} is a "
                         "file, not a directory")
    return crash_dir


def enable_flight(vp, **kwargs) -> Flight:
    """Attach a fresh :class:`Flight` to ``vp``; also reachable as
    ``vp.flight``."""
    flight = Flight(**kwargs)
    flight.attach(vp)
    return flight
