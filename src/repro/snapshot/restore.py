"""Restoring a :class:`Snapshot` into a runnable VirtualPlatform.

Restore re-runs platform *construction* (which rebuilds all static wiring:
sockets, routers, IRQ lines, executors) and then overwrites every piece of
dynamic state from the manifest:

1. CPU SC_THREADs are pre-created as fresh generators entering
   :meth:`Processor._resume_thread` at the serialized park site, and
   installed *before* elaboration so ``start_of_simulation`` does not spawn
   the normal (from-the-top) thread bodies.
2. All kernel queues are cleared and the timed heap is rebuilt from the
   canonical descriptors, drawing fresh sequence numbers in serialized
   order — relative firing order is preserved exactly, and entries created
   after restore correctly sort behind restored ones.
3. Guest RAM is written *in place* (slice assignment into the existing
   bytearray) so DMI memoryviews and KVM memory slots resolved during
   construction stay valid.
4. Devices, registers, CPUs, fabric ports, watchdog, monitor and ledger
   restore through their ``snapshot_state``/``restore_state`` hooks.
5. The recorded dispatch-trace prefix is replayed through the kernel's
   trace hook, so a DET001 digest attached before restore folds the same
   complete stream a cold run produces.
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..host.params import IssCostParams, KvmCostParams, SimulationCostParams
from ..host.wallclock import elapsed_since, wall_clock
from ..systemc.process import Process, ProcessState
from ..systemc.time import SimTime
from ..telemetry import scope_registry
from ..vp.config import VpConfig
from ..vp.platform import build_platform
from .capture import _RESTORABLE_PARKS, REG_LABELS, software_descriptor
from .format import SnapshotError, decode_trace
from .image import Snapshot
from .registry import build_registries

#: the bound methods the models schedule, each mapped to the owner-side
#: attribute that holds its cancellation handle (None: the owner keeps none).
#: A heap entry naming any other method is refused.
_METHOD_HANDLE_ATTR = {
    "_expire": "_entry",          # timer _Channel countdown
    "_match_fired": "_match_entry",  # PL031 RTC alarm
    "_tick": None,                # Clock period
}


#: JSON type of every config-section key :func:`config_from_manifest` reads
_CONFIG_TYPES = {
    "host_custom": bool, "num_cores": int, "quantum_ps": int,
    "parallel": bool, "wfi_annotations": bool, "vcpu_clock_hz": (int, float),
    "ram_size": int, "kvm_costs": dict, "iss_costs": dict, "sim_costs": dict,
    "timer_frequency_hz": (int, float), "track_host_time": bool,
    "unguarded_watchdog": bool,
}


def config_from_manifest(section: dict) -> VpConfig:
    """Rebuild the :class:`VpConfig` described by a manifest's config section.

    Keys this reader does not know are ignored, so files that still name
    the retired quantum-executor backend restore on the one quantum loop,
    which produced the same dispatch stream.  A missing or ill-typed key
    raises :class:`SnapshotError`.
    """
    try:
        for key, kind in _CONFIG_TYPES.items():
            if not isinstance(section[key], kind):
                raise TypeError(f"{key} is {type(section[key]).__name__}")
        if section["host_custom"]:
            raise SnapshotError(
                "snapshot was captured with a custom HostMachine; pass the "
                "same config explicitly to restore()")
        return VpConfig(
            num_cores=section["num_cores"],
            quantum=SimTime(section["quantum_ps"]),
            parallel=section["parallel"],
            wfi_annotations=section["wfi_annotations"],
            vcpu_clock_hz=section["vcpu_clock_hz"],
            ram_size=section["ram_size"],
            host=None,
            kvm_costs=KvmCostParams(**section["kvm_costs"]),
            iss_costs=IssCostParams(**section["iss_costs"]),
            sim_costs=SimulationCostParams(**section["sim_costs"]),
            timer_frequency_hz=section["timer_frequency_hz"],
            track_host_time=section["track_host_time"],
            unguarded_watchdog=section["unguarded_watchdog"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed config section: {exc!r}") from exc


def _validate_software(section: dict, software) -> None:
    """The guest image/programs are code, not data: the caller re-supplies
    them and we verify the descriptor matches what was captured."""
    actual = software_descriptor(software)
    if actual != section:
        raise SnapshotError(
            f"software mismatch: snapshot was captured with {section}, "
            f"restore was given {actual}")


def _check_int(value, field: str, minimum: int = 0, floor_name: str = "",
               maximum: Optional[int] = None) -> int:
    """Return ``value`` if it is an ``int`` in ``minimum..maximum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SnapshotError(
            f"malformed {field}: want an int, got {type(value).__name__}")
    if value < minimum:
        raise SnapshotError(
            f"malformed {field}: {value} is below {floor_name or minimum}")
    if maximum is not None and value > maximum:
        raise SnapshotError(f"malformed {field}: {value} is above {maximum}")
    return value


def _per_cpu(states, field: str, num_cores: int) -> list:
    """Return ``states`` if it is a list of exactly one entry per core."""
    if not isinstance(states, list) or len(states) != num_cores:
        raise SnapshotError(
            f"malformed {field}: want a list of {num_cores} entries, one per core")
    return states


def _validate_times(manifest: dict) -> None:
    """Check every ps field the kernel and keepers take verbatim.

    The kernel keeps time as plain ints, so nothing downstream would catch
    a string, a float, a negative count or a timed entry due before the
    snapshot's own time (which would step simulated time backwards).
    """
    try:
        now_ps = manifest["sim"]["now_ps"]
        _check_int(now_ps, "sim.now_ps")
        for index, item in enumerate(manifest["kernel"]["timed"]):
            _check_int(item["due_ps"], f"kernel.timed[{index}].due_ps",
                      now_ps, f"sim.now_ps ({now_ps})")
        for index, state in enumerate(manifest["cpus"]):
            _check_int(state["local_offset_ps"], f"cpus[{index}].local_offset_ps")
    except (KeyError, TypeError) as exc:
        raise SnapshotError(f"malformed time section: {exc!r}") from exc


def _rebuild_heap(vp, manifest: dict) -> None:
    kernel = vp.kernel
    events, owners = build_registries(vp)
    processes = {cpu._thread.name: cpu._thread for cpu in vp.cpus}
    for item in manifest["kernel"]["timed"]:
        due_ps = item["due_ps"]
        descriptor = item["action"]
        kind = descriptor["type"]
        if kind == "process":
            process = processes.get(descriptor["process"])
            if process is None:
                raise SnapshotError(
                    f"heap entry references unknown process {descriptor['process']!r}")
            entry = kernel._schedule_timed_wakeup(process, due_ps,
                                                  timeout=descriptor["timeout"])
            # Mirror Process._arm: the waiting process owns the handle so a
            # later event wake cancels the stale timer.
            process._timeout_handle = entry
        elif kind == "event":
            event = events.get(descriptor["event"])
            if event is None:
                raise SnapshotError(
                    f"heap entry references unknown event {descriptor['event']!r}")
            entry = kernel._schedule_timed_notification(event, due_ps)
            event._pending_time = due_ps
            event._pending_delta = False
            event._pending_handle = entry
        elif kind == "method":
            owner = owners.get(descriptor["owner"])
            if owner is None:
                raise SnapshotError(
                    f"heap entry references unknown owner {descriptor['owner']!r}")
            name = descriptor["method"]
            method = (getattr(owner, name, None)
                      if name in _METHOD_HANDLE_ATTR else None)
            if method is None:
                raise SnapshotError(
                    f"malformed kernel.timed: owner {descriptor['owner']!r} "
                    f"has no schedulable method {name!r}")
            entry = kernel._schedule_timed(due_ps, method)
            handle_attr = _METHOD_HANDLE_ATTR[name]
            if handle_attr is not None:
                setattr(owner, handle_attr, entry)
        else:
            raise SnapshotError(f"unknown heap action type {kind!r}")


def restore_platform(snapshot: Snapshot, software, config: Optional[VpConfig] = None,
                     kind: Optional[str] = None):
    """Reconstruct a runnable VirtualPlatform from ``snapshot``.

    ``software`` must be the same guest the snapshot was captured with
    (validated against the manifest's descriptor).  ``config`` defaults to
    the serialized configuration; pass one explicitly to override (e.g.
    when the snapshot used a custom HostMachine).  Returns the platform,
    ready for ``vp.run()``.
    """
    started = wall_clock()
    manifest = snapshot.manifest
    if snapshot.partial:
        raise SnapshotError(
            "partial snapshot (flight bundle): holds post-mortem state only "
            "and cannot be restored into a runnable platform")
    kind = kind or manifest["kind"]
    if config is None:
        config = config_from_manifest(manifest["config"])
    _validate_software(manifest["software"], software)
    if len(manifest["processes"]) != config.num_cores:
        raise SnapshotError(
            f"snapshot has {len(manifest['processes'])} cores, config wants "
            f"{config.num_cores}")
    _validate_times(manifest)

    vp = build_platform(kind, config, software)
    try:
        _install_state(vp, snapshot)
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc!r}") from exc

    registry = scope_registry()
    if registry is not None:
        registry.histogram("snapshot.restore_ns").observe(
            int(elapsed_since(started) * 1e9))
    return vp


def _install_state(vp, snapshot: Snapshot) -> None:
    """Overwrite the dynamic state of the freshly built ``vp``.

    A section of the wrong shape surfaces as a raw ``KeyError``,
    ``TypeError`` or ``ValueError``, which :func:`restore_platform` turns
    into :class:`SnapshotError`; values the models would take verbatim
    (park sites, counters, page indices, register labels, heap methods,
    per-CPU list lengths) are checked here first.
    """
    manifest = snapshot.manifest
    kernel = vp.kernel

    # (1) park-site thread resurrection, installed before elaboration.
    for cpu, info in zip(vp.cpus, manifest["processes"]):
        if not info["finished"] and info["park"] not in _RESTORABLE_PARKS:
            raise SnapshotError(
                f"malformed processes: {info['name']!r} parked at "
                f"non-restorable site {info['park']!r}")
        process = Process(info["name"],
                          (lambda c=cpu, s=info["park"]: c._resume_thread(s)),
                          kernel)
        kernel._processes.append(process)
        process.state = (ProcessState.FINISHED if info["finished"]
                         else ProcessState.WAITING)
        cpu._thread = process
    vp.sim.elaborate()

    # (2) wipe every scheduler queue; construction-time activity of the
    # fresh platform is superseded wholesale by the serialized state.
    kernel._runnable.clear()
    kernel._runnable_set.clear()
    kernel._delta_events.clear()
    kernel._delta_wakeups.clear()
    kernel._methods.clear()
    kernel._update_requests.clear()
    kernel._update_request_ids.clear()
    kernel._timed = []
    kernel._seq = itertools.count()
    sim = manifest["sim"]
    kernel._now_ps = sim["now_ps"]
    kernel.delta_count = _check_int(sim["delta_count"], "sim.delta_count")
    vp._halted_cores = _check_int(sim["halted_cores"], "sim.halted_cores",
                                    maximum=len(vp.cpus))

    # (3) guest RAM, in place (DMI memoryviews / KVM slots stay valid).
    ram = manifest["ram"]
    if ram["size"] != vp.ram.size:
        raise SnapshotError(
            f"RAM size mismatch: snapshot {ram['size']}, platform {vp.ram.size}")
    vp.ram.data[:] = bytes(vp.ram.size)
    page_size = _check_int(ram["page_size"], "ram.page_size", minimum=1)
    for index_str, sha in ram["pages"].items():
        offset = int(index_str) * page_size
        page = snapshot.blob(sha)
        if not 0 <= offset <= vp.ram.size - len(page):
            raise SnapshotError(
                f"malformed ram.pages: page {index_str!r} lies outside RAM")
        vp.ram.data[offset:offset + len(page)] = page
    vp.ram.restore_state(manifest["memory"])

    # (4) devices, registers, CPUs, ports, watchdog, monitor, ledger.
    devices = manifest["devices"]
    vp.gic.restore_state(devices["gic"])
    vp.timer.restore_state(devices["timer"])
    vp.uart.restore_state(devices["uart"])
    vp.rtc.restore_state(devices["rtc"])
    vp.sdhci.restore_state(devices["sdhci"])
    vp.simctl.restore_state(devices["simctl"])
    vp.monitor.restore_state(devices["monitor"])
    for label, values in manifest["regs"].items():
        if label not in REG_LABELS:
            raise SnapshotError(f"malformed regs: unknown device {label!r}")
        getattr(vp, label).regs.restore_values(values)
    num_cores = len(vp.cpus)
    for cpu, state in zip(vp.cpus, _per_cpu(manifest["cpus"], "cpus", num_cores)):
        cpu.restore_state(state)
    vp.loader.restore_state(manifest["ports"]["loader"])
    for cpu, state in zip(vp.cpus, _per_cpu(manifest["ports"]["cpus"],
                                            "ports.cpus", num_cores)):
        cpu.mem.restore_state(state)
    if manifest["watchdog"] is not None:
        if not hasattr(vp, "watchdog"):
            raise SnapshotError("snapshot has watchdog state but platform has none")
        vp.watchdog.restore_state(manifest["watchdog"],
                                  {cpu.core_id: cpu.kick_guard for cpu in vp.cpus})
    if manifest["ledger"] is not None and vp.ledger is not None:
        vp.ledger.restore_state(manifest["ledger"])

    # (5) timed heap + event-side relinks.
    _rebuild_heap(vp, manifest)

    # (6) event waiters for threads parked on an Event (not a timed wait).
    for cpu, info in zip(vp.cpus, manifest["processes"]):
        if info["finished"]:
            continue
        if info["park"] == "wait_irq":
            cpu.irq_event._attach(kernel)
            cpu.irq_event._add_waiter(cpu._thread)
            cpu._thread._waiting_events = (cpu.irq_event,)
        elif info["park"] == "debug":
            cpu.debug_resume_event._attach(kernel)
            cpu.debug_resume_event._add_waiter(cpu._thread)
            cpu._thread._waiting_events = (cpu.debug_resume_event,)

    # (7) trace-prefix replay: feed the recorded cold-run dispatch stream
    # to the dispatch subscribers attached *now*, so digests over the
    # resumed run cover prefix + live suffix — bit-identical to the cold
    # stream.
    trace = manifest.get("trace")
    if trace is not None:
        fire = vp.kernel.probes.dispatch
        if fire is not None:
            for kind, time_ps, name in decode_trace(snapshot.blob(trace["sha"])):
                fire(kind, time_ps, name)
