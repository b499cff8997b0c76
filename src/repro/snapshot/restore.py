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

import heapq
import itertools
from typing import Optional

from ..host.params import IssCostParams, KvmCostParams, SimulationCostParams
from ..host.wallclock import elapsed_since, wall_clock
from ..systemc.kernel import _TimedEntry
from ..systemc.process import Process, ProcessState
from ..systemc.time import SimTime
from ..vp.config import VpConfig
from ..vp.platform import build_platform
from .format import SnapshotError, decode_trace
from .image import Snapshot, _telemetry_registry
from .registry import build_registries

#: owner-side attribute that holds the cancellation handle for a scheduled
#: bound method, keyed by method name (see models/timer.py, models/rtc.py).
_METHOD_HANDLE_ATTR = {
    "_expire": "_entry",          # timer _Channel countdown
    "_match_fired": "_match_entry",  # PL031 RTC alarm
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
    from .capture import software_descriptor
    actual = software_descriptor(software)
    if actual != section:
        raise SnapshotError(
            f"software mismatch: snapshot was captured with {section}, "
            f"restore was given {actual}")


def _rebuild_heap(vp, manifest: dict) -> None:
    kernel = vp.kernel
    events, owners = build_registries(vp)
    processes = {cpu._thread.name: cpu._thread for cpu in vp.cpus}
    for item in manifest["kernel"]["timed"]:
        due = SimTime(item["due_ps"])
        descriptor = item["action"]
        kind = descriptor["type"]
        if kind == "process":
            process = processes.get(descriptor["process"])
            if process is None:
                raise SnapshotError(
                    f"heap entry references unknown process {descriptor['process']!r}")
            entry = kernel._schedule_timed_wakeup(process, due,
                                                  timeout=descriptor["timeout"])
            # Mirror Process._arm: the waiting process owns the handle so a
            # later event wake cancels the stale timer.
            process._timeout_handle = entry
        elif kind == "event":
            event = events.get(descriptor["event"])
            if event is None:
                raise SnapshotError(
                    f"heap entry references unknown event {descriptor['event']!r}")
            entry = kernel._schedule_timed_notification(event, due)
            event._pending_time = due
            event._pending_delta = False
            event._pending_handle = entry
        elif kind == "method":
            owner = owners.get(descriptor["owner"])
            if owner is None:
                raise SnapshotError(
                    f"heap entry references unknown owner {descriptor['owner']!r}")
            method = getattr(owner, descriptor["method"], None)
            if method is None:
                raise SnapshotError(
                    f"owner {descriptor['owner']!r} has no method "
                    f"{descriptor['method']!r}")
            entry = _TimedEntry(due, next(kernel._seq), method)
            heapq.heappush(kernel._timed, entry)
            handle_attr = _METHOD_HANDLE_ATTR.get(descriptor["method"])
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

    vp = build_platform(kind, config, software)
    kernel = vp.kernel

    # (1) park-site thread resurrection, installed before elaboration.
    for cpu, info in zip(vp.cpus, manifest["processes"]):
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
    kernel._now = SimTime(manifest["sim"]["now_ps"])
    kernel.delta_count = manifest["sim"]["delta_count"]
    vp._halted_cores = manifest["sim"]["halted_cores"]

    # (3) guest RAM, in place (DMI memoryviews / KVM slots stay valid).
    ram = manifest["ram"]
    if ram["size"] != vp.ram.size:
        raise SnapshotError(
            f"RAM size mismatch: snapshot {ram['size']}, platform {vp.ram.size}")
    vp.ram.data[:] = bytes(vp.ram.size)
    page_size = ram["page_size"]
    for index_str, sha in ram["pages"].items():
        offset = int(index_str) * page_size
        page = snapshot.blob(sha)
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
        getattr(vp, label).regs.restore_values(values)
    for cpu, state in zip(vp.cpus, manifest["cpus"]):
        cpu.restore_state(state)
    vp.loader.restore_state(manifest["ports"]["loader"])
    for cpu, state in zip(vp.cpus, manifest["ports"]["cpus"]):
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
            for kind_, time_ps, name in decode_trace(snapshot.blob(trace["sha"])):
                fire(kind_, time_ps, name)

    registry = _telemetry_registry()
    if registry is not None:
        registry.histogram("snapshot.restore_ns").observe(
            int(elapsed_since(started) * 1e9))
    return vp
