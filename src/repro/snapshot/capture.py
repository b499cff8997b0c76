"""Capturing a running VirtualPlatform into a :class:`Snapshot`.

Snapshots are taken at *quiescent* points only: between ``run()`` calls,
with no runnable process, no pending delta activity and no queued channel
updates.  At such a point the complete dynamic state of the simulation is
(a) the kernel's timed-notification heap, (b) each SC_THREAD's park site
(the label :class:`~repro.vcml.processor.Processor` records before every
yield), and (c) module/device state reachable through ``snapshot_state``
hooks — all of which serialize to canonical JSON.

The timed heap holds callables; each live entry is introspected into one of
three descriptor shapes:

* ``{"type": "process", ...}`` — a :class:`_ProcessWakeup` for a parked
  SC_THREAD (sync waits, wait timeouts);
* ``{"type": "event", ...}`` — a pending ``Event.notify(t)``, stored by the
  event's hierarchical name;
* ``{"type": "method", ...}`` — a bound device method scheduled via
  ``schedule_callback`` (timer channel expiry, RTC match, clock tick),
  stored as (owner path, method name).

Anything else (a raw closure, a lambda) is a capture error.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from ..host.wallclock import elapsed_since, wall_clock
from ..systemc.event import Event
from ..systemc.kernel import TraceEntry, _ProcessWakeup
from ..telemetry import scope_registry
from ..vp.config import VpConfig
from .format import FORMAT, PAGE_SIZE, SnapshotError, blob_digest, encode_trace, split_pages
from .image import Snapshot
from .registry import build_registries, owner_paths_by_id

#: park sites a snapshot can represent.  "start" (thread never ran) is a
#: mid-quantum state; "reset" never occurs on the shipped platforms (no
#: reset line is bound).
_RESTORABLE_PARKS = ("sync", "break_sync", "debug", "wait_irq_sync", "wait_irq")

#: platform devices whose register files a snapshot stores under ``regs``
REG_LABELS = ("timer", "uart", "rtc", "sdhci", "simctl")


def _check_quiescent(vp) -> Dict[int, object]:
    """Validate the capture point; returns {id(process): cpu} for the threads."""
    kernel = vp.kernel
    if kernel._running:
        raise SnapshotError("cannot snapshot while the kernel is running; "
                            "capture between run() calls")
    for queue, label in ((kernel._runnable, "runnable processes"),
                         (kernel._methods, "queued methods"),
                         (kernel._delta_events, "pending delta notifications"),
                         (kernel._delta_wakeups, "pending delta wakeups"),
                         (kernel._update_requests, "pending channel updates")):
        if queue:
            raise SnapshotError(f"not quiescent: {len(queue)} {label} pending")
    threads: Dict[int, object] = {}
    for cpu in vp.cpus:
        if cpu._thread is None:
            raise SnapshotError(f"{cpu.name}: not elaborated (no SC_THREAD); "
                                "run the platform before snapshotting")
        threads[id(cpu._thread)] = cpu
        if not cpu._thread.finished and cpu._park not in _RESTORABLE_PARKS:
            raise SnapshotError(
                f"{cpu.name}: parked at non-restorable site {cpu._park!r}; "
                "run to a quantum boundary first")
    for process in kernel._processes:
        if not process.finished and id(process) not in threads:
            raise SnapshotError(
                f"unknown live process {process.name!r}: only platform CPU "
                "threads can be snapshotted")
    return threads


def _serialize_heap(kernel, event_names: Dict[str, Event],
                    owner_paths: Dict[int, str]) -> List[dict]:
    """Canonically ordered descriptors for every live timed-heap entry.

    Entries are sorted by (due, seq) and the seq is *dropped*: restore
    assigns fresh sequence numbers in list order, which preserves relative
    firing order while keeping snapshot bytes independent of how many
    entries the original kernel ever allocated.
    """
    live = sorted(slot for slot in kernel._timed if not slot[2].cancelled)
    out = []
    for due_ps, _, entry in live:
        action = entry.action
        if isinstance(action, _ProcessWakeup):
            descriptor = {"type": "process", "process": action.process.name,
                          "timeout": bool(action.timeout)}
        elif getattr(action, "__self__", None) is not None:
            owner = action.__self__
            if isinstance(owner, Event) and action.__func__ is Event._fire:
                if event_names.get(owner.name) is not owner:
                    raise SnapshotError(
                        f"pending notification on unregistered event {owner.name!r}")
                descriptor = {"type": "event", "event": owner.name}
            else:
                path = owner_paths.get(id(owner))
                if path is None:
                    raise SnapshotError(
                        f"timed callback {action!r} is bound to an object outside "
                        "the module hierarchy; cannot serialize")
                descriptor = {"type": "method", "owner": path,
                              "method": action.__func__.__name__}
        else:
            raise SnapshotError(
                f"timed-heap entry due at {due_ps} ps holds a non-introspectable "
                f"action {action!r} (closure/lambda)")
        out.append({"due_ps": due_ps, "action": descriptor})
    return out


def software_descriptor(software) -> dict:
    """Identity of the guest: enough to reject a mismatched restore.

    The image and phase programs are code and are re-supplied by the
    caller; ``info`` (workload parameters, e.g. scaled boot instruction
    counts) is canonicalized so e.g. the same workload at a different
    scale factor fails validation.
    """
    def canonical(value):
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return dataclasses.asdict(value)
        if isinstance(value, dict):
            return {key: canonical(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [canonical(item) for item in value]
        if isinstance(value, (str, int, float, bool)) or value is None:
            return value
        return repr(value)

    return {
        "name": software.name,
        "mode": software.mode,
        "load_offset": software.load_offset,
        "entry": software.image.entry,
        "info": canonical(software.info),
    }


def serialize_config(config: VpConfig) -> dict:
    return {
        "num_cores": config.num_cores,
        "quantum_ps": config.quantum.picoseconds,
        "parallel": config.parallel,
        "wfi_annotations": config.wfi_annotations,
        "vcpu_clock_hz": config.vcpu_clock_hz,
        "ram_size": config.ram_size,
        # A custom HostMachine is host-specific calibration, not guest
        # state; restore demands an explicit config when one was used.
        "host_custom": config.host is not None,
        "kvm_costs": dataclasses.asdict(config.kvm_costs),
        "iss_costs": dataclasses.asdict(config.iss_costs),
        "sim_costs": dataclasses.asdict(config.sim_costs),
        "timer_frequency_hz": config.timer_frequency_hz,
        "track_host_time": config.track_host_time,
        "unguarded_watchdog": config.unguarded_watchdog,
    }


def capture_platform(vp, trace: Optional[List[TraceEntry]] = None,
                     scenario: Optional[dict] = None) -> Snapshot:
    """Capture ``vp`` at a quiescent point into a :class:`Snapshot`.

    ``trace`` is an optional dispatch-stream prefix (from
    :class:`TraceRecorder`) that restore replays into trace hooks so a
    digest attached before restore sees the cold run's complete stream.
    ``scenario`` is opaque harness metadata (e.g. how the guest software
    was built) stored verbatim in the manifest.
    """
    started = wall_clock()
    kernel = vp.kernel
    _check_quiescent(vp)
    event_names, owners = build_registries(vp)
    owner_paths = owner_paths_by_id(owners)

    blobs: Dict[str, bytes] = {}
    pages: Dict[str, str] = {}
    for index, page in split_pages(vp.ram.data, PAGE_SIZE):
        sha = blob_digest(page)
        blobs[sha] = page
        pages[str(index)] = sha

    trace_section = None
    trace_blob = encode_trace(trace)
    if trace_blob is not None:
        sha = blob_digest(trace_blob)
        blobs[sha] = trace_blob
        trace_section = {"sha": sha, "entries": len(trace)}

    regs = {}
    for label in REG_LABELS:
        device = getattr(vp, label)
        regs[label] = device.regs.snapshot_values()

    manifest = {
        "format": FORMAT,
        "kind": "aoa" if hasattr(vp, "kvm") else "avp64",
        "partial": False,
        "lineage": {"parent": None, "fork_index": None},
        "config": serialize_config(vp.config),
        "software": software_descriptor(vp.software),
        "sim": {
            "now_ps": kernel._now_ps,
            "delta_count": kernel.delta_count,
            "halted_cores": vp._halted_cores,
        },
        "kernel": {"timed": _serialize_heap(kernel, event_names, owner_paths)},
        "processes": [
            {"name": cpu._thread.name, "core": cpu.core_id,
             "park": cpu._park, "finished": cpu._thread.finished}
            for cpu in vp.cpus
        ],
        "devices": {
            "gic": vp.gic.snapshot_state(),
            "timer": vp.timer.snapshot_state(),
            "uart": vp.uart.snapshot_state(),
            "rtc": vp.rtc.snapshot_state(),
            "sdhci": vp.sdhci.snapshot_state(),
            "simctl": vp.simctl.snapshot_state(),
            "monitor": vp.monitor.snapshot_state(),
        },
        "regs": regs,
        "cpus": [cpu.snapshot_state() for cpu in vp.cpus],
        "ports": {
            "loader": vp.loader.snapshot_state(),
            "cpus": [cpu.mem.snapshot_state() for cpu in vp.cpus],
        },
        "memory": vp.ram.snapshot_state(),
        "watchdog": (vp.watchdog.snapshot_state()
                     if hasattr(vp, "watchdog") else None),
        "ledger": None if vp.ledger is None else vp.ledger.snapshot_state(),
        "ram": {"size": vp.ram.size, "page_size": PAGE_SIZE, "pages": pages},
        "trace": trace_section,
        "scenario": dict(scenario or {}),
    }
    snapshot = Snapshot(manifest, blobs)
    registry = scope_registry()
    if registry is not None:
        registry.histogram("snapshot.save_ns").observe(
            int(elapsed_since(started) * 1e9))
    return snapshot
