"""repro.snapshot — full-VP snapshot/restore with warm scenario forking.

The ``repro.snapshot/2`` format serializes the complete state of a running
virtual platform — the kernel's event queue, every device's registers and
latched IRQ levels, guest RAM (sparse, page-deduped), vCPU architectural
state with MMU/TLB caches, each phase program's position, DMI/promotion
bookkeeping, the host-time ledger and each SC_THREAD's park site — into
one content-addressed container.

Typical flow (what ``repro.bench bench --from-snapshot`` automates)::

    from repro.snapshot import Snapshot, TraceRecorder

    with TraceRecorder() as rec:          # digest-neutral dispatch recording
        vp.run(SimTime.ms(50))            # warm boot
    snap = Snapshot.capture(vp, trace=rec.entries)
    snap.save("boot.rsnap")

    for child in snap.fork(3):            # copy-on-write children
        child.poke_ram(0x8000, scenario_input)
        vp2 = child.restore(software)     # trace prefix replays into hooks
        vp2.run(SimTime.ms(50))

Correctness gate: a DET001 digest (``repro.analysis.determinism``) attached
before ``restore`` observes the replayed prefix plus the resumed run's live
dispatches, and must equal the digest of an uninterrupted cold run
bit-for-bit — on both the serial and threads execution backends.
"""

from ..systemc.kernel import TraceRecorder
from .capture import capture_platform, serialize_config
from .format import FORMAT, PAGE_SIZE, SnapshotError, manifest_digest
from .image import Snapshot
from .restore import config_from_manifest, restore_platform

__all__ = [
    "FORMAT",
    "PAGE_SIZE",
    "Snapshot",
    "SnapshotError",
    "TraceRecorder",
    "capture_platform",
    "config_from_manifest",
    "manifest_digest",
    "restore_platform",
    "serialize_config",
]
