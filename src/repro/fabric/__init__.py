"""repro.fabric — the unified memory hot path.

The paper's speedups hinge on guest memory traffic being cheap: DMI-backed
KVM memory slots make native load/stores free, and each MMIO trap costs one
low-overhead TLM round trip (Fig. 3, §IV).  ``repro.fabric`` is the
Python-side equivalent: a single :class:`MemoryPort` access layer that
every initiator — KvmCpu MMIO completion, IssCpu load/store, the debugger's
peek/poke, and the guest-image loader — goes through, backed by three
shared mechanisms:

1. a **decode cache** in :class:`repro.vcml.Router` (sorted ``bisect``
   decode + per-initiator last-mapping cache with generation-counter
   invalidation);
2. a **payload pool** (:class:`repro.tlm.PayloadPool`) so the hot path
   stops allocating a fresh ``GenericPayload`` per transaction;
3. a **DMI fast path**: repeated ``b_transport`` targets that advertise
   DMI are transparently promoted to direct :class:`~repro.tlm.dmi.
   DmiRegion` access, demoted again on invalidation.

All three mechanisms are *mechanically* invisible: the same bytes move and
the same delays are annotated, so the kernel dispatch order is what the
model's timing alone decides.  ``tests/test_golden_counters.py`` and the
DET001 and ``python -m repro.divergence selfcheck`` digests pin it.
"""

from __future__ import annotations

from .port import AccessResult, MemoryPort

__all__ = ["AccessResult", "MemoryPort"]
