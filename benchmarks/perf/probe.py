"""Outside-in instrumentation for one workload unit.

Everything here measures the simulator from the outside: it times calls
the harness makes (or wraps) into public functions and reads public
counters off each platform after it has run.  Nothing under ``src/repro``
knows it is being measured.

A :class:`Probe` keeps, for one unit of a workload:

* spans — (name, start, end, parent) around each call into a layer, held in
  memory and written out with the traced run;
* ``setup`` — the spans inside ``build_platform`` and any the workload
  marks as set-up (the warm boot of ``snapshot_fork``);
* ``ops`` — the span of each of the workload's repeated operations,
  without the garbage collection :meth:`Probe.settle` runs before each;
* ``counters`` — public statistics summed over every platform the unit ran;
* ``modeled`` — (instructions, modeled wall ns, simulated end time) per
  platform, the simulator's modeled outputs, in completion order.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

import repro.bench.measure
import repro.vp
import repro.vp.platform
from repro.core.kvm_cpu import KvmCpu
from repro.iss.interpreter import Interpreter

#: module attributes through which callers reach build_platform
_BUILD_ALIASES = (repro.vp.platform, repro.vp, repro.bench.measure)


def platform_counters(vp) -> Counter:
    """Public statistics of one platform, as raw sums (ratios come later)."""
    counts: Counter = Counter()
    counts["guest.instructions"] = vp.total_instructions()
    counts["guest.modeled_wall_ns"] = vp.ledger.wall_time_ns()
    counts["models.gic_acks"] = vp.gic.num_acks
    counts["models.timer_expirations"] = vp.timer.num_expirations
    counts["vcml.decode_hits"] = vp.bus.num_decode_hits
    counts["vcml.decode_lookups"] = vp.bus.num_decode_hits + vp.bus.num_decode_misses
    watchdog = getattr(vp, "watchdog", None)
    if watchdog is not None:
        counts["core.watchdog_fired"] = watchdog.num_fired
    for port in [vp.loader] + [cpu.mem for cpu in vp.cpus]:
        counts["fabric.dmi_hits"] += port.num_dmi_hits
        counts["fabric.transports"] += port.num_transports
        counts["tlm.pool_acquires"] += port.pool.num_acquires
        counts["tlm.pool_reuses"] += port.pool.num_reuses
    for cpu in vp.cpus:
        counts["vcml.simulate_calls"] += cpu.num_simulate_calls
        counts["vcml.syncs"] += cpu.num_syncs
        if isinstance(cpu, KvmCpu):
            vcpu = cpu.vcpu
            executor = vcpu.executor
            counts["kvm.runs"] += vcpu.num_runs
            counts["kvm.mmio_exits"] += vcpu.num_mmio_exits
            counts["kvm.wfi_blocks"] += vcpu.num_wfi_blocks
            counts["kvm.intr_exits"] += vcpu.num_intr_exits
            counts["core.kicks_filtered"] += cpu.kick_guard.num_kicks_filtered
        else:
            executor = cpu.executor
        if isinstance(executor, Interpreter):
            counts["iss.blocks_entered"] += executor.blocks_entered
            counts["arch.tlb_hits"] += executor.mmu.tlb.hits
            counts["arch.tlb_lookups"] += executor.mmu.tlb.hits + executor.mmu.tlb.misses
    return counts


class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    def __init__(self, name: str, index: int, parent: Optional[int], start: float):
        self.name = name
        self.index = index
        self.parent = parent
        self.start = start
        self.end: Optional[float] = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self, origin: float) -> dict:
        return {"name": self.name, "parent": self.parent,
                "start_s": self.start - origin, "end_s": self.end - origin}


class Probe:
    """Spans, set-up time, op latencies and counters of one workload unit.

    ``clock`` times every span; the untraced run passes one that leaves out
    the host-speed gauge's passes (see ``gauge.py``).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self.setup: List[Span] = []
        self.ops: List[Span] = []
        self.counters: Counter = Counter()
        self.modeled: List[Tuple[int, float, int]] = []
        self.checks: Dict[str, bool] = {}
        self.extra: Dict[str, float] = {}
        self._held = None
        self._held_base: Optional[Counter] = None

    # -- spans ----------------------------------------------------------------
    @contextlib.contextmanager
    def span(self, name: str, setup: bool = False, op: bool = False):
        """Time a call into a layer; ``setup``/``op`` also book the span."""
        record = Span(name, len(self.spans), self._stack[-1] if self._stack else None,
                      self.clock())
        self.spans.append(record)
        self._stack.append(record.index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()
            if setup:
                self.setup.append(record)
            if op:
                self.ops.append(record)

    # -- platforms --------------------------------------------------------------
    def adopt(self, vp, restored: bool = False) -> None:
        """Hold ``vp`` until the next platform (or :meth:`release`) arrives.

        Platforms run one after another in every workload, so counting the
        previous one when the next is adopted sees it finished, and keeps at
        most one finished platform alive.  A restored platform starts with
        the snapshot's counters, which are subtracted so it counts only what
        it simulated itself.
        """
        self.release()
        self._held = vp
        self._held_base = platform_counters(vp) if restored else None

    def release(self) -> None:
        vp, self._held = self._held, None
        if vp is None:
            return
        counts = platform_counters(vp)
        self.modeled.append((counts["guest.instructions"], counts["guest.modeled_wall_ns"],
                             vp.kernel.now.picoseconds))
        if self._held_base is not None:
            counts.subtract(self._held_base)
        self.counters.update(counts)

    def settle(self) -> None:
        """Count the finished platform and collect garbage before an op.

        A finished platform and its 16 MiB of guest RAM sit in reference
        cycles until a full collection, so without one here an op's latency
        depends on where the cyclic collector happens to be: uncollected,
        snapshot restores split into ~8 ms and ~25 ms groups whose mix
        moves with the seed.  The collection runs outside the op's span but
        inside the unit's wall time, in a ``settle`` span of its own whose
        total is ``extra["gc_settle_s"]``, so garbage an op leaves behind
        still shows.
        """
        self.release()
        with self.span("settle") as record:
            gc.collect()
        self.extra["gc_settle_s"] = self.extra.get("gc_settle_s", 0.0) + record.seconds

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = bool(passed)

    @contextlib.contextmanager
    def wrapping_build_platform(self):
        """Route every ``build_platform`` call through a timed span."""
        original = repro.vp.platform.build_platform

        def build_platform(kind, config, software):
            with self.span("build_platform", setup=True):
                vp = original(kind, config, software)
            self.adopt(vp)
            return vp

        for module in _BUILD_ALIASES:
            module.build_platform = build_platform
        try:
            yield
        finally:
            for module in _BUILD_ALIASES:
                module.build_platform = original
            self.release()
