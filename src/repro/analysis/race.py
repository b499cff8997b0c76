"""SAN005 — lockset-lite cross-lane race detection during *serial* runs.

The parallel quantum kernel will run one worker thread per simulated core
(a *lane*) and synchronize only at quantum boundaries.  This sanitizer
predicts the data races that scheme would hit **while the simulation still
executes serially**: every attribute access on an instrumented object is
tagged with the accessing ``(lane, quantum window)`` — the lane is the
core whose ``simulate()`` leg is on the stack, the window is the leg's
local time (kernel time plus the keeper's offset) floor-divided by the
window size — the same index
:meth:`repro.vcml.processor.Processor.bill_host_time` computes in integer
picoseconds (``(now_ps + offset_ps) // window_ps``) for the
:class:`~repro.host.accounting.HostLedger`.  Two accesses to the same
attribute from *different* lanes in the *same* window, at least one of
them a write, would have been concurrent under the parallel kernel — the
serial schedule just happened to order them.  That pair is reported as a
SAN005 finding naming both access sites.

Approximations (both deliberately conservative):

* reading a *mutable container* attribute (dict/list/set/bytearray/deque)
  counts as a write — the caller may mutate the container in place, which
  ``__setattr__`` would never see (``self._windows[w][l] += ns`` performs
  only a *read* of ``_windows``);
* plain scalar reads count as reads, so lane-concurrent read/write pairs
  are flagged but read/read pairs are not.

Sanctioned channels are exempt the same way the static rules
(RPR008–RPR010) exempt them: while a :class:`repro.fabric.MemoryPort`
transaction is in flight, accesses to :class:`~repro.vcml.memory.Memory`
instances are not recorded — fabric-mediated RAM traffic models *guest*
memory, whose races are the guest program's business, not a host-level
bug.  Device models (GIC, peripherals) stay instrumented even when
reached through the fabric, because their Python-level dict mutations are
host state.

Instrumented classes: every :class:`~repro.systemc.module.Module`
subclass (devices, processors, routers), plus the non-Module hot spots
named by the static prong — :class:`~repro.host.accounting.HostLedger`
and :class:`~repro.tlm.dmi.DmiManager`.

The scope registers a kernel trace hook at
``Kernel.TRACE_PRIORITY_TAGGER`` so window bookkeeping runs *before* any
DET001 digest hook (:mod:`repro.analysis.determinism`); the tagger only
reads the event stream, so attaching it in either order leaves
determinism digests bit-for-bit unchanged.

Telemetry: ``race.checked`` (accesses tagged) and ``race.flagged``
(conflicts reported) are flushed to the scope's
:class:`~repro.telemetry.metrics.MetricsRegistry` on exit, when one is
provided.
"""

from __future__ import annotations

import contextlib
import re
import sys
from collections import deque
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..fabric.port import MemoryPort
from ..host.accounting import HostLedger
from ..host.machine import MAIN_LANE
from ..systemc.kernel import Kernel
from ..systemc.module import Module
from ..tlm.dmi import DmiManager
from ..vcml.memory import Memory
from ..vcml.processor import Processor
from .findings import Finding, FindingCollector, Severity

_active_scope: Optional["RaceScope"] = None

#: attribute reads of these types count as writes (in-place mutation is
#: invisible to ``__setattr__``)
_MUTABLE_CONTAINERS = (dict, list, set, bytearray, deque)

#: marker for patching a dunder the class did not define itself
_ABSENT = object()

_READ = "read"
_WRITE = "write"

#: processor threads are spawned as ``f"core{core_id}"`` under the CPU
#: module (:meth:`repro.vcml.processor.Processor.start_of_simulation`), so
#: their hierarchical dispatch names end in ``.coreN``.  This is the naming
#: half of the SAN005 lane model: a dispatch of ``aoa.cpu1.core1`` runs
#: simulated core 1's ``simulate()`` leg, everything else is main-thread
#: (SystemC scheduler) work.
CORE_DISPATCH_RE = re.compile(r"(?:^|\.)core(\d+)$")


def lane_of_dispatch(name: str) -> int:
    """Lane id for a kernel dispatch name — the shared lane model.

    Both SAN005 (which attributes attribute accesses to the lane whose
    ``simulate()`` leg is on the stack) and the divergence ledger
    (:mod:`repro.divergence`, which attributes whole scheduler dispatches)
    agree on what a *lane* is: simulated core ``i`` for the core-thread
    dispatches, :data:`~repro.host.machine.MAIN_LANE` for everything else
    (methods, peripheral threads, the quantum barrier itself).
    """
    match = CORE_DISPATCH_RE.search(name)
    return int(match.group(1)) if match else MAIN_LANE


class _LaneFrame:
    """One active ``simulate()`` leg: which core, and its window geometry."""

    __slots__ = ("processor", "lane", "window_size")

    def __init__(self, processor: Processor):
        self.processor = processor
        self.lane = processor.core_id
        ledger = processor.host_ledger
        self.window_size = (ledger.window_size if ledger is not None
                            else processor.keeper.global_quantum.quantum)

    def window(self) -> int:
        return self.processor.keeper.current_time() // self.window_size


class _Access:
    """First access to one attribute by one lane within one window."""

    __slots__ = ("kind", "site")

    def __init__(self, kind: str, site: str):
        self.kind = kind
        self.site = site


class _Entry:
    """Per-(object, attribute) access table slot for the current window."""

    __slots__ = ("window", "lanes")

    def __init__(self, window: int):
        self.window = window
        self.lanes: Dict[int, _Access] = {}


class RaceScope:
    """Context manager installing the SAN005 lane/window tagger.

    Like :class:`~repro.analysis.sanitize.SanitizerScope`, enter the scope
    *before constructing the platform* so every instrumented class is
    patched for the platform's whole lifetime, and read
    :attr:`findings` afterwards.  Scopes do not nest.
    """

    def __init__(self, collector: Optional[FindingCollector] = None,
                 registry=None):
        self.collector = collector if collector is not None else FindingCollector()
        self.registry = registry
        self.checked = 0            # accesses tagged with (lane, window)
        self.flagged = 0            # cross-lane conflicts reported
        self._frames: List[_LaneFrame] = []
        self._sanctioned = 0        # MemoryPort transaction nesting depth
        self._busy = False          # re-entrancy guard for the recorder
        self._table: Dict[Tuple[int, str], _Entry] = {}
        self._reported: Set[Tuple[str, str]] = set()
        self._saved: Dict[Tuple[type, str], object] = {}
        self._trace_handle = None
        self._kernel_window = 0
        self._window_ps = 0         # last seen window size, for the GC tagger

    # -- findings -------------------------------------------------------------
    @property
    def findings(self) -> List[Finding]:
        return self.collector.findings

    # -- patch management -----------------------------------------------------
    def _patch(self, owner: type, attr: str, replacement) -> None:
        self._saved[(owner, attr)] = owner.__dict__.get(attr, _ABSENT)
        setattr(owner, attr, replacement)

    def __enter__(self) -> "RaceScope":
        global _active_scope
        if _active_scope is not None:
            raise RuntimeError("race scope already active; scopes do not nest")
        _active_scope = self
        self._install_lane_tracker()
        self._install_sanctioned_channels()
        for owner in (Module, HostLedger, DmiManager):
            self._install_access_recorder(owner)
        self._trace_handle = Kernel.add_trace_hook(
            self._trace_tag, Kernel.TRACE_PRIORITY_TAGGER)
        return self

    def __exit__(self, *exc_info) -> None:
        global _active_scope
        for (owner, attr), original in self._saved.items():
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved.clear()
        if self._trace_handle is not None:
            Kernel.remove_trace_hook(self._trace_handle)
            self._trace_handle = None
        if self.registry is not None:
            self.registry.counter("race.checked").inc(self.checked)
            self.registry.counter("race.flagged").inc(self.flagged)
        _active_scope = None

    # -- lane context ---------------------------------------------------------
    def _install_lane_tracker(self) -> None:
        scope = self
        original = Processor._invoke_simulate

        def _invoke_simulate(processor: Processor, cycles: int):
            scope._frames.append(_LaneFrame(processor))
            try:
                return original(processor, cycles)
            finally:
                scope._frames.pop()

        self._patch(Processor, "_invoke_simulate", _invoke_simulate)

    # -- sanctioned channels ----------------------------------------------------
    def _install_sanctioned_channels(self) -> None:
        scope = self

        def sanctioned(original):
            def wrapper(port, *args, **kwargs):
                scope._sanctioned += 1
                try:
                    return original(port, *args, **kwargs)
                finally:
                    scope._sanctioned -= 1
            return wrapper

        for name in ("read", "write", "dbg_read", "dbg_write"):
            self._patch(MemoryPort, name, sanctioned(MemoryPort.__dict__[name]))

    # -- access recording -------------------------------------------------------
    def _install_access_recorder(self, owner: type) -> None:
        scope = self
        orig_get = owner.__dict__.get("__getattribute__", object.__getattribute__)
        orig_set = owner.__dict__.get("__setattr__", object.__setattr__)

        def __getattribute__(obj, name):
            value = orig_get(obj, name)
            if scope._frames and not scope._busy and not name.startswith("_san"):
                if not (name.startswith("__") or callable(value)):
                    kind = (_WRITE if isinstance(value, _MUTABLE_CONTAINERS)
                            else _READ)
                    scope._record(obj, name, kind)
            return value

        def __setattr__(obj, name, value):
            if scope._frames and not scope._busy and not name.startswith("_san"):
                if not name.startswith("__"):
                    scope._record(obj, name, _WRITE)
            orig_set(obj, name, value)

        self._patch(owner, "__getattribute__", __getattribute__)
        self._patch(owner, "__setattr__", __setattr__)

    @staticmethod
    def _site() -> str:
        frame = sys._getframe(2)
        here = __file__
        while frame is not None and frame.f_code.co_filename == here:
            frame = frame.f_back
        if frame is None:
            return "<unknown>"
        return f"{frame.f_code.co_filename}:{frame.f_lineno}"

    def _record(self, obj, attr: str, kind: str) -> None:
        self._busy = True
        try:
            if self._sanctioned and isinstance(obj, Memory):
                return                      # fabric-mediated guest RAM traffic
            frame = self._frames[-1]
            window = frame.window()
            self._window_ps = frame.window_size.picoseconds
            self.checked += 1
            key = (id(obj), attr)
            entry = self._table.get(key)
            if entry is None or entry.window != window:
                entry = _Entry(window)
                self._table[key] = entry
            mine = entry.lanes.get(frame.lane)
            site = None
            if mine is None or (kind == _WRITE and mine.kind == _READ):
                site = self._site()
                entry.lanes[frame.lane] = _Access(kind, site)
            for lane, access in entry.lanes.items():
                if lane == frame.lane:
                    continue
                if kind == _WRITE or access.kind == _WRITE:
                    self._flag(obj, attr, window, frame.lane,
                               kind, site or self._site(), lane, access)
                    break
        finally:
            self._busy = False

    def _flag(self, obj, attr: str, window: int, lane: int, kind: str,
              site: str, other_lane: int, other: _Access) -> None:
        cls = type(obj).__name__
        if (cls, attr) in self._reported:
            return
        self._reported.add((cls, attr))
        self.flagged += 1
        name = getattr(obj, "name", None) or cls
        self.collector.add(Finding(
            rule="SAN005",
            severity=Severity.WARNING,
            path=f"{cls}.{attr}",
            line=0,
            message=(
                f"cross-lane race on {name}.{attr}: lane {other_lane} "
                f"{other.kind} at {other.site} and lane {lane} {kind} at "
                f"{site} fall in quantum window {window}; under the "
                f"parallel kernel these run concurrently — route the "
                f"access through fabric.MemoryPort, a queued IRQ, or a "
                f"quantum-barrier merge"),
            context=f"window={window} lanes={other_lane},{lane}",
            fingerprint=f"SAN005:{cls}.{attr}",
        ))

    # -- trace tagging -----------------------------------------------------------
    def _trace_tag(self, kind: str, time_ps: int, name: str) -> None:
        """Window bookkeeping off the kernel event stream (read-only).

        Kernel time is a lower bound on every lane's local time, so once
        the kernel crosses a window boundary no lane can touch the older
        windows again — their table entries are garbage-collected here.
        Registered at ``TRACE_PRIORITY_TAGGER`` so it runs before DET001
        digest hooks; it never mutates the events it observes.
        """
        if not self._table or self._window_ps <= 0:
            return
        window = time_ps // self._window_ps
        if window > self._kernel_window:
            self._kernel_window = window
            stale = [key for key, entry in self._table.items()
                     if entry.window < window]
            for key in stale:
                del self._table[key]


@contextlib.contextmanager
def race_detecting(collector: Optional[FindingCollector] = None,
                   registry=None) -> Iterator[RaceScope]:
    """``with race_detecting() as scope: build_platform(...); vp.run(...)``"""
    scope = RaceScope(collector, registry=registry)
    with scope:
        yield scope


def active_race_scope() -> Optional[RaceScope]:
    return _active_scope
