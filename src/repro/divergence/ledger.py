"""The windowed determinism ledger.

DET001 (:mod:`repro.analysis.determinism`) proves *that* two runs diverged
by digesting the whole dispatch stream; this module makes the same stream
*bisectable*.  A :class:`WindowLedger` subscribes at
``Kernel.TRACE_PRIORITY_DIGEST`` to every kernel's ``dispatch`` probe
point and folds every scheduler dispatch ``(kind, time_ps, name)`` along
the paper's natural hierarchy:

* a **quantum window** — ``time_ps // window_ps``, the same geometry the
  :class:`~repro.host.accounting.HostLedger` uses
  (``(now_ps + offset_ps) // window_ps`` in
  :meth:`~repro.vcml.processor.Processor.bill_host_time`);
* a **lane** within the window — the simulated core whose ``simulate()``
  leg the dispatch runs (:func:`lane_of_dispatch`): core-thread
  dispatches belong to their core, everything else to ``MAIN_LANE``.

The window and root digests are the kernel's one dispatch fold,
:class:`~repro.systemc.kernel.DispatchDigest`; the ledger only adds the
per-lane digests on top.  At O(windows) memory it keeps:

1. the **root digest** — a hash chain over the window stream digests.
   At :data:`DEFAULT_WINDOW` it equals the DET001 digest
   (:meth:`repro.systemc.kernel.TraceRecorder.digest`) of the same run,
   so a ledger can stand in for a DET001 trace across processes;
2. a per-window **stream digest** over the window's dispatches in order
   (captures cross-lane interleaving inside the window);
3. per-(window, lane) digests over each lane's sub-stream (localize the
   diverging lane once the window is known).

On :meth:`~WindowLedger.detach` the fold is frozen into a
:class:`RunLedger` — a compact JSON-serializable record — so runs that
never shared an address space (cold vs snapshot-resumed, farm worker vs
local) can be compared offline with
:func:`repro.divergence.bisect`.

Telemetry (flushed on detach when a registry is available):
``divergence.ledger.entries`` / ``divergence.ledger.windows`` counters,
``divergence.ledger.window_entries`` (dispatches folded per sealed
window — the deterministic overhead proxy) and
``divergence.ledger.seal_ns`` (real wall nanoseconds per window seal,
diagnostics only, via the sanctioned :mod:`repro.host.wallclock` doorway)
histograms.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from typing import Callable, Dict, List, NamedTuple, Optional

from ..host.machine import MAIN_LANE
from ..host.wallclock import elapsed_since, wall_clock
from ..systemc.kernel import (
    DEFAULT_WINDOW,
    EMPTY_ROOT,
    DispatchDigest,
    Kernel,
    chain_digest,
)
from ..systemc.time import SimTime
from ..telemetry import scope_registry

#: ledger file format tag; bump on incompatible schema changes
LEDGER_FORMAT = "repro.divergence.ledger/1"


#: processor threads are spawned as ``f"core{core_id}"`` under the CPU
#: module (:meth:`repro.vcml.processor.Processor.start_of_simulation`), so
#: their hierarchical dispatch names end in ``.coreN``
CORE_DISPATCH_RE = re.compile(r"(?:^|\.)core(\d+)$")


def lane_of_dispatch(name: str) -> int:
    """Lane id for a kernel dispatch name.

    A dispatch of ``aoa.cpu1.core1`` runs simulated core 1's
    ``simulate()`` leg, so it belongs to lane 1; everything else (methods,
    peripheral threads, the quantum barrier itself) is main-thread work
    and belongs to :data:`~repro.host.machine.MAIN_LANE`.
    """
    match = CORE_DISPATCH_RE.search(name)
    return int(match.group(1)) if match else MAIN_LANE


class LaneDigest(NamedTuple):
    """One lane's sealed sub-stream within one window."""

    digest: str
    entries: int
    first_seq: int      # global dispatch sequence numbers (run-wide)
    last_seq: int

    def to_json(self) -> dict:
        return {"digest": self.digest, "entries": self.entries,
                "first_seq": self.first_seq, "last_seq": self.last_seq}

    @classmethod
    def from_json(cls, doc: dict) -> "LaneDigest":
        return cls(doc["digest"], doc["entries"],
                   doc["first_seq"], doc["last_seq"])


class WindowRecord(NamedTuple):
    """One sealed quantum window of the dispatch stream."""

    window: int                     # window id (time_ps // window_ps)
    digest: str                     # stream digest, interleave-sensitive
    entries: int
    lanes: Dict[int, LaneDigest]

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "digest": self.digest,
            "entries": self.entries,
            "lanes": {str(lane): self.lanes[lane].to_json()
                      for lane in sorted(self.lanes)},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "WindowRecord":
        lanes = {int(lane): LaneDigest.from_json(entry)
                 for lane, entry in doc["lanes"].items()}
        return cls(doc["window"], doc["digest"], doc["entries"], lanes)


class RunLedger:
    """The frozen, serializable window digests of one run."""

    def __init__(self, window_ps: int, windows: List[WindowRecord],
                 root_digest: str, entries: int,
                 meta: Optional[dict] = None):
        self.window_ps = window_ps
        self.windows = windows
        self.root_digest = root_digest
        self.entries = entries
        self.meta = dict(meta or {})

    # -- serialization ------------------------------------------------------
    def to_json(self) -> dict:
        return {
            "format": LEDGER_FORMAT,
            "window_ps": self.window_ps,
            "root_digest": self.root_digest,
            "entries": self.entries,
            "meta": self.meta,
            "windows": [record.to_json() for record in self.windows],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "RunLedger":
        """Rebuild a ledger; any malformed document raises ValueError."""
        if not isinstance(doc, dict):
            raise ValueError(f"not a divergence ledger: top level is a "
                             f"{type(doc).__name__}, not an object")
        if doc.get("format") != LEDGER_FORMAT:
            raise ValueError(
                f"not a divergence ledger (format={doc.get('format')!r}, "
                f"want {LEDGER_FORMAT!r})")
        try:
            ledger = cls(
                window_ps=doc["window_ps"],
                windows=[WindowRecord.from_json(entry) for entry in doc["windows"]],
                root_digest=doc["root_digest"],
                entries=doc["entries"],
                meta=doc.get("meta", {}),
            )
            root = functools.reduce(chain_digest, ledger.window_digests(),
                                    EMPTY_ROOT)
        except KeyError as exc:
            raise ValueError(f"not a divergence ledger: missing key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"not a divergence ledger: malformed entry ({exc})") from None
        if root != ledger.root_digest:
            raise ValueError(
                f"not a divergence ledger: root_digest {ledger.root_digest!r} "
                f"is not the chain of its window digests ({root!r})")
        return ledger

    def save(self, path: str) -> None:
        with open(path, "w") as stream:
            json.dump(self.to_json(), stream, indent=1, sort_keys=True)
            stream.write("\n")

    @classmethod
    def load(cls, path: str) -> "RunLedger":
        with open(path) as stream:
            return cls.from_json(json.load(stream))

    # -- queries -------------------------------------------------------------
    def window_digests(self) -> List[str]:
        """The per-position stream digests :func:`bisect` scans."""
        return [record.digest for record in self.windows]

    def __repr__(self) -> str:
        return (f"RunLedger(windows={len(self.windows)}, "
                f"entries={self.entries}, root={self.root_digest[:12]}…)")


class WindowLedger:
    """Class-level DIGEST-tier trace hook that builds a :class:`RunLedger`.

    Attach before the run, detach after (or use it as a context manager);
    :meth:`detach` returns the frozen :class:`RunLedger`.  The hook is a
    pure observer: it never mutates the events it sees, so DET001 digests
    are bit-identical with the ledger attached or not, in either
    hook-attach order (both sit in the DIGEST band and dispatch FIFO).

    Window ids come from the *kernel* timestamp of each dispatch.  The
    fold tolerates non-monotonic time — a harness that builds several
    platforms in one capture (``repro.bench --ledger-dir``) restarts
    simulation time at zero per platform — by sealing on any window
    *change* (:class:`~repro.systemc.kernel.DispatchDigest`); the window
    sequence, not the window ids, is what two runs of the same scenario
    are compared on.
    """

    def __init__(self, window: SimTime | int = DEFAULT_WINDOW,
                 meta: Optional[dict] = None, registry=None):
        window_ps = window.picoseconds if isinstance(window, SimTime) else int(window)
        if window_ps <= 0:
            raise ValueError(f"ledger window must be positive: {window_ps}ps")
        self.window_ps = window_ps
        self.meta = dict(meta or {})
        self.registry = registry
        self._lane_cache: Dict[str, int] = {}
        self._digest = DispatchDigest(window_ps, on_seal=self._seal)
        #: the open window's lanes: lane -> [hasher, entries, first, last seq]
        self._lanes: Dict[int, list] = {}
        self._seq = 0
        self._sealed: List[WindowRecord] = []
        self._handle = None
        #: per-seal telemetry samples, observed into the registry on detach
        self._window_entries: List[int] = []
        self._seal_wall_ns: List[float] = []

    # -- attachment -----------------------------------------------------------
    def attach(self) -> "WindowLedger":
        if self._handle is not None:
            raise RuntimeError("window ledger is already attached")
        self._handle = Kernel.add_trace_hook(
            self._record, Kernel.TRACE_PRIORITY_DIGEST)
        return self

    def detach(self) -> RunLedger:
        """Stop observing, seal the open window, return the frozen ledger."""
        if self._handle is not None:
            Kernel.remove_trace_hook(self._handle)
            self._handle = None
        self._digest.seal()
        self._flush_telemetry()
        return self.ledger()

    def __enter__(self) -> "WindowLedger":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # -- results --------------------------------------------------------------
    def ledger(self) -> RunLedger:
        """The ledger folded so far; the open window is included, not sealed."""
        windows = list(self._sealed)
        digest = self._digest
        if digest.stream is not None:
            windows.append(self._window_record(digest.window,
                                               digest.stream.hexdigest()))
        return RunLedger(self.window_ps, windows, digest.digest(),
                         self._seq, self.meta)

    @property
    def root_digest(self) -> str:
        return self._digest.digest()

    # -- the hook -------------------------------------------------------------
    def _record(self, kind: str, time_ps: int, name: str) -> None:
        line = self._digest.fold(kind, time_ps, name)
        lane = self._lane_cache.get(name)
        if lane is None:
            lane = self._lane_cache[name] = lane_of_dispatch(name)
        state = self._lanes.get(lane)
        if state is None:
            state = self._lanes[lane] = [hashlib.sha256(), 0, self._seq, 0]
        state[0].update(line)
        state[1] += 1
        state[3] = self._seq
        self._seq += 1

    def _window_record(self, window: int, digest: str) -> WindowRecord:
        lanes = {lane: LaneDigest(hasher.hexdigest(), entries, first, last)
                 for lane, (hasher, entries, first, last) in self._lanes.items()}
        return WindowRecord(window, digest,
                            sum(lane.entries for lane in lanes.values()), lanes)

    def _seal(self, window: int, digest: str) -> None:
        started = wall_clock()
        record = self._window_record(window, digest)
        self._lanes = {}
        self._sealed.append(record)
        self._window_entries.append(record.entries)
        self._seal_wall_ns.append(elapsed_since(started) * 1e9)

    # -- telemetry --------------------------------------------------------------
    def _flush_telemetry(self) -> None:
        registry = scope_registry(self.registry)
        if registry is None:
            return
        registry.counter("divergence.ledger.entries").inc(self._seq)
        registry.counter("divergence.ledger.windows").inc(len(self._sealed))
        entries_histogram = registry.histogram("divergence.ledger.window_entries")
        for count in self._window_entries:
            entries_histogram.observe(count)
        overhead = registry.histogram("divergence.ledger.seal_ns")
        for nanoseconds in self._seal_wall_ns:
            overhead.observe(nanoseconds)


def capture_ledger(action: Callable[[], object],
                   window: SimTime | int = DEFAULT_WINDOW,
                   meta: Optional[dict] = None, registry=None) -> RunLedger:
    """Run ``action`` under a :class:`WindowLedger`; return the ledger.

    ``action`` must build a *fresh* simulation, exactly like the DET001
    checker's actions — the two ledgers being compared must come from two
    independent runs of the same scenario.
    """
    ledger = WindowLedger(window, meta=meta, registry=registry)
    ledger.attach()
    try:
        action()
    finally:
        run = ledger.detach()
    return run
