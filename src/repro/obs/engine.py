"""Attach the observability layer to a running virtual platform.

``enable_obs(vp)`` is the performance twin of
:func:`repro.telemetry.instrument.enable_telemetry`: one call, no model
changes, pure observation, fully undoable.  It subscribes to four probe
points of the platform kernel's bus (:mod:`repro.systemc.probes`):

* ``host_bill`` — every modeled host-time billing event — goes straight
  to :meth:`AttributionFold.bill <repro.obs.attribution.AttributionFold.
  bill>`, which keeps *two* lane views per event: the actual ledger lane
  (so the per-window wall fold reproduces
  :meth:`HostLedger.window_span_ns` bit-for-bit) and the attribution lane
  the event would land on under the parallel fold (main thread vs.
  per-core), which is how a sequential run already yields the per-lane
  report the modeled parallel fold is compared with;
* ``time_advance`` (after every simulated-time advance, never for delta
  cycles) closes quantum windows deterministically: when simulation
  reaches time *T*, every window ending before *T* can no longer receive
  billing, so it is folded and streamed as one snapshot;
* ``dispatch`` counts kernel dispatches per window;
* ``run_return`` *seals* the platform once its run has finished (all cores
  halted or the guest requested shutdown): the final windows fold, the
  terminal summary streams, every subscription is cancelled, and the
  engine drops its platform reference.  Entries hold their platform
  weakly in any case (a ``stop_on_boot`` run ends through ``sim.stop()``
  and never seals itself), so one ``observing()`` scope can span a whole
  bench matrix without keeping dozens of finished platforms (and their
  RAM backings) alive.

Digest neutrality: no subscriber touches simulation state, and DET001 and
the divergence ledger run in an earlier band of the same dispatch point,
so they see identical event streams with obs on or off.
"""

from __future__ import annotations

import contextlib
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..systemc.probes import Subscription
from .attribution import AttributionFold, AttributionSummary, WindowRecord
from .stream import ObsStreamer, Sink


@dataclass
class _PlatformEntry:
    key: str
    #: weak, so an unsealed entry (a ``stop_on_boot`` run halts no core
    #: and requests no shutdown) does not keep a finished platform alive;
    #: None once the entry seals
    vp_ref: Optional[weakref.ref]
    fold: Optional[AttributionFold]
    subscriptions: List[Subscription] = field(default_factory=list)
    window_ps: int = 0
    num_cores: int = 0
    cumulative_wall_ns: float = 0.0
    windows_closed: int = 0
    sealed: bool = False
    #: last-known run state, refreshed at every ``run_return``;
    #: authoritative once the entry is sealed or its platform is gone
    cached_instructions: int = 0
    cached_sim_ps: int = 0
    lanes_cache: Dict[int, None] = field(default_factory=dict)

    @property
    def vp(self):
        return self.vp_ref() if self.vp_ref is not None else None

    def instructions(self) -> int:
        vp = self.vp
        if vp is not None:
            self.cached_instructions = vp.total_instructions()
        return self.cached_instructions

    def sim_time_ps(self) -> int:
        vp = self.vp
        if vp is not None:
            self.cached_sim_ps = vp.kernel.now.picoseconds
        return self.cached_sim_ps


class Obs:
    """One observability scope: an attribution fold + streamer per platform."""

    def __init__(self, sinks: Optional[List[Sink]] = None, every: int = 1,
                 max_snapshots: Optional[int] = None):
        self.streamer = ObsStreamer(sinks, every=every,
                                    max_snapshots=max_snapshots)
        self.platforms: List[_PlatformEntry] = []

    # -- attachment ---------------------------------------------------------
    def attach(self, vp) -> "Obs":
        """Observe a whole virtual platform (idempotence-guarded).

        Platforms without a host ledger (``track_host_time`` off) attach as
        inert entries: there is nothing to attribute, but ``vp.obs`` still
        points here so callers need not special-case the configuration.
        """
        if getattr(vp, "obs", None) is not None:
            raise ValueError(f"platform {vp.name!r} already has obs attached")
        key = f"{vp.name}#{len(self.platforms)}"
        ledger = getattr(vp, "ledger", None)
        num_cores = len(getattr(vp, "cpus", ()))
        if ledger is None:
            entry = _PlatformEntry(key, weakref.ref(vp), None, num_cores=num_cores)
            self.platforms.append(entry)
            vp.obs = self
            return self
        entry = _PlatformEntry(key, weakref.ref(vp), AttributionFold(ledger),
                               window_ps=ledger.window_size.picoseconds,
                               num_cores=num_cores or ledger.num_cores)
        entry.fold.on_window = (
            lambda record, entry=entry: self._on_window(entry, record))
        self.platforms.append(entry)
        vp.obs = self
        bus = vp.kernel.probes
        entry.subscriptions += [bus.subscribe(point, handler) for point, handler
                                in self._probes(entry).items()]
        return self

    def detach(self) -> None:
        """Seal every platform (final fold + summary), cancel every
        subscription."""
        self.finalize()
        self.streamer.close()

    # -- probes -------------------------------------------------------------
    def _probes(self, entry: _PlatformEntry) -> dict:
        fold = entry.fold
        window_ps = entry.window_ps

        def dispatch(kind: str, time_ps: int, name: str) -> None:
            fold.record_dispatch(time_ps // window_ps)

        # Refresh the run-state caches after every run, so a platform
        # collected before the scope closes still summarizes; seal the
        # entry when the run is over, releasing the platform.
        def run_return(now) -> None:
            vp = entry.vp
            if vp is None:
                return
            entry.instructions()
            entry.sim_time_ps()
            if vp.all_halted or getattr(getattr(vp, "simctl", None),
                                        "shutdown_requested", False):
                self._seal(entry)

        return {"host_bill": fold.bill, "time_advance": fold.advance_to,
                "dispatch": dispatch, "run_return": run_return}

    # -- window snapshots ----------------------------------------------------
    def _on_window(self, entry: _PlatformEntry, record: WindowRecord) -> None:
        entry.cumulative_wall_ns += record.wall_ns
        entry.windows_closed += 1
        for lane in record.busy_ns:
            entry.lanes_cache.setdefault(lane)
        self.streamer.offer(self._window_snapshot(entry, record))

    def _window_snapshot(self, entry: _PlatformEntry,
                         record: WindowRecord) -> dict:
        from .attribution import PHASES, lane_name
        lanes = {}
        for lane in sorted(entry.lanes_cache):
            busy = record.busy_ns.get(lane, 0.0)
            phases = record.phases.get(lane, {})
            lanes[lane_name(lane)] = {
                "busy_ns": busy,
                "utilization": busy / record.wall_ns if record.wall_ns > 0
                               else 0.0,
                "phases": {p: phases.get(p, 0.0) for p in PHASES
                           if phases.get(p, 0.0) > 0.0},
            }
        instructions = entry.instructions()
        wall_ns = entry.cumulative_wall_ns
        return {
            "platform": entry.key,
            "window": record.window,
            "sim_time_ps": (record.window + 1) * entry.window_ps,
            "window_wall_ns": record.wall_ns,
            "wall_ns": wall_ns,
            "instructions": instructions,
            "mips": (instructions / wall_ns * 1e3) if wall_ns > 0 else 0.0,
            "dispatches": record.dispatches,
            "final": False,
            "lanes": lanes,
        }

    # -- sealing / results ---------------------------------------------------
    def _seal(self, entry: _PlatformEntry) -> None:
        """Finalize one platform's fold, stream its terminal summary,
        cancel its subscriptions, and drop the platform reference."""
        if entry.sealed:
            return
        entry.sealed = True
        # Refresh the caches while the platform is still reachable.
        entry.instructions()
        entry.sim_time_ps()
        if entry.fold is not None:
            entry.fold.finalize()
            self.streamer.offer({
                "platform": entry.key,
                "final": True,
                "summary": self._summary(entry).to_json(),
                "stream": self.streamer.stats(),
            }, force=True)
        for subscription in entry.subscriptions:
            subscription.cancel()
        entry.subscriptions.clear()
        vp, entry.vp_ref = entry.vp, None
        if vp is not None and getattr(vp, "obs", None) is self:
            vp.obs = None

    def finalize(self) -> None:
        """Seal every platform that has not sealed itself yet."""
        for entry in self.platforms:
            self._seal(entry)

    def _summary(self, entry: _PlatformEntry,
                 include_open: bool = False) -> AttributionSummary:
        return entry.fold.summary(
            platform=entry.key,
            num_cores=entry.num_cores,
            sim_time_ps=entry.sim_time_ps(),
            instructions=entry.instructions(),
            include_open=include_open,
        )

    def summaries(self, include_open: bool = False
                  ) -> Dict[str, AttributionSummary]:
        """Whole-run attribution summary per attached (ledgered) platform.

        ``include_open`` folds still-open windows non-destructively — use it
        for live snapshots and crash bundles taken mid-run.
        """
        return {entry.key: self._summary(entry, include_open)
                for entry in self.platforms if entry.fold is not None}

    def summary_for(self, vp, include_open: bool = True
                    ) -> Optional[AttributionSummary]:
        for entry in self.platforms:
            if entry.vp is vp and entry.fold is not None:
                return self._summary(entry, include_open)
        return None

    def report(self) -> str:
        from .attribution import render_summary
        return "".join(render_summary(summary)
                       for summary in self.summaries(include_open=True)
                       .values())

    def stream_stats(self) -> dict:
        return self.streamer.stats()


def enable_obs(vp, sinks: Optional[List[Sink]] = None, every: int = 1,
               max_snapshots: Optional[int] = None) -> Obs:
    """Observe ``vp`` with a fresh scope; returns the :class:`Obs` handle,
    also reachable as ``vp.obs``."""
    obs = Obs(sinks, every=every, max_snapshots=max_snapshots)
    obs.attach(vp)
    return obs


# -- collection context (used by repro.bench and repro.vp.build_platform) ------

_ACTIVE: List[Obs] = []


def active_obs() -> Optional[Obs]:
    """The innermost open ``observing()`` scope, if any."""
    return _ACTIVE[-1] if _ACTIVE else None


def maybe_attach(vp) -> Optional[Obs]:
    """Attach ``vp`` to the active observing scope (no-op without one)."""
    obs = active_obs()
    if obs is not None:
        obs.attach(vp)
    return obs


@contextlib.contextmanager
def observing(sinks: Optional[List[Sink]] = None, every: int = 1,
              max_snapshots: Optional[int] = None):
    """Scope within which every ``build_platform`` auto-attaches obs.

    ``repro.bench.runner`` wraps each experiment in one of these when
    ``--obs-dir`` is given, so the attribution report
    written next to the experiment result covers every platform the
    experiment built, without the experiments knowing.
    """
    obs = Obs(sinks, every=every, max_snapshots=max_snapshots)
    _ACTIVE.append(obs)
    try:
        yield obs
    finally:
        _ACTIVE.remove(obs)
        obs.detach()
