"""Attach the observability layer to a running virtual platform.

``enable_obs(vp)`` is the performance twin of
:func:`repro.telemetry.instrument.enable_telemetry`: one call, no model
changes, pure observation, fully undoable.  Three taps per platform:

* every CPU's ``bill_host_time`` — the single funnel all modeled host-time
  billing flows through — is wrapped to mirror each event into an
  :class:`~repro.obs.attribution.AttributionFold`.  The wrap records *two*
  lane views per event: the actual ledger lane (so the per-window wall
  fold reproduces :meth:`HostLedger.window_span_ns` bit-for-bit) and the
  attribution lane the event would land on under the parallel fold (main
  thread vs. per-core), which is how a sequential run already yields the
  per-lane report the modeled parallel fold is compared with;
* the kernel's ``time_hook`` (fired after every simulated-time advance,
  never for delta cycles) closes quantum windows deterministically: when
  simulation reaches time *T*, every window ending before *T* can no
  longer receive billing, so it is folded and streamed as one snapshot;
* the kernel's ``run`` is wrapped to *seal* the platform once its run has
  finished (all cores halted or the guest requested shutdown): the final
  windows fold, the terminal summary streams, every tap is restored, and
  the engine drops its platform reference.  One ``observing()`` scope can
  therefore span a whole bench matrix without keeping dozens of finished
  platforms (and their RAM backings) alive.

Digest neutrality: no tap touches simulation state; the kernel
``trace_hook`` used for dispatch counting chains to whatever hook was
installed before it (telemetry's instance hook or the determinism
checker's class hook) with unmodified arguments, so DET001 and the
divergence ledger see identical event streams with obs on or off.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..host.machine import MAIN_LANE
from ..systemc.kernel import Kernel
from ..telemetry.wrapping import WrapSet
from .attribution import AttributionFold, AttributionSummary, WindowRecord
from .stream import ObsStreamer, Sink


@dataclass
class _PlatformEntry:
    key: str
    vp: Optional[object]                 # dropped when the entry seals
    fold: Optional[AttributionFold]
    wraps: WrapSet = field(default_factory=WrapSet)
    window_ps: int = 0
    num_cores: int = 0
    cumulative_wall_ns: float = 0.0
    windows_closed: int = 0
    sealed: bool = False
    #: last-known run state, authoritative once the entry is sealed
    cached_instructions: int = 0
    cached_sim_ps: int = 0
    lanes_cache: Dict[int, None] = field(default_factory=dict)

    def instructions(self) -> int:
        if self.vp is not None:
            self.cached_instructions = self.vp.total_instructions()
        return self.cached_instructions

    def sim_time_ps(self) -> int:
        if self.vp is not None:
            self.cached_sim_ps = self.vp.kernel.now.picoseconds
        return self.cached_sim_ps


class Obs:
    """One observability scope: an attribution fold + streamer per platform."""

    def __init__(self, sinks: Optional[List[Sink]] = None, every: int = 1,
                 max_snapshots: Optional[int] = None):
        self.streamer = ObsStreamer(sinks, every=every,
                                    max_snapshots=max_snapshots)
        self.platforms: List[_PlatformEntry] = []
        self._attached = True

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
            entry = _PlatformEntry(key, vp, None, num_cores=num_cores)
            self.platforms.append(entry)
            vp.obs = self
            return self
        entry = _PlatformEntry(key, vp, AttributionFold(ledger),
                               window_ps=ledger.window_size.picoseconds,
                               num_cores=num_cores or ledger.num_cores)
        entry.fold.on_window = (
            lambda record, entry=entry: self._on_window(entry, record))
        self.platforms.append(entry)
        vp.obs = self
        for cpu in vp.cpus:
            self._attach_cpu(entry, cpu)
        self._attach_kernel(entry, vp.kernel)
        return self

    def detach(self) -> None:
        """Seal every platform (final fold + summary), undo every tap."""
        self.finalize()
        self.streamer.close()
        self._attached = False

    # -- taps ---------------------------------------------------------------
    def _attach_cpu(self, entry: _PlatformEntry, cpu) -> None:
        fold = entry.fold

        def make_bill(original):
            def bill_host_time(nanoseconds, category="cpu",
                               main_thread=False):
                original(nanoseconds, category, main_thread)
                if cpu.host_ledger is None or nanoseconds <= 0:
                    return
                # Attribution lane: where the event lands under the
                # parallel fold.  Actual lane: where the ledger put it now.
                attr_lane = MAIN_LANE if main_thread else cpu.core_id
                if main_thread or not cpu.parallel:
                    actual_lane = MAIN_LANE
                else:
                    actual_lane = cpu.core_id
                window = (cpu.keeper.current_time()
                          // cpu.host_ledger.window_size)
                fold.record(window, attr_lane, actual_lane, nanoseconds,
                            category)
            return bill_host_time

        entry.wraps.wrap(cpu, "bill_host_time", make_bill)

    def _attach_kernel(self, entry: _PlatformEntry, kernel: Kernel) -> None:
        fold = entry.fold
        window_ps = entry.window_ps

        # Window-boundary detection: piggyback on simulated-time advances.
        previous_time_hook = kernel.time_hook

        def time_hook(now_ps: int) -> None:
            if previous_time_hook is not None:
                previous_time_hook(now_ps)
            fold.advance_to(now_ps)

        entry.wraps.set(kernel, "time_hook", time_hook)

        # Dispatch counting: chain through the same per-instance seam the
        # telemetry layer uses.  An instance hook installed before us (e.g.
        # telemetry's) is chained directly; otherwise defer to the
        # *class-level* hook at call time so a determinism checker
        # installed later is never shadowed.
        previous_instance_hook = kernel.__dict__.get("trace_hook")

        def trace_hook(kind: str, time_ps: int, name: str) -> None:
            chained = previous_instance_hook
            if chained is None:
                chained = Kernel.trace_hook
            if chained is not None:
                chained(kind, time_ps, name)
            fold.record_dispatch(time_ps // window_ps)

        entry.wraps.set(kernel, "trace_hook", trace_hook)

        # Seal the entry when the run is over, releasing the platform.
        def make_run(original):
            def run(duration=None):
                end_time = original(duration)
                vp = entry.vp
                if vp is not None and (
                        vp.all_halted
                        or getattr(getattr(vp, "simctl", None),
                                   "shutdown_requested", False)):
                    self._seal(entry)
                return end_time
            return run

        entry.wraps.wrap(kernel, "run", make_run)

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
        restore its taps, and drop the platform reference."""
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
        entry.wraps.restore()
        vp, entry.vp = entry.vp, None
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
    ``--obs-dir`` or ``--history`` is given, so the attribution report
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
