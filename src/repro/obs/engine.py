"""Attach the observability layer to a running virtual platform.

``enable_obs(vp)`` attaches an :class:`Obs` scope, which like
:class:`~repro.telemetry.Telemetry` and :class:`~repro.flight.Flight` is
an :class:`~repro.obs.scope.ObserverScope`: one call, no model changes,
pure observation, fully undoable.  It reads the platform's one
:class:`~repro.obs.attribution.AttributionFold` (shared with telemetry
when both attach), which the scope base subscribes to two probe points of
the platform kernel's bus (:mod:`repro.systemc.probes`):

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
  billing, so it is folded and streamed as one snapshot.

Obs itself subscribes ``dispatch``, counting kernel dispatches per
window.  The base's ``run_return`` seal rule applies as to every
observer: once a run has finished (all cores halted or the guest
requested shutdown) the final windows fold, obs streams the terminal
summary, every subscription is cancelled and the platform is released.
Entries hold their platform weakly in any case, so one ``observing()``
scope can span a whole bench matrix without keeping dozens of finished
platforms (and their RAM backings) alive.

Digest neutrality: no subscriber touches simulation state, and DET001 and
the divergence ledger run in an earlier band of the same dispatch point,
so they see identical event streams with obs on or off.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .attribution import (PHASES, AttributionSummary, WindowRecord,
                          lane_name)
from .scope import ObserverScope, PlatformEntry, opened
from .stream import ObsStreamer, Sink


class Obs(ObserverScope):
    """One observability scope: a streamer over each platform's fold."""

    attr = "obs"
    uses_fold = True

    def __init__(self, sinks: Optional[List[Sink]] = None, every: int = 1,
                 max_snapshots: Optional[int] = None):
        super().__init__()
        self.streamer = ObsStreamer(sinks, every=every,
                                    max_snapshots=max_snapshots)

    def detach(self) -> None:
        """Seal every platform (final fold + summary), close the stream."""
        super().detach()
        self.streamer.close()

    def _bind(self, vp, scope) -> None:
        vp.obs = scope

    # -- probes -------------------------------------------------------------
    def _probes(self, entry: PlatformEntry, vp) -> dict:
        """Platforms without a host ledger (``track_host_time`` off) attach
        as inert entries: there is nothing to attribute, but ``vp.obs``
        still points here so callers need not special-case it."""
        fold = entry.fold
        if fold is None:
            return {}
        window_ps = fold.ledger.window_size.picoseconds
        lanes = set()
        cumulative_wall_ns = 0.0

        def on_window(record: WindowRecord) -> None:
            nonlocal cumulative_wall_ns
            cumulative_wall_ns += record.wall_ns
            lanes.update(record.busy_ns)
            # Built only if a sink will receive it.
            self.streamer.offer(lambda: _window_snapshot(
                entry, record, window_ps, sorted(lanes), cumulative_wall_ns))

        def dispatch(kind: str, time_ps: int, name: str) -> None:
            fold.record_dispatch(time_ps // window_ps)

        fold.on_window = on_window
        return {"dispatch": dispatch}

    def _on_seal(self, entry: PlatformEntry, vp) -> None:
        """Stream the terminal summary of the (finalized) fold."""
        if entry.fold is None:
            return
        entry.fold.on_window = None
        entry.summary = self._summary(entry)
        self.streamer.offer({
            "platform": entry.key,
            "final": True,
            "summary": entry.summary.to_json(),
            "stream": self.streamer.stats(),
        }, force=True)

    # -- results --------------------------------------------------------------
    def _summary(self, entry: PlatformEntry,
                 include_open: bool = False) -> AttributionSummary:
        entry.refresh()
        return entry.fold.summary(
            platform=entry.key,
            num_cores=entry.num_cores,
            sim_time_ps=entry.sim_time_ps,
            instructions=entry.instructions,
            include_open=include_open,
        )

    def summaries(self, include_open: bool = False
                  ) -> Dict[str, AttributionSummary]:
        """Whole-run attribution summary per attached (ledgered) platform.

        ``include_open`` folds still-open windows non-destructively — use it
        for live snapshots taken mid-run.  A sealed platform's summary was
        folded once, at seal.
        """
        return {entry.key: (entry.summary if entry.summary is not None
                            else self._summary(entry, include_open))
                for entry in self.platforms if entry.fold is not None}

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


def observing(sinks: Optional[List[Sink]] = None, every: int = 1,
              max_snapshots: Optional[int] = None):
    """Scope within which every ``build_platform`` auto-attaches obs.

    ``repro.bench.runner`` wraps each experiment in one of these when
    ``--obs-dir`` is given, so the attribution report
    written next to the experiment result covers every platform the
    experiment built, without the experiments knowing.
    """
    return opened(Obs(sinks, every=every, max_snapshots=max_snapshots))


def _window_snapshot(entry: PlatformEntry, record: WindowRecord,
                     window_ps: int, lanes: List[int],
                     cumulative_wall_ns: float) -> dict:
    """One streamed window: its phases per lane seen so far, run totals."""
    snapshot_lanes = {}
    for lane in lanes:
        busy = record.busy_ns.get(lane, 0.0)
        phases = record.phases.get(lane, {})
        snapshot_lanes[lane_name(lane)] = {
            "busy_ns": busy,
            "utilization": busy / record.wall_ns if record.wall_ns > 0
                           else 0.0,
            "phases": {p: phases.get(p, 0.0) for p in PHASES
                       if phases.get(p, 0.0) > 0.0},
        }
    entry.refresh()
    instructions = entry.instructions
    return {
        "platform": entry.key,
        "window": record.window,
        "sim_time_ps": (record.window + 1) * window_ps,
        "window_wall_ns": record.wall_ns,
        "wall_ns": cumulative_wall_ns,
        "instructions": instructions,
        "mips": (instructions / cumulative_wall_ns * 1e3)
                if cumulative_wall_ns > 0 else 0.0,
        "dispatches": record.dispatches,
        "final": False,
        "lanes": snapshot_lanes,
    }
