"""repro.obs — continuous performance observability for virtual platforms.

Its attribution fold is the one fold of the ``host_bill`` stream:
:mod:`repro.telemetry` lays its Perfetto host-time spans out from the same
sealed window records.

* :mod:`.attribution` — fold HostLedger billing into per-lane, per-window
  phases (guest / mmio / irq / kernel / barrier_idle / overhead) that sum
  exactly to ``HostLedger.wall_time_ns()``, plus the projected parallel
  efficiency that the modeled parallel fold (Fig. 7) is compared with;
* :mod:`.engine` — ``enable_obs(vp)`` / ``observing()`` non-intrusive
  attachment (digest-neutral by construction);
* :mod:`.scope` — the lifecycle every observer shares: open scopes,
  weakly held platform entries, the seal rule and the one fold per
  platform;
* :mod:`.stream` — bounded, drop-accounted snapshot streaming to JSONL
  files, Unix sockets, and in-process subscribers;
* :mod:`.top` — plain-text live view helpers (``python -m repro.obs top``).
"""

from .attribution import (AttributionFold, AttributionSummary,
                          CATEGORY_PHASES, PHASES, render_summary)
from .engine import Obs, enable_obs, observing
from .stream import JsonlSink, ObsStreamer, Sink, SocketSink, SubscriberSink

__all__ = [
    "AttributionFold", "AttributionSummary", "CATEGORY_PHASES", "PHASES",
    "render_summary",
    "Obs", "enable_obs", "observing",
    "JsonlSink", "ObsStreamer", "Sink", "SocketSink", "SubscriberSink",
]
