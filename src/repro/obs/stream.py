"""Bounded, drop-accounted streaming of observability snapshots.

The attribution engine (:mod:`repro.obs.engine`) produces one snapshot per
finalized quantum window; this module fans those snapshots out to pluggable
sinks without ever being allowed to stall or destabilize the simulation:

* every sink is **best-effort** — a failing write drops the snapshot and
  increments that sink's drop counter instead of raising into the kernel;
* the streamer is **bounded** — a stride (``every``) thins high-frequency
  window streams and ``max_snapshots`` caps the total volume, with
  everything not forwarded accounted in ``dropped_stride`` /
  ``dropped_cap`` (no silent loss);
* sinks are tiny and composable: a JSONL file, a Unix-domain socket
  (``python -m repro.obs top --socket`` listens on the other end), and an
  in-process subscriber callback for tests and embedding.

Snapshot schema ``repro.obs.snapshot/1`` (one JSON object per event)::

    {"schema": "repro.obs.snapshot/1", "seq": 7, "platform": "vp#0",
     "window": 42, "sim_time_ps": ..., "window_wall_ns": ...,
     "wall_ns": ..., "instructions": ..., "mips": ...,
     "dispatches": ..., "final": false,
     "lanes": {"main": {"busy_ns": ..., "utilization": ...,
                        "phases": {"guest": ..., ...}}, ...}}

The terminal snapshot (``final: true``) repeats the whole-run attribution
summary so a consumer that only keeps the last line still has the report.
"""

from __future__ import annotations

import json
import socket
from typing import Callable, Dict, List, Optional, Union

SNAPSHOT_SCHEMA = "repro.obs.snapshot/1"

#: a socket sink gives up (goes dead) after this many consecutive failures
MAX_CONSECUTIVE_FAILURES = 8


class Sink:
    """Best-effort snapshot consumer; subclasses implement :meth:`emit`."""

    name = "sink"

    def __init__(self):
        self.accepted = 0
        self.dropped = 0

    def send(self, snapshot: dict) -> bool:
        """Deliver one snapshot; never raises.  Returns True on success."""
        try:
            self.emit(snapshot)
        except Exception:
            self.dropped += 1
            return False
        self.accepted += 1
        return True

    def emit(self, snapshot: dict) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; never raises."""

    def stats(self) -> dict:
        return {"sink": self.name, "accepted": self.accepted,
                "dropped": self.dropped}


class JsonlSink(Sink):
    """One JSON object per line, flushed per snapshot (tail-friendly)."""

    name = "jsonl"

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._file = None

    def emit(self, snapshot: dict) -> None:
        if self._file is None:
            self._file = open(self.path, "w", encoding="utf-8")
        self._file.write(json.dumps(snapshot, sort_keys=True) + "\n")
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except Exception:
                pass
            self._file = None


class SubscriberSink(Sink):
    """In-process callback; exceptions in the callback count as drops."""

    name = "subscriber"

    def __init__(self, callback: Callable[[dict], None]):
        super().__init__()
        self.callback = callback

    def emit(self, snapshot: dict) -> None:
        self.callback(snapshot)


class SocketSink(Sink):
    """Newline-delimited JSON over a Unix-domain stream socket.

    Connects lazily on first emit; a missing or dead listener drops
    snapshots (accounted) rather than failing the run, and after
    :data:`MAX_CONSECUTIVE_FAILURES` consecutive failures the sink marks
    itself dead and stops trying (so a never-started listener costs one
    connect attempt per window at most, then nothing).
    """

    name = "socket"

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._sock: Optional[socket.socket] = None
        self._consecutive_failures = 0
        self.dead = False

    def send(self, snapshot: dict) -> bool:
        if self.dead:
            self.dropped += 1
            return False
        ok = super().send(snapshot)
        if ok:
            self._consecutive_failures = 0
        else:
            self._consecutive_failures += 1
            self._disconnect()
            if self._consecutive_failures >= MAX_CONSECUTIVE_FAILURES:
                self.dead = True
        return ok

    def emit(self, snapshot: dict) -> None:
        if self._sock is None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(self.path)
            self._sock = sock
        payload = (json.dumps(snapshot, sort_keys=True) + "\n").encode("utf-8")
        self._sock.sendall(payload)

    def _disconnect(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except Exception:
                pass
            self._sock = None

    def close(self) -> None:
        self._disconnect()


class ObsStreamer:
    """Fans snapshots out to sinks with stride thinning and a volume cap."""

    def __init__(self, sinks: Optional[List[Sink]] = None, every: int = 1,
                 max_snapshots: Optional[int] = None):
        if every < 1:
            raise ValueError(f"stride must be >= 1, got {every}")
        self.sinks: List[Sink] = list(sinks or [])
        self.every = every
        self.max_snapshots = max_snapshots
        self.seq = 0            # snapshots offered
        self.forwarded = 0      # snapshots that reached the sinks
        self.dropped_stride = 0
        self.dropped_cap = 0

    def add_sink(self, sink: Sink) -> Sink:
        self.sinks.append(sink)
        return sink

    def offer(self, snapshot: Union[dict, Callable[[], dict]],
              force: bool = False) -> bool:
        """Forward ``snapshot`` unless thinned or capped.

        ``snapshot`` may also be a function that builds it, called only
        when a sink will receive it: a thinned, capped or sinkless stream
        then builds nothing, and counts exactly as it would otherwise.
        ``force`` bypasses stride and cap (the terminal summary snapshot
        must always reach the sinks).
        """
        seq = self.seq
        self.seq += 1
        if not force:
            if seq % self.every != 0:
                self.dropped_stride += 1
                return False
            if (self.max_snapshots is not None
                    and self.forwarded >= self.max_snapshots):
                self.dropped_cap += 1
                return False
        if self.sinks:
            snapshot = dict(snapshot() if callable(snapshot) else snapshot)
            snapshot.setdefault("schema", SNAPSHOT_SCHEMA)
            snapshot["seq"] = seq
            for sink in self.sinks:
                sink.send(snapshot)
        self.forwarded += 1
        return True

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()

    def stats(self) -> dict:
        return {
            "offered": self.seq,
            "forwarded": self.forwarded,
            "dropped_stride": self.dropped_stride,
            "dropped_cap": self.dropped_cap,
            "sinks": [sink.stats() for sink in self.sinks],
        }
