"""The one sanctioned doorway to the host's real clock.

Simulation code must be a deterministic function of its inputs, so reading
host time anywhere in a simulation path is a lint error (RPR001).  Code
that legitimately measures *real* elapsed time — the benchmark harness
timing how long a Python run took — imports :func:`wall_clock` from here
instead of ``time`` directly, which keeps the allowlist auditable: grep for
``wall_clock`` and you have every host-time consumer.
"""

from __future__ import annotations

import time


def wall_clock() -> float:
    """Monotonic host seconds; only for measuring real elapsed time."""
    return time.perf_counter()


def elapsed_since(start: float) -> float:
    """Real seconds elapsed since a previous :func:`wall_clock` reading."""
    return time.perf_counter() - start


def pause(seconds: float) -> None:
    """Block the calling host thread for real ``seconds``.

    Only for host-side consumers polling an external source (the live
    ``repro.obs top`` view tailing a stream file) — never inside the
    cooperative kernel, where blocking the host thread stalls every
    simulated process (RPR002).
    """
    time.sleep(seconds)
