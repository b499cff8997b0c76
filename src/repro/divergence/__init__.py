"""repro.divergence — windowed determinism ledgers with automatic bisection.

DET001 answers "*did* two runs diverge"; this package answers "*where*".
A :class:`WindowLedger` folds the kernel dispatch stream into rolling
per-quantum-window, per-lane digests at O(windows) memory, the frozen
:class:`RunLedger` serializes to a compact file, and :func:`bisect`
scans the window digests of two ledgers for the first divergent
(window, lane).  :func:`zoom_run` then
replays with full event capture scoped to that window only, and the
result — window id, lane, event-level diff, ledger pair, optional
journal slice and register state — packages as a **divergence bundle**
through the flight bundle machinery.

Typical flows::

    # offline: two runs that never shared a process
    python -m repro.divergence capture scenario.py -o a.ledger.json
    python -m repro.divergence compare a.ledger.json b.ledger.json

    # in-process A/B (this is what `selfcheck` does)
    from repro.divergence import localize_divergence
    report = localize_divergence(run_cold, run_resumed,
                                 bundle_dir="divergence-out")

    # harness capture
    python -m repro.bench fig5 --scale 0.01 --ledger-dir ledgers/

The root digest of a ledger is a hash chain over its window digests
(:class:`~repro.systemc.kernel.DispatchDigest`, the kernel's one dispatch
fold); at :data:`DEFAULT_WINDOW` it equals the DET001
:meth:`~repro.systemc.kernel.TraceRecorder.digest` of the same run.  The
ledger hook is a pure observer in the DIGEST trace-hook band — DET001
digests are unchanged whether a ledger is attached or not, in either
attach order.
"""

from __future__ import annotations

from ..systemc.kernel import DEFAULT_WINDOW
from .bisect import DivergencePoint, LedgerComparison, bisect
from .bundle import write_divergence_bundle
from .ledger import (
    LEDGER_FORMAT,
    LaneDigest,
    RunLedger,
    WindowLedger,
    WindowRecord,
    capture_ledger,
)
from .zoom import (
    Divergence,
    DivergenceReport,
    ZoomCapture,
    ZoomEntry,
    first_divergence,
    localize_divergence,
    zoom_run,
)

__all__ = [
    "DEFAULT_WINDOW", "LEDGER_FORMAT",
    "WindowLedger", "RunLedger", "WindowRecord", "LaneDigest",
    "capture_ledger",
    "bisect", "LedgerComparison", "DivergencePoint",
    "Divergence", "first_divergence",
    "zoom_run", "localize_divergence",
    "ZoomCapture", "ZoomEntry", "DivergenceReport",
    "write_divergence_bundle",
]
