"""Determinism checker: hash the kernel's event-queue pop order across runs.

The paper's parallel-execution claim ("changes performance, not semantics",
DESIGN.md) rests on the simulator being a deterministic function of its
inputs.  This module verifies that *observationally*: it records every
scheduler dispatch — ``(kind, time_ps, process name)`` for each process step
and method run, via the kernels' ``dispatch`` probe point — runs
the same scenario twice, digests both traces with the kernel's one
dispatch fold (:meth:`~repro.systemc.kernel.TraceRecorder.digest`, equal
to a default-window divergence ledger root), and reports the first
divergence (:func:`repro.divergence.first_divergence`) if they differ.

Use :func:`check_determinism` with any zero-argument callable that builds
*and runs* a fresh simulation, or :func:`check_script_determinism` to check
an example script end to end.
"""

from __future__ import annotations

import contextlib
import io
import runpy
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..divergence.cli import script_argv
from ..divergence.zoom import Divergence, first_divergence
from ..systemc.kernel import Kernel, TraceRecorder
from .findings import Finding, Severity


@dataclass
class DeterminismReport:
    digests: List[str]
    lengths: List[int]
    divergence: Optional[Divergence]

    @property
    def deterministic(self) -> bool:
        return self.divergence is None and len(set(self.digests)) <= 1

    def to_finding(self, where: str = "<determinism>") -> Optional[Finding]:
        if self.deterministic:
            return None
        detail = self.divergence.describe() if self.divergence else "digest mismatch"
        return Finding(
            rule="DET001", severity=Severity.ERROR, path=where, line=0,
            message="event-queue pop order differs between identical runs; "
                    "the simulation is nondeterministic",
            context=detail,
        )


#: the TraceRecorder currently recording for :func:`trace_run`; nesting
#: guard only — *other* DIGEST-tier observers (the divergence ledger) are
#: allowed to coexist
_active_trace: Optional[TraceRecorder] = None


def trace_run(action: Callable[[], object]) -> TraceRecorder:
    """Run ``action`` with the kernel trace hook installed.

    The digester subscribes at ``Kernel.TRACE_PRIORITY_DIGEST`` to every
    kernel's ``dispatch`` probe point, so it runs before every
    ``TRACE_PRIORITY_OBSERVER`` subscriber whatever the attach order, and
    the recorded digest is identical with or without observers attached.

    Multiple DIGEST-tier hooks may coexist (the dispatch point calls them
    in deterministic FIFO attach order within the band), so a
    :class:`repro.divergence.WindowLedger` and this digester can observe
    the same run; only *nested* ``trace_run`` calls are refused, because
    two interleaved recorders of the same stream would be redundant and
    ambiguous to report.
    """
    global _active_trace
    if _active_trace is not None:
        raise RuntimeError("a kernel trace is already being recorded")
    trace = TraceRecorder()
    _active_trace = trace
    handle = Kernel.add_trace_hook(trace.record, Kernel.TRACE_PRIORITY_DIGEST)
    try:
        action()
    finally:
        Kernel.remove_trace_hook(handle)
        _active_trace = None
    return trace


def check_determinism(action: Callable[[], object], runs: int = 2) -> DeterminismReport:
    """Run ``action`` ``runs`` times and compare scheduler traces.

    ``action`` must build a *fresh* simulation each call (a shared kernel
    would legitimately continue, not repeat).
    """
    if runs < 2:
        raise ValueError("need at least two runs to compare")
    traces = [trace_run(action) for _ in range(runs)]
    divergence = None
    for other in traces[1:]:
        divergence = first_divergence(traces[0].entries, other.entries)
        if divergence is not None:
            break
    return DeterminismReport(
        digests=[trace.digest() for trace in traces],
        lengths=[len(trace) for trace in traces],
        divergence=divergence,
    )


def check_script_determinism(path: str, runs: int = 2) -> DeterminismReport:
    """Execute a script (e.g. ``examples/quickstart.py``) ``runs`` times
    with its own ``sys.argv``, stdout suppressed, and compare the kernel
    traces."""

    def action():
        with contextlib.redirect_stdout(io.StringIO()), script_argv(path):
            runpy.run_path(path, run_name="__main__")

    return check_determinism(action, runs=runs)
