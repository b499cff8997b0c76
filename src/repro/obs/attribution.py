"""Host-time attribution: fold HostLedger billing into per-lane phases.

The paper's headline figures (Fig. 5/7) are *host wall-clock breakdowns*:
where does each simulated second of a run go — guest execution inside
KVM_RUN, MMIO round trips, IRQ injection, kernel/merge bookkeeping, or
waiting at the quantum barrier?  This module derives exactly that from the
billing stream of :class:`repro.host.accounting.HostLedger`.

Phase taxonomy (DESIGN.md §14) — every ledger billing category maps onto
one phase, plus two derived phases per quantum window:

=================  ============================================================
``guest``          time inside the guest (KVM_RUN / ISS dispatch), including
                   runs that blocked in un-annotated WFI
``mmio``           MMIO round trips and user-space instruction emulation
``irq``            interrupt-injection ioctls (main-thread work)
``kernel``         VP bookkeeping billed by the models: watchdog programming,
                   WFI suspend/resume, uncategorized ``cpu`` work
``barrier_idle``   the window's fold-busy minus this lane's busy: in parallel
                   mode the modeled wait at the quantum barrier, in
                   sequential mode the time this lane's work waits while the
                   other lanes' legs are serialized
``overhead``       the fold's per-window constants (sequential loop /
                   parallel dispatch-join + kernel-per-window), i.e.
                   ``window_span_ns`` minus the window's fold-busy
=================  ============================================================

The fold re-runs :meth:`HostLedger.window_span_ns` per window over the
*actual* ledger lane totals (accumulated as bills arrive, in billing
order, so the floats match the ledger's own accumulation bit-for-bit)
and assigns each lane ``barrier_idle`` and ``overhead`` as residuals,
which makes every lane's phases sum to the window's span — and, across
windows, to ``HostLedger.wall_time_ns()`` — exactly, up to float
associativity in the final summation (sub-ulp;
:meth:`AttributionSummary.verify` checks it at 1e-6 ns).

Attribution lanes are *per-core even in sequential mode*: the recorder
keeps the lane a billing event would land on under the parallel fold
(``main`` for main-thread work, ``core<i>`` otherwise), so a serial run
already produces the per-lane report — and the projected parallel
efficiency — that the modeled parallel fold (Fig. 7) is compared with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..host.machine import MAIN_LANE

#: phase names, in report order
PHASE_GUEST = "guest"
PHASE_MMIO = "mmio"
PHASE_IRQ = "irq"
PHASE_KERNEL = "kernel"
PHASE_IDLE = "barrier_idle"
PHASE_OVERHEAD = "overhead"
PHASES: Tuple[str, ...] = (PHASE_GUEST, PHASE_MMIO, PHASE_IRQ, PHASE_KERNEL,
                           PHASE_IDLE, PHASE_OVERHEAD)

#: ledger billing category -> phase (unknown categories land in ``kernel``)
CATEGORY_PHASES: Dict[str, str] = {
    "guest": PHASE_GUEST,
    "iss": PHASE_GUEST,
    "wfi_blocked": PHASE_GUEST,
    "mmio": PHASE_MMIO,
    "emulation": PHASE_MMIO,
    "irq": PHASE_IRQ,
    "watchdog": PHASE_KERNEL,
    "wfi_annotation": PHASE_KERNEL,
    "cpu": PHASE_KERNEL,
}

#: relative/absolute tolerance for the phases-sum-to-wall identity: the
#: construction is exact up to float associativity, so anything beyond a
#: few ulps is a real accounting bug.
SUM_REL_TOL = 1e-9
SUM_ABS_TOL = 1e-6      # nanoseconds


def phase_of(category: str) -> str:
    return CATEGORY_PHASES.get(category, PHASE_KERNEL)


def lane_name(lane: int) -> str:
    return "main" if lane == MAIN_LANE else f"core{lane}"


def _lane_sort_key(name: str):
    return (0, 0) if name == "main" else (1, int(name.replace("core", "")))


@dataclass
class WindowRecord:
    """One folded quantum window: authoritative span + per-lane phases."""

    window: int
    wall_ns: float                                  # ledger window_span_ns
    busy_ns: Dict[int, float]                       # attribution lane -> busy
    phases: Dict[int, Dict[str, float]]             # lane -> phase -> ns
    fold_busy_ns: float                             # max (parallel) / sum (seq)
    dispatches: int = 0                             # kernel dispatches billed


@dataclass
class AttributionSummary:
    """Whole-run fold: the Fig. 5/7-style report for one platform."""

    platform: str
    parallel: bool
    num_cores: int
    window_count: int
    wall_time_ns: float
    quantum_ps: int
    sim_time_ps: int
    instructions: int
    lanes: Dict[str, Dict[str, float]]              # lane name -> phase -> ns
    lane_wall_ns: Dict[str, float]                  # lane name -> total extent
    busy_sum_ns: float = 0.0                        # Σ_w Σ_lanes busy
    busy_max_ns: float = 0.0                        # Σ_w max_lane busy
    dispatches: int = 0
    late_events: int = 0
    notes: Dict[str, object] = field(default_factory=dict)

    # -- derived figures ----------------------------------------------------
    @property
    def wall_time_seconds(self) -> float:
        return self.wall_time_ns / 1e9

    @property
    def mips(self) -> float:
        if self.wall_time_ns <= 0:
            return 0.0
        return self.instructions / self.wall_time_seconds / 1e6

    @property
    def projected_parallel_speedup(self) -> float:
        """Speedup the parallel (max) fold would deliver over serializing
        the same per-lane busy time: sum-of-lane-busy / max-lane-window."""
        if self.busy_max_ns <= 0:
            return 1.0
        return self.busy_sum_ns / self.busy_max_ns

    @property
    def projected_parallel_efficiency(self) -> float:
        """Projected speedup normalized by the number of core lanes."""
        return self.projected_parallel_speedup / max(1, self.num_cores)

    def lane_utilization(self) -> Dict[str, float]:
        """busy / wall per lane (the counter-track value Perfetto shows)."""
        out = {}
        for name, phases in self.lanes.items():
            wall = self.lane_wall_ns.get(name, 0.0)
            busy = sum(phases.get(p, 0.0) for p in
                       (PHASE_GUEST, PHASE_MMIO, PHASE_IRQ, PHASE_KERNEL))
            out[name] = busy / wall if wall > 0 else 0.0
        return out

    # -- invariants ---------------------------------------------------------
    def verify(self) -> List[str]:
        """Check that every lane's phases sum to the run's wall time.

        Returns a list of human-readable problems (empty == consistent).
        """
        problems: List[str] = []
        for name in sorted(self.lanes, key=_lane_sort_key):
            total = sum(self.lanes[name].get(p, 0.0) for p in PHASES)
            reference = self.lane_wall_ns.get(name, self.wall_time_ns)
            bound = max(SUM_ABS_TOL, SUM_REL_TOL * abs(reference))
            if abs(total - reference) > bound:
                problems.append(
                    f"lane {name}: phases sum to {total!r} ns, "
                    f"wall is {reference!r} ns")
        if self.late_events:
            problems.append(f"{self.late_events} billing events arrived for "
                            f"already-finalized windows")
        return problems

    # -- export -------------------------------------------------------------
    def to_json(self) -> dict:
        lanes = {}
        utilization = self.lane_utilization()
        for name in sorted(self.lanes, key=_lane_sort_key):
            phases = self.lanes[name]
            lanes[name] = {
                "phases": {p: phases.get(p, 0.0) for p in PHASES},
                "busy_ns": sum(phases.get(p, 0.0) for p in
                               (PHASE_GUEST, PHASE_MMIO, PHASE_IRQ,
                                PHASE_KERNEL)),
                "wall_ns": self.lane_wall_ns.get(name, self.wall_time_ns),
                "utilization": utilization[name],
            }
        return {
            "schema": "repro.obs.attribution/1",
            "platform": self.platform,
            "parallel": self.parallel,
            "num_cores": self.num_cores,
            "quantum_ps": self.quantum_ps,
            "windows": self.window_count,
            "wall_time_ns": self.wall_time_ns,
            "sim_time_ps": self.sim_time_ps,
            "instructions": self.instructions,
            "mips": self.mips,
            "dispatches": self.dispatches,
            "lanes": lanes,
            "projected": {
                "parallel_speedup": self.projected_parallel_speedup,
                "parallel_efficiency": self.projected_parallel_efficiency,
                "busy_sum_ns": self.busy_sum_ns,
                "busy_max_ns": self.busy_max_ns,
            },
            "consistent": not self.verify(),
        }


#: one open window's running totals: actual ledger lane -> ns, attribution
#: lane -> busy ns, attribution lane -> phase -> ns
_Totals = Tuple[Dict[int, float], Dict[int, float], Dict[int, Dict[str, float]]]


class AttributionFold:
    """Incremental window folder.

    Each billing event is added, as it arrives, into its open window's
    totals: the actual ledger lane's total, the attribution lane's busy
    time and that lane's phase.  Windows are finalized in first-seen
    order — eagerly, when the recorder learns simulated time has passed a
    window's end, or all at once by :meth:`finalize`.  Finalized windows
    are handed to ``on_window`` (the streaming exporter) and accumulated
    into the whole-run summary.
    """

    def __init__(self, ledger,
                 on_window: Optional[Callable[[WindowRecord], None]] = None):
        self.ledger = ledger
        self.on_window = on_window
        #: open windows, insertion-ordered: window -> its billing totals
        self._events: Dict[int, _Totals] = {}
        self._dispatches: Dict[int, int] = {}
        self._finalized: List[WindowRecord] = []
        #: the window finalized last (-1 before the first); billing for it
        #: or an earlier window arrives late
        self._last_final = -1
        self._lanes_seen: Dict[int, None] = {MAIN_LANE: None}
        self.late_events = 0

    # -- recording ----------------------------------------------------------
    def bill(self, cpu, window: int, lane: int, nanoseconds: float,
             category: str, main_thread: bool) -> None:
        """The ``host_bill`` subscriber: record one billing event.

        ``lane`` is the actual ledger lane, which the wall fold needs; the
        attribution lane is where the event lands under the parallel fold
        (main thread vs. per-core).  Each sum grows in billing order, so
        its float is the one the ledger's own accumulation gives.
        """
        if window <= self._last_final:
            self.late_events += 1
            return
        attr_lane = MAIN_LANE if main_thread else cpu.core_id
        totals = self._events.get(window)
        if totals is None:
            totals = self._events[window] = ({}, {}, {})
        actual, busy, phases = totals
        actual[lane] = actual.get(lane, 0.0) + nanoseconds
        busy[attr_lane] = busy.get(attr_lane, 0.0) + nanoseconds
        lane_phases = phases.get(attr_lane)
        if lane_phases is None:
            lane_phases = phases[attr_lane] = {}
            self._lanes_seen.setdefault(attr_lane)
        phase = phase_of(category)
        lane_phases[phase] = lane_phases.get(phase, 0.0) + nanoseconds

    def record_dispatch(self, window: int) -> None:
        if window <= self._last_final:
            return
        self._dispatches[window] = self._dispatches.get(window, 0) + 1

    def advance_to(self, sim_time_ps: int) -> List[WindowRecord]:
        """Finalize every open window that ended before ``sim_time_ps``.

        A core's quantum leg starting at kernel time *t* can bill windows
        ``t // quantum`` and the one after, so a window is only complete
        once simulated time has moved past its end.
        """
        boundary = sim_time_ps // self.ledger.window_size.picoseconds
        done = [w for w in self._events if w < boundary]
        return [self._finalize_window(w) for w in done]

    def finalize(self) -> List[WindowRecord]:
        """Finalize every remaining open window (end of run / detach)."""
        return [self._finalize_window(w) for w in list(self._events)]

    # -- folding ------------------------------------------------------------
    def _finalize_window(self, window: int) -> WindowRecord:
        actual_totals, busy, phases = self._events.pop(window)
        wall = self.ledger.window_span_ns(actual_totals)
        if self.ledger.parallel:
            fold_busy = max(busy.values()) if busy else 0.0
        else:
            fold_busy = sum(busy.values())
        record = WindowRecord(window, wall, busy, phases, fold_busy,
                              self._dispatches.pop(window, 0))
        self._finalized.append(record)
        self._last_final = window
        if self.on_window is not None:
            self.on_window(record)
        return record

    # -- results ------------------------------------------------------------
    def records(self, include_open: bool = False) -> List[WindowRecord]:
        """Finalized windows, in finalize order.

        ``include_open`` additionally folds still-open windows *without*
        finalizing them (used for live snapshots, crash bundles taken
        mid-window and exports of an unfinished run).
        """
        records = list(self._finalized)
        if include_open:
            probe = AttributionFold(self.ledger)
            probe._events = {
                window: (dict(actual), dict(busy),
                         {lane: dict(p) for lane, p in phases.items()})
                for window, (actual, busy, phases) in self._events.items()}
            probe._dispatches = dict(self._dispatches)
            records += probe.finalize()
        return records

    def summary(self, platform: str = "", num_cores: int = 0,
                sim_time_ps: int = 0, instructions: int = 0,
                include_open: bool = False) -> AttributionSummary:
        """Fold the windows of :meth:`records` into the whole-run report."""
        records = self.records(include_open)
        names = {lane: lane_name(lane) for lane in self._lanes_seen}
        lanes: Dict[str, Dict[str, float]] = {
            name: {} for name in names.values()}
        lane_wall: Dict[str, float] = {name: 0.0 for name in lanes}
        wall_total = 0.0
        busy_sum = 0.0
        busy_max = 0.0
        dispatches = 0
        for record in records:
            overhead = record.wall_ns - record.fold_busy_ns
            wall_total += record.wall_ns
            busy_sum += sum(record.busy_ns.values())
            busy_max += max(record.busy_ns.values()) if record.busy_ns else 0.0
            dispatches += record.dispatches
            for name in lanes:
                lane_wall[name] += record.wall_ns
            for lane, lane_phases in record.phases.items():
                target = lanes[names[lane]]
                for phase, nanoseconds in lane_phases.items():
                    target[phase] = target.get(phase, 0.0) + nanoseconds
            for lane, name in names.items():
                idle = record.fold_busy_ns - record.busy_ns.get(lane, 0.0)
                target = lanes[name]
                target[PHASE_IDLE] = target.get(PHASE_IDLE, 0.0) + idle
                target[PHASE_OVERHEAD] = (
                    target.get(PHASE_OVERHEAD, 0.0) + overhead)
        return AttributionSummary(
            platform=platform,
            parallel=self.ledger.parallel,
            num_cores=num_cores or self.ledger.num_cores,
            window_count=len(records),
            wall_time_ns=wall_total,
            quantum_ps=self.ledger.window_size.picoseconds,
            sim_time_ps=sim_time_ps,
            instructions=instructions,
            lanes=lanes,
            lane_wall_ns=lane_wall,
            busy_sum_ns=busy_sum,
            busy_max_ns=busy_max,
            dispatches=dispatches,
            late_events=self.late_events,
        )


def render_summary(summary: AttributionSummary) -> str:
    """Plain-text Fig. 5/7-style attribution table."""
    lines = [f"=== host-time attribution: {summary.platform or '(platform)'} "
             f"[{'parallel' if summary.parallel else 'sequential'}] ==="]
    lines.append(
        f"wall {summary.wall_time_ns / 1e6:.3f} ms over "
        f"{summary.window_count} windows "
        f"(quantum {summary.quantum_ps / 1e6:.0f} us)  "
        f"instructions {summary.instructions}  MIPS {summary.mips:.0f}")
    lines.append(
        f"projected parallel speedup {summary.projected_parallel_speedup:.2f}x"
        f"  efficiency {summary.projected_parallel_efficiency:.2f}")
    header = f"{'lane':8s} {'util':>6s}" + "".join(
        f" {phase:>12s}" for phase in PHASES)
    lines.append(header)
    utilization = summary.lane_utilization()
    for name in sorted(summary.lanes, key=_lane_sort_key):
        phases = summary.lanes[name]
        cells = "".join(f" {phases.get(p, 0.0) / 1e6:12.3f}" for p in PHASES)
        lines.append(f"{name:8s} {utilization[name] * 100:5.1f}%" + cells)
    lines.append("(phase columns in ms; rows sum to the wall time)")
    problems = summary.verify()
    for problem in problems:
        lines.append(f"!! {problem}")
    return "\n".join(lines) + "\n"
