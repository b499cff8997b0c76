"""Host wall-clock accounting.

The kernel simulates *target* time; this module models *host* time — the
wall-clock seconds the paper's figures report.  Every host-side activity
(guest execution inside KVM_RUN, DBT dispatch, MMIO handling, SystemC
scheduling) bills nanoseconds into a :class:`HostLedger` attributed to a
*lane* and a *quantum window*:

* lane ``MAIN_LANE``: the SystemC main thread;
* lane ``i >= 0``: simulated core ``i``'s worker thread (parallel mode).

At the end of a run the ledger folds windows into total wall time:

* **sequential** mode: everything runs in the main thread, so a window's
  wall time is the *sum* of all its lane contributions;
* **parallel** mode: workers overlap, so a window costs the *maximum* of
  its lanes (the main thread is one of the lanes), plus a per-active-worker
  dispatch/join overhead.

This max-vs-sum fold is the entire semantic content of "parallel execution"
for performance purposes and keeps runs bit-for-bit deterministic.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from ..systemc.time import SimTime
from .machine import MAIN_LANE, HostMachine
from .params import SimulationCostParams


class HostLedger:
    """Per-window, per-lane modeled host-time bookkeeping."""

    MAIN_LANE = MAIN_LANE

    def __init__(
        self,
        window: SimTime,
        parallel: bool,
        machine: HostMachine,
        num_cores: int,
        sim_costs: Optional[SimulationCostParams] = None,
    ):
        if window.is_zero():
            raise ValueError("ledger window (quantum) must be non-zero")
        self.window_size = window
        #: the window in picoseconds, for the per-bill window index
        self.window_ps = window.picoseconds
        self.parallel = parallel
        self.machine = machine
        self.num_cores = num_cores
        self.sim_costs = sim_costs or SimulationCostParams()
        self._windows: Dict[int, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self._categories: Dict[str, float] = defaultdict(float)
        self._placement = machine.place_lanes(num_cores, parallel)

    # -- billing ------------------------------------------------------------
    def add(self, window: int, lane: int, nanoseconds: float, category: str = "cpu") -> None:
        # Called from inside every core's simulate leg; every leg runs on
        # the one scheduler thread, so the window table needs no lock.
        if nanoseconds <= 0:
            return
        self._windows[window][lane] += nanoseconds
        self._categories[category] += nanoseconds

    def lane_speed(self, lane: int) -> float:
        core = self._placement.get(lane)
        return core.speed if core is not None else 1.0

    # -- results ----------------------------------------------------------------
    def window_span_ns(self, lanes: Dict[int, float]) -> float:
        """Fold one window's per-lane totals into its wall-clock extent.

        The single place the max-vs-sum semantics live; both the run total
        below and the host-time attribution fold
        (:class:`repro.obs.attribution.AttributionFold`, which telemetry's
        Perfetto spans are laid out from) use it, so every report and
        exported span tiles to the same total.
        """
        costs = self.sim_costs
        worker_lanes = [lane for lane in lanes if lane != MAIN_LANE]
        if self.parallel:
            span = max(lanes.values()) if lanes else 0.0
            span += costs.parallel_dispatch_ns * len(worker_lanes)
        else:
            span = sum(lanes.values())
            span += costs.sequential_loop_ns * max(1, len(worker_lanes))
        return span + costs.kernel_overhead_ns_per_window

    def wall_time_ns(self) -> float:
        """Fold all windows into total modeled host wall-clock time."""
        return sum(self.window_span_ns(lanes) for lanes in self._windows.values())

    def wall_time_seconds(self) -> float:
        return self.wall_time_ns() / 1e9

    def category_totals(self) -> Dict[str, float]:
        return dict(self._categories)

    def window_count(self) -> int:
        return len(self._windows)

    def busiest_lane(self) -> Optional[int]:
        totals: Dict[int, float] = defaultdict(float)
        for lanes in self._windows.values():
            for lane, nanoseconds in lanes.items():
                totals[lane] += nanoseconds
        if not totals:
            return None
        return max(totals, key=lambda lane: totals[lane])

    def reset(self) -> None:
        self._windows.clear()
        self._categories.clear()

    # -- snapshot support ---------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Serializable ledger content in *insertion* order.

        Unlike set-typed device state, insertion order here is semantic:
        :meth:`wall_time_ns` folds windows in first-billing order, so the
        snapshot must preserve it rather than sort (it is deterministic for
        a deterministic run, which is all canonical bytes require).
        """
        return {
            "windows": [[window, [[lane, ns] for lane, ns in lanes.items()]]
                        for window, lanes in self._windows.items()],
            "categories": [[category, ns] for category, ns
                           in self._categories.items()],
        }

    def restore_state(self, state: dict) -> None:
        self._windows.clear()
        self._windows.update((window, defaultdict(float, lanes))
                             for window, lanes in state["windows"])
        self._categories.clear()
        self._categories.update(state["categories"])

    def __repr__(self) -> str:
        return (
            f"HostLedger(windows={len(self._windows)}, parallel={self.parallel}, "
            f"wall={self.wall_time_seconds():.6f}s)"
        )
