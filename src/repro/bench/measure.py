"""Measurement helpers: run one VP + workload and collect metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..host.wallclock import elapsed_since, wall_clock
from ..systemc.time import SimTime
from ..vp.config import VpConfig
from ..vp.platform import build_platform
from ..vp.software import GuestSoftware


@dataclass
class RunMetrics:
    """What one simulation run produced."""

    platform: str
    workload: str
    num_cores: int
    quantum_us: float
    parallel: bool
    wfi_annotations: bool
    wall_seconds: float            # modeled host wall-clock (the paper's metric)
    sim_seconds: float             # simulated time
    instructions: int
    boot_seconds: Optional[float] = None
    py_runtime: float = 0.0        # actual Python runtime (diagnostics only)
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def mips(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions / self.wall_seconds / 1e6


class RunDidNotFinish(RuntimeError):
    pass


def run_workload(
    kind: str,
    config: VpConfig,
    software: GuestSoftware,
    stop_on_boot: bool = False,
    max_sim_seconds: float = 10_000.0,
    require_finish: bool = True,
) -> RunMetrics:
    """Build a fresh platform, run the workload to completion, return metrics.

    Completion is either "all cores halted", "guest requested shutdown", or
    (with ``stop_on_boot``) the boot-done marker.
    """
    vp = build_platform(kind, config, software)
    if stop_on_boot:
        vp.simctl.on_boot_done = lambda _t: vp.sim.stop()
    started = wall_clock()
    end_time = vp.run(SimTime.seconds(max_sim_seconds))
    py_runtime = elapsed_since(started)
    finished = (vp.all_halted or vp.simctl.shutdown_requested
                or (stop_on_boot and vp.simctl.boot_done_at is not None))
    if require_finish and not finished:
        raise RunDidNotFinish(
            f"{kind}/{software.name}: simulation hit the {max_sim_seconds}s "
            f"sim-time guard before finishing (ended at {end_time})"
        )
    counters: Dict[str, float] = {}
    for cpu in vp.cpus:
        for attr in ("num_mmio", "num_wfi_suspends", "num_wfi", "num_bus_errors",
                     "num_syncs", "num_simulate_calls"):
            value = getattr(cpu, attr, None)
            if value is not None:
                counters[attr] = counters.get(attr, 0) + value
    boot = vp.simctl.boot_done_at
    return RunMetrics(
        platform=kind,
        workload=software.name,
        num_cores=config.num_cores,
        quantum_us=config.quantum.to_us(),
        parallel=config.parallel,
        wfi_annotations=config.wfi_annotations,
        wall_seconds=vp.wall_time_seconds(),
        sim_seconds=end_time.to_seconds(),
        instructions=vp.total_instructions(),
        boot_seconds=boot.to_seconds() if boot is not None else None,
        py_runtime=py_runtime,
        counters=counters,
    )


def make_config(num_cores: int, quantum_us: float, parallel: bool,
                wfi_annotations: bool = False, **kwargs) -> VpConfig:
    return VpConfig(
        num_cores=num_cores,
        quantum=SimTime.us(quantum_us),
        parallel=parallel,
        wfi_annotations=wfi_annotations,
        **kwargs,
    )
