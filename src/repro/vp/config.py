"""Platform configuration and the guest-physical memory map (Fig. 4)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..host.machine import HostMachine, amd_ryzen_3900x, apple_m2_pro
from ..host.params import (
    DEFAULT_ISS_COSTS,
    DEFAULT_KVM_COSTS,
    DEFAULT_SIM_COSTS,
    IssCostParams,
    KvmCostParams,
    SimulationCostParams,
)
from ..systemc.time import SimTime

class MemoryMap:
    """Guest-physical address layout of both virtual platforms."""

    RAM_BASE = 0x0000_0000
    GICD_BASE = 0x0800_0000
    GICC_BASE = 0x0801_0000        # + core * GICC_STRIDE
    GICC_STRIDE = 0x0000_1000
    TIMER_BASE = 0x0900_0000
    UART_BASE = 0x0904_0000
    RTC_BASE = 0x0905_0000
    SDHCI_BASE = 0x0906_0000
    SIMCTL_BASE = 0x090F_0000

    PERIPH_WINDOW = 0x0001_0000    # size reserved per peripheral

    @classmethod
    def gicc_base(cls, core: int) -> int:
        return cls.GICC_BASE + core * cls.GICC_STRIDE

    @classmethod
    def gicc_iar(cls, core: int) -> int:
        from ..models.gic import GICC_IAR
        return cls.gicc_base(core) + GICC_IAR

    @classmethod
    def gicc_eoir(cls, core: int) -> int:
        from ..models.gic import GICC_EOIR
        return cls.gicc_base(core) + GICC_EOIR


@dataclass
class VpConfig:
    """Everything a VP needs to be built.

    ``quantum`` and ``parallel`` are the paper's two sweep knobs;
    ``wfi_annotations`` toggles §IV-C.  The vcpu clock converts the quantum
    into the watchdog's instruction budget (instruction-accurate
    1-instruction-per-cycle assumption).
    """

    num_cores: int = 1
    quantum: SimTime = field(default_factory=lambda: SimTime.ms(1))
    parallel: bool = True
    wfi_annotations: bool = False
    vcpu_clock_hz: float = 1_000_000_000.0
    ram_size: int = 16 * 1024 * 1024
    host: Optional[HostMachine] = None
    kvm_costs: KvmCostParams = DEFAULT_KVM_COSTS
    iss_costs: IssCostParams = DEFAULT_ISS_COSTS
    sim_costs: SimulationCostParams = DEFAULT_SIM_COSTS
    timer_frequency_hz: float = 62_500_000.0
    track_host_time: bool = True
    #: ablation: drop the Listing-1 kick-id filter (stale watchdog kicks land)
    unguarded_watchdog: bool = False

    def __post_init__(self):
        if not 1 <= self.num_cores <= 8:
            raise ValueError(f"num_cores must be 1..8, got {self.num_cores}")
        if self.quantum.is_zero():
            raise ValueError("quantum must be non-zero")

    def host_for_aoa(self) -> HostMachine:
        return self.host or apple_m2_pro()

    def host_for_iss(self) -> HostMachine:
        return self.host or amd_ryzen_3900x()
