"""Guest execution backends: the functional A64-lite interpreter, the DBT
cost model (AVP64 baseline), and the phase-program executor used for
paper-scale workloads."""

from .dbt import DbtCostModel
from .executor import (
    ExitInfo,
    ExitReason,
    GuestMemoryMap,
    MemorySlot,
    MmioRequest,
    RunStats,
)
from .interpreter import GlobalMonitor, Interpreter
from .phase import (
    AtomicAdd,
    Compute,
    Halt,
    IrqProtocol,
    Mmio,
    PhaseContext,
    PhaseExecutor,
    SpinUntil,
    StoreFlag,
    Wfi,
)

__all__ = [
    "AtomicAdd",
    "Compute",
    "DbtCostModel",
    "ExitInfo",
    "ExitReason",
    "GlobalMonitor",
    "GuestMemoryMap",
    "Halt",
    "Interpreter",
    "IrqProtocol",
    "MemorySlot",
    "Mmio",
    "MmioRequest",
    "PhaseContext",
    "PhaseExecutor",
    "RunStats",
    "SpinUntil",
    "StoreFlag",
    "Wfi",
]
