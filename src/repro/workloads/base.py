"""Workload scaffolding.

Two guest environments appear in the paper's evaluation:

* **bare metal** (Dhrystone): every core runs its benchmark directly, no
  OS, no timer ticks;
* **user space under Linux** (STREAM, MiBench, NPB): the benchmark runs on
  a booted system — jiffy timers tick, idle cores sit in the kernel's WFI
  loop, and multicore benchmarks coordinate through barriers.

:func:`bare_metal_software` and :func:`user_space_software` build
:class:`GuestSoftware` descriptors for both, so individual workloads only
provide their benchmark phases.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..iss.phase import Halt, StoreFlag, Wfi
from ..vp.guestlib import (
    FLAGS_BASE,
    gic_cpu_setup,
    gic_dist_setup,
    idle_forever,
    send_sgi,
    shutdown,
    timer_ack_mmio,
    timer_setup,
)
from ..vp.software import GuestSoftware, default_irq_protocol

#: Flag core 0 sets once the "OS" is up and workers may start.
WORKER_GO = FLAGS_BASE + 0x600


@dataclass
class WorkloadInfo:
    """Reporting metadata attached to a workload's GuestSoftware."""

    name: str
    category: str                      # "bare-metal" | "userspace" | "boot"
    instructions_per_core: int = 0
    multithreaded: bool = False
    extras: dict = field(default_factory=dict)


def bare_metal_software(name: str, num_cores: int,
                        core_program: Callable[[int], Callable],
                        info: Optional[WorkloadInfo] = None) -> GuestSoftware:
    """Every core runs ``core_program(core)`` and halts; no OS services.

    The platform ends the simulation when all cores have halted.
    """

    def programs(core: int):
        body = core_program(core)

        def program(ctx):
            yield from body(ctx)
            yield Halt()

        return program

    return GuestSoftware.from_phase_programs(
        programs,
        name=name,
        irq_protocols=lambda core: None,     # bare metal masks interrupts
        info={"workload": info or WorkloadInfo(name, "bare-metal")},
    )


def user_space_software(name: str, num_cores: int,
                        main_program: Callable,
                        worker_program: Optional[Callable[[int], Callable]] = None,
                        jiffy_hz: float = 250.0,
                        timer_hz: float = 62_500_000.0,
                        handler_instructions: int = 1500,
                        info: Optional[WorkloadInfo] = None) -> GuestSoftware:
    """A benchmark on a booted Linux.

    Core 0 brings up GIC + timer, releases the workers, runs
    ``main_program`` and powers the platform off.  Other cores run
    ``worker_program(core)`` if given (multithreaded benchmarks), else the
    kernel idle loop.  All cores take jiffy ticks throughout, so the
    single-threaded case reproduces the paper's observation that idle-loop
    handling dominates multicore performance for MiBench (§V-C.2).
    """

    def programs(core: int):
        if core == 0:
            def program(ctx):
                yield from gic_cpu_setup(0)
                yield from gic_dist_setup()
                yield from timer_setup(0, timer_hz, jiffy_hz)
                for target in range(1, num_cores):
                    yield StoreFlag(WORKER_GO + 8 * target, 1)
                if num_cores > 1:
                    yield send_sgi(((1 << num_cores) - 1) & ~1)
                yield from main_program(ctx)
                yield shutdown()
                yield Halt()
            return program

        def program(ctx):
            yield from gic_cpu_setup(core)
            yield from timer_setup(core, timer_hz, jiffy_hz)
            yield Wfi(WORKER_GO + 8 * core, 1)
            if worker_program is not None:
                yield from worker_program(core)(ctx)
            yield from idle_forever()
        return program

    def protocols(core: int):
        return default_irq_protocol(
            core,
            handler_instructions=handler_instructions,
            device_acks={29: [timer_ack_mmio(core)]},
        )

    return GuestSoftware.from_phase_programs(
        programs,
        name=name,
        irq_protocols=protocols,
        info={"workload": info or WorkloadInfo(name, "userspace")},
    )
