"""Synthetic Buildroot-Linux boot (phase-mode guest).

Reproduces the *dynamics* of an SMP Linux boot that drive Figure 6 — not
the kernel's computation, but the pattern of events the CPU models react
to:

* **core 0** runs the boot work (decompression, init calls, driver
  probes), prints a console log through the UART, mounts a rootfs from the
  virtual SD card, brings up each secondary core, and participates in
  global synchronization points;
* **secondary cores** wait in a WFI holding pen until released (SGI +
  release flag, like a spin-table/PSCI bring-up), run their per-CPU init,
  step through a cpuhp-style handshake ladder with core 0, service
  stop_machine-style busy syncs, and finally sit in the idle loop;
* a **per-core jiffy timer** ticks throughout, so "idle" cores keep waking
  to service interrupts — which is precisely what is expensive without WFI
  annotations.

Two kinds of waiting are modeled deliberately:

* *idle waits* (``Wfi`` on a flag) — completions/hotplug waits where Linux
  schedules into the idle loop; these are the waits WFI annotation
  eliminates;
* *busy waits* (``SpinUntil``) — stop_machine/csd-style spins that burn CPU
  regardless of annotation; their cost scales with the quantum (skew) and
  is why large quanta slow multicore boots even in Fig. 6b.

Boot completion is signalled by an MMIO write to the sim-control device,
giving the harness an exact "boot duration" marker.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..iss.phase import AtomicAdd, Compute, Mmio, SpinUntil, StoreFlag, Wfi
from .config import MemoryMap
from .guestlib import (
    FLAGS_BASE,
    boot_done_marker,
    console_print,
    gic_cpu_setup,
    gic_dist_setup,
    idle_forever,
    send_sgi,
    timer_ack_mmio,
    timer_setup,
)
from .software import GuestSoftware, default_irq_protocol

# Guest-physical communication flags (inside RAM, above the idle image).
RELEASE_FLAG = FLAGS_BASE + 0x000      # + 8 * core
ONLINE_FLAG = FLAGS_BASE + 0x100       # + 8 * core
STEP_REQ = FLAGS_BASE + 0x200          # + 8 * core
STEP_ACK = FLAGS_BASE + 0x300          # + 8 * core
SYNC_REQ = FLAGS_BASE + 0x400          # global generation counter
SYNC_ACK = FLAGS_BASE + 0x408          # arrival counter (AtomicAdd)
BOOT_DONE = FLAGS_BASE + 0x500


@dataclass
class LinuxBootParams:
    """Knobs of the synthetic boot; defaults calibrated against Fig. 6."""

    boot_work_instructions: int = 5_000_000_000
    secondary_init_instructions: int = 40_000_000
    handshake_rounds: int = 40          # cpuhp ladder steps per secondary
    handshake_work_instructions: int = 100_000
    global_syncs: int = 48              # stop_machine-style busy syncs
    sync_work_instructions: int = 60_000
    console_chars: int = 400
    rootfs_blocks: int = 32
    buffer_reads_per_block: int = 8
    jiffy_hz: float = 250.0
    handler_instructions: int = 1500
    kernel_static_blocks: int = 24_000  # unique translated blocks (DBT cost)
    #: every Nth cpuhp step core 0 waits with a csd-style busy spin instead
    #: of idling — these spins survive WFI annotation, like stop_machine.
    busy_handshake_every: int = 4

    def scaled(self, factor: float) -> "LinuxBootParams":
        """A boot with all instruction counts scaled (for fast tests)."""
        return LinuxBootParams(
            boot_work_instructions=max(1, int(self.boot_work_instructions * factor)),
            secondary_init_instructions=max(1, int(self.secondary_init_instructions * factor)),
            handshake_rounds=self.handshake_rounds,
            handshake_work_instructions=max(1, int(self.handshake_work_instructions * factor)),
            global_syncs=self.global_syncs,
            sync_work_instructions=max(1, int(self.sync_work_instructions * factor)),
            console_chars=self.console_chars,
            rootfs_blocks=self.rootfs_blocks,
            buffer_reads_per_block=self.buffer_reads_per_block,
            jiffy_hz=self.jiffy_hz,
            handler_instructions=self.handler_instructions,
            kernel_static_blocks=self.kernel_static_blocks,
        )


def _mount_rootfs(params: LinuxBootParams):
    """Read the rootfs: SD init commands, then single-block reads (CMD17)."""
    sd = MemoryMap.SDHCI_BASE
    init_commands = ((0, 0), (8, 0x1AA), (55, 0), (41, 0x40000000), (2, 0),
                     (3, 0), (7, 0x1234 << 16))
    for command, argument in init_commands:
        yield Mmio(sd + 0x08, 4, True, argument)            # ARGUMENT
        yield Mmio(sd + 0x0E, 2, True, command << 8)        # COMMAND
        yield Compute(4_000, key="mmc_cmd", static_blocks=40)
    for block in range(params.rootfs_blocks):
        yield Mmio(sd + 0x08, 4, True, block)               # ARGUMENT = LBA
        yield Mmio(sd + 0x0E, 2, True, 17 << 8)             # CMD17
        for _ in range(params.buffer_reads_per_block):
            yield Mmio(sd + 0x20, 4, False)                 # BUFFER_DATA
        yield Mmio(sd + 0x30, 4, True, 0x23)                # clear INT_STATUS
        yield Compute(20_000, key="fs_block", static_blocks=60)


def linux_boot_program(core: int, num_cores: int, params: LinuxBootParams,
                       timer_hz: float = 62_500_000.0):
    """Build the phase program for one core of the synthetic Linux boot."""

    def boot_core0(ctx):
        work = params.boot_work_instructions
        yield from gic_cpu_setup(0)
        yield from gic_dist_setup()
        yield from timer_setup(0, timer_hz, params.jiffy_hz)
        # Early boot: decompression, core kernel init (~35 % of the work).
        yield Compute(int(work * 0.35), key="kernel_early",
                      static_blocks=int(params.kernel_static_blocks * 0.5),
                      mem_fraction=0.3)
        yield from console_print(params.console_chars // 2)
        # RTC read (the kernel sets the system time from it).
        yield Mmio(MemoryMap.RTC_BASE, 4, False)
        # Secondary bring-up: release each core, then walk the cpuhp ladder.
        for target in range(1, num_cores):
            yield StoreFlag(RELEASE_FLAG + 8 * target, 1)
            yield send_sgi(1 << target)
            yield Wfi(ONLINE_FLAG + 8 * target, 1)
            for step in range(1, params.handshake_rounds + 1):
                yield StoreFlag(STEP_REQ + 8 * target, step)
                yield send_sgi(1 << target)
                if params.busy_handshake_every and step % params.busy_handshake_every == 0:
                    # csd_lock_wait-style busy wait: annotation cannot help.
                    yield SpinUntil(STEP_ACK + 8 * target, step)
                else:
                    yield Wfi(STEP_ACK + 8 * target, step)
        # Global synchronization points (jump labels, stop_machine, RCU).
        for generation in range(1, params.global_syncs + 1):
            yield StoreFlag(SYNC_REQ, generation)
            if num_cores > 1:
                yield send_sgi(((1 << num_cores) - 1) & ~1)
            yield Compute(params.sync_work_instructions, key="stopm_leader",
                          static_blocks=80)
            if num_cores > 1:
                # Busy-wait: stop_machine spins, annotation cannot skip it.
                yield SpinUntil(SYNC_ACK, generation * (num_cores - 1), ge=True)
        # Driver probes + late init (~45 % of the work), then mount rootfs.
        yield Compute(int(work * 0.45), key="kernel_drivers",
                      static_blocks=int(params.kernel_static_blocks * 0.4),
                      mem_fraction=0.28)
        yield from _mount_rootfs(params)
        yield Compute(int(work * 0.20), key="kernel_late",
                      static_blocks=int(params.kernel_static_blocks * 0.1),
                      mem_fraction=0.25)
        yield from console_print(params.console_chars // 2)
        # Login prompt: boot is done.
        yield StoreFlag(BOOT_DONE, 1)
        yield boot_done_marker()
        yield from idle_forever()

    def boot_secondary(ctx):
        yield from gic_cpu_setup(core)
        yield Wfi(RELEASE_FLAG + 8 * core, 1)
        yield from timer_setup(core, timer_hz, params.jiffy_hz)
        yield Compute(params.secondary_init_instructions, key="secondary_init",
                      static_blocks=600, mem_fraction=0.3)
        yield StoreFlag(ONLINE_FLAG + 8 * core, 1)
        yield send_sgi(0x1)
        for step in range(1, params.handshake_rounds + 1):
            yield Wfi(STEP_REQ + 8 * core, step)
            yield Compute(params.handshake_work_instructions, key="cpuhp_step",
                          static_blocks=120)
            yield StoreFlag(STEP_ACK + 8 * core, step)
            yield send_sgi(0x1)
        for generation in range(1, params.global_syncs + 1):
            yield Wfi(SYNC_REQ, generation, ge=True)
            yield Compute(params.sync_work_instructions, key="stopm_follower",
                          static_blocks=80)
            yield AtomicAdd(SYNC_ACK, 1)
            yield send_sgi(0x1)        # kick core 0 out of its spin re-check
        yield from idle_forever()

    return boot_core0 if core == 0 else boot_secondary


def linux_boot_software(num_cores: int, params: LinuxBootParams = None,
                        timer_hz: float = 62_500_000.0) -> GuestSoftware:
    """GuestSoftware descriptor for the synthetic Buildroot boot."""
    params = params or LinuxBootParams()

    def programs(core: int):
        return linux_boot_program(core, num_cores, params, timer_hz)

    def protocols(core: int):
        return default_irq_protocol(
            core,
            handler_instructions=params.handler_instructions,
            device_acks={29: [timer_ack_mmio(core)]},
        )

    return GuestSoftware.from_phase_programs(
        programs,
        name=f"buildroot-linux-{num_cores}c",
        irq_protocols=protocols,
        info={"params": params, "num_cores": num_cores},
    )
