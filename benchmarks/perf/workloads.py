"""The five benchmark workloads.

Each workload turns ``--seed`` into its inputs once, in ``__init__``, and
then runs any number of identical *units*.  A unit is the thing a user of
the simulator waits for; its real time is ``wall_s``.  Inside a unit the
workload marks its repeated operation (``op``), its set-up (``setup``), and
the correctness checks whose failures feed ``failed``.

============== ============================================ ======================
workload       unit                                         op
============== ============================================ ======================
fig6_boot      the Fig. 6 sweep: 48 phase-mode Linux boots   one boot
smp_spin       the two-core SGI/WFI bring-up guest           the guest run
guest_mix      Dhrystone, Dhrystone+MMU, sieve, memtest      one guest program
observed_boot  a Fig. 6 slice, bare and then observed        one observed boot
snapshot_fork  warm boot, save/load, fork, 100 resumes       one child restore
============== ============================================ ======================
"""

from __future__ import annotations

import gc
import hashlib
import os
import random
import tempfile

import repro.bench.fig6
import repro.bench.measure
import repro.vp
from repro.arch.assembler import assemble
from repro.arch.mmu import PageTableBuilder
from repro.arch.registers import SysReg
from repro.bench import get_experiment
from repro.bench.measure import make_config
from repro.divergence import WindowLedger
from repro.flight import recording
from repro.obs import observing
from repro.snapshot import Snapshot, TraceRecorder
from repro.systemc.time import SimTime
from repro.telemetry import collecting
from repro.vp import GuestSoftware, VpConfig
from repro.vp.linux import LinuxBootParams, linux_boot_software
from repro.workloads.guest_programs import (
    RESULT_ADDRESS,
    functional_dhrystone,
    functional_memtest,
    functional_sieve,
)

# The two-core bring-up guest of the platform tests, copied here so the
# benchmark does not depend on the test tree.  Core 0 releases core 1 with
# a mailbox flag plus SGI 1 and spins on a load until core 1 reports back;
# core 1 waits in WFI, stores 42, sets its done flag and idles.
SMP_SPIN_SOURCE = """
.equ GICD_BASE_HI, 0x0800
.equ GICC0_BASE_HI, 0x0801
.equ UART_BASE_HI, 0x0904
.equ SIMCTL_BASE_HI, 0x090F
.equ MAILBOX, 0x00200000
_start:
    mrs x0, MPIDR_EL1
    cbnz x0, secondary

primary:
    movz x2, #GICD_BASE_HI, lsl #16
    movz x3, #1
    strw x3, [x2]
    movz x5, #GICC0_BASE_HI, lsl #16
    movz x6, #0xFF
    strw x6, [x5, #4]
    movz x6, #1
    strw x6, [x5]
    movz x7, #0x0020, lsl #16    // MAILBOX
    movz x8, #1
    str x8, [x7]
    movz x9, #0x0002, lsl #16    // target list cpu1
    orr x9, x9, x8               // sgi id 1
    strw x9, [x2, #0xF00]        // GICD_SGIR
wait_core1:
    ldr x10, [x7, #8]            // core1's done flag
    cbz x10, wait_core1
    movz x11, #UART_BASE_HI, lsl #16
    movz x12, #0x4F              // 'O'
    strb x12, [x11]
    movz x13, #0x4B              // 'K'
    strb x13, [x11]
    movz x14, #SIMCTL_BASE_HI, lsl #16
    str x14, [x14]
    hlt #0

secondary:
    movz x5, #GICC0_BASE_HI, lsl #16
    movz x20, #0x1000
    mul x20, x20, x0             // + core * stride
    add x5, x5, x20
    movz x6, #0xFF
    strw x6, [x5, #4]
    movz x6, #1
    strw x6, [x5]
    movz x7, #0x0020, lsl #16
pen:
    ldr x1, [x7]
    cbnz x1, released
    wfi
    b pen
released:
    movz x2, #42
    str x2, [x7, #16]
    movz x3, #1
    str x3, [x7, #8]
idle:
    wfi
    b idle
"""


def _build(kind, config, software):
    """Build through the package attribute, which the probe wraps."""
    return repro.vp.build_platform(kind, config, software)


def ram_sha256(vp) -> str:
    return hashlib.sha256(bytes(vp.ram.data)).hexdigest()


class Workload:
    """One named set of inputs; :meth:`unit` runs it once under a probe."""

    name = ""
    #: whether the inputs (and so the modeled outputs) depend on the seed
    seeded = False
    #: how closely the workload's times follow the host-speed gauge: the
    #: slope of log(time) on log(gauge pass time), fit once on the machine
    #: the README reports; its times are multiplied by
    #: ``host_factor ** sensitivity``
    sensitivity = 1.0

    def __init__(self, seed: int, smoke: bool, workdir: str):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir

    def unit(self, probe) -> None:
        raise NotImplementedError


class Fig6Boot(Workload):
    name = "fig6_boot"
    sensitivity = 0.8

    def unit(self, probe) -> None:
        experiment = get_experiment("fig6")
        original = repro.bench.fig6.run_workload

        def run_workload(*args, **kwargs):
            probe.settle()
            with probe.span("run_workload", op=True):
                return original(*args, **kwargs)

        repro.bench.fig6.run_workload = run_workload
        try:
            with probe.wrapping_build_platform():
                result = experiment.run(scale=0.02 if self.smoke else 1.0)
        finally:
            repro.bench.fig6.run_workload = original
        for check in result.checks:
            probe.check(check["description"], check["passed"])


class SmpSpin(Workload):
    name = "smp_spin"

    def __init__(self, seed: int, smoke: bool, workdir: str):
        super().__init__(seed, smoke, workdir)
        self.image = assemble(SMP_SPIN_SOURCE, base_address=0x1000)
        # A 100 us quantum lets core 0 spin ~1.8M instructions before core 1
        # runs; 10 us keeps the same handshake for the smoke size.
        self.quantum_us = 10 if smoke else 100

    def unit(self, probe) -> None:
        software = GuestSoftware(image=self.image, mode="interpreter", name="smp-spin")
        config = VpConfig(num_cores=2, quantum=SimTime.us(self.quantum_us), parallel=False)
        with probe.wrapping_build_platform():
            with probe.span("guest_run", op=True):
                vp = _build("aoa", config, software)
                vp.run(SimTime.ms(100))
            probe.check("console prints OK", vp.console_output() == "OK")
            probe.check("RAM[0x200010] is 42", vp.ram.data[0x0020_0010] == 42)


class GuestMix(Workload):
    name = "guest_mix"
    seeded = True
    #: program sizes, tuned once so a unit takes 9-11 s on the machine the
    #: README reports
    SIZES = {"dhrystone": 2000, "dhrystone_mmu": 2000, "sieve": 8000, "memtest": 8000}
    #: the seed moves each size by at most this fraction; a wider jitter
    #: would add its own spread to wall_s between seeds
    JITTER = 0.02

    def __init__(self, seed: int, smoke: bool, workdir: str):
        super().__init__(seed, smoke, workdir)
        rng = random.Random(seed)
        makers = {"dhrystone": functional_dhrystone, "dhrystone_mmu": functional_dhrystone,
                  "sieve": functional_sieve, "memtest": functional_memtest}
        self.programs = []
        for name, base in self.SIZES.items():
            base = base // 20 if smoke else base
            size = round(base * (1 + rng.uniform(-self.JITTER, self.JITTER)))
            software, expected = makers[name](size)
            self.programs.append((name, software, expected))
        rng.shuffle(self.programs)

    @staticmethod
    def _enable_mmu(vp) -> None:
        """Identity-map code, data and peripherals, then turn the MMU on."""
        tables = PageTableBuilder(vp.ram.data, 0x0040_0000)
        tables.identity_map(0x0000_0000, 0x0010_0000)
        tables.identity_map(0x0900_0000, 0x0010_0000)
        state = vp.cpus[0].executor.state
        state.write_sysreg(SysReg.TTBR0_EL1, tables.root)
        state.write_sysreg(SysReg.SCTLR_EL1, 1)

    def _run(self, probe, name: str, software, expected: int) -> None:
        config = VpConfig(num_cores=1, quantum=SimTime.us(100), parallel=False)
        probe.settle()
        with probe.span(name, op=True):
            vp = _build("avp64", config, software)
            if name == "dhrystone_mmu":
                self._enable_mmu(vp)
            vp.run(SimTime.ms(2000))
        result = int.from_bytes(vp.ram.data[RESULT_ADDRESS:RESULT_ADDRESS + 8], "little")
        probe.check(f"{name} checksum equals its oracle",
                    vp.simctl.shutdown_requested and result == expected)

    def unit(self, probe) -> None:
        with probe.wrapping_build_platform():
            for name, software, expected in self.programs:
                self._run(probe, name, software, expected)


class ObservedBoot(Workload):
    name = "observed_boot"
    sensitivity = 0.8
    #: the 100 us column of the Fig. 6 sweep at scale 0.1: 16 boots per leg
    QUANTUM_US = 100.0

    def _leg(self, probe, observed: bool) -> list:
        params = LinuxBootParams().scaled(0.02 if self.smoke else 0.1)
        rows = []
        for cores in (1, 2) if self.smoke else (1, 2, 4, 8):
            software = linux_boot_software(cores, params)
            for parallel in (False, True):
                for annotations in (False, True):
                    config = make_config(cores, self.QUANTUM_US, parallel,
                                         wfi_annotations=annotations)
                    probe.settle()
                    with probe.span("boot", op=observed):
                        metrics = repro.bench.measure.run_workload(
                            "aoa", config, software, stop_on_boot=True,
                            max_sim_seconds=3_000.0)
                    rows.append((metrics.instructions, metrics.wall_seconds,
                                 metrics.sim_seconds))
        return rows

    def unit(self, probe) -> None:
        # The same observer scopes `python -m repro.bench` opens for
        # --telemetry-dir, --profile-dir, --ledger-dir (1 ms windows, its
        # default) and --obs-dir.
        with probe.wrapping_build_platform():
            with probe.span("bare_leg") as bare_span:
                bare = self._leg(probe, observed=False)
            with probe.span("observed_leg") as observed_span:
                with collecting() as telemetry, \
                        recording(crash_dir=self.workdir) as flight, \
                        WindowLedger(1_000_000_000, meta={"experiment": self.name}) as ledger, \
                        observing([]) as obs:
                    observed = self._leg(probe, observed=True)
                    obs.finalize()
                    summaries = [summary.to_json() for summary in obs.summaries().values()]
        probe.check("bare and observed legs give identical modeled rows", bare == observed)
        for index, summary in enumerate(summaries):
            probe.check(f"obs summary {index} is consistent", summary.get("consistent"))
        probe.extra["observer_tax"] = observed_span.seconds / bare_span.seconds
        probe.counters["telemetry.series"] += len(telemetry.registry)
        probe.counters["flight.journal_events"] += flight.recorder.num_recorded
        probe.counters["divergence.windows"] += len(ledger.ledger().windows)


class SnapshotFork(Workload):
    name = "snapshot_fork"
    seeded = True
    sensitivity = 0.7

    def __init__(self, seed: int, smoke: bool, workdir: str):
        super().__init__(seed, smoke, workdir)
        self.children = 10 if smoke else 100
        self.boot_ms = 20 if smoke else 200
        # Stratified 1-3 ms resume lengths: the seed picks which child gets
        # which stratum and where in it, so every seed simulates the same
        # total time to within one stratum.
        rng = random.Random(seed)
        strata = list(range(self.children))
        rng.shuffle(strata)
        width_us = 2000 / self.children
        self.resume_us = [1000 + int((stratum + rng.random()) * width_us) for stratum in strata]
        self.software = linux_boot_software(4, LinuxBootParams())
        # The oracle for the first and the last child is a cold run to the
        # same simulated time.  Like the other workloads' oracles it is made
        # once, before any unit is timed, so it adds nothing to wall_s,
        # setup_s or the counters.
        self.cold = {}
        for index in (0, self.children - 1):
            cold = _build("aoa", self._config(), self.software)
            cold.run(SimTime.ms(self.boot_ms) + SimTime.us(self.resume_us[index]))
            self.cold[index] = self._state(cold)

    @staticmethod
    def _config() -> VpConfig:
        return VpConfig(num_cores=4, quantum=SimTime.us(100), parallel=False,
                        wfi_annotations=True)

    @staticmethod
    def _state(vp) -> tuple:
        return (vp.kernel.now.picoseconds, ram_sha256(vp), vp.total_instructions(),
                vp.ledger.wall_time_ns(), vp.console_output())

    def _resume(self, probe, index: int, child, resume_us: int) -> None:
        probe.settle()
        with probe.span("restore", op=True):
            vp = child.restore(self.software)
        probe.adopt(vp, restored=True)
        with probe.span("resume"):
            vp.run(SimTime.us(resume_us))
        if index in self.cold:
            probe.check(f"child {index} matches a cold run", self._state(vp) == self.cold[index])

    def unit(self, probe) -> None:
        with probe.wrapping_build_platform():
            vp = _build("aoa", self._config(), self.software)
            with probe.span("warm_boot", setup=True), TraceRecorder() as recorder:
                vp.run(SimTime.ms(self.boot_ms))
            with probe.span("capture", setup=True) as capture:
                snapshot = Snapshot.capture(vp, trace=recorder.entries)
            with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
                path = os.path.join(tmp, "warm.rsnap")
                with probe.span("save", setup=True) as save:
                    size = snapshot.save(path)
                with probe.span("load", setup=True) as load:
                    snapshot = Snapshot.load(path)
            with probe.span("fork") as fork:
                children = snapshot.fork(self.children)
            # Free the warm platform, then keep the forked children, which
            # live through the loop, out of every later settle().
            del vp
            probe.settle()
            gc.freeze()
            for index, (child, resume_us) in enumerate(zip(children, self.resume_us)):
                self._resume(probe, index, child, resume_us)
        probe.counters["snapshot.trace_entries"] += len(recorder.entries)
        probe.extra.update({
            "snapshot.rsnap_kb": size / 1024,
            "snapshot.capture_s": capture.seconds,
            "snapshot.save_s": save.seconds,
            "snapshot.load_s": load.seconds,
            "snapshot.fork_s": fork.seconds,
        })


WORKLOADS = {cls.name: cls for cls in (Fig6Boot, SmpSpin, GuestMix, ObservedBoot, SnapshotFork)}
