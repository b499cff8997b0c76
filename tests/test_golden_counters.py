"""Golden modeled counters of interpreter-mode and phase-mode guests.

Every number the cost models and the ``.rsnap`` TLB section consume comes
from the interpreter's event counters.  These values pin them exactly, so
a change to how the interpreter runs (dispatch, decode caching, RAM
access, address translation) cannot move a modeled result unnoticed.

The phase-mode Linux boots pin the KVM ``simulate`` leg the same way:
exit counts, watchdog kicks, billed host time and the DET001 digest.
"""

import pytest

from repro.analysis.determinism import trace_run
from repro.arch.mmu import PageTableBuilder
from repro.arch.registers import SysReg
from repro.core.kvm_cpu import KvmCpu
from repro.systemc.time import SimTime
from repro.vp import VpConfig, build_platform
from repro.vp.linux import LinuxBootParams, linux_boot_software
from repro.workloads.guest_programs import (
    functional_dhrystone,
    functional_memtest,
    functional_sieve,
)
from tests import test_platform_functional as platform_tests


def core_counters(vp):
    """Per core: (instret, blocks_entered, new_blocks, memory_ops,
    tlb hits, tlb misses, page walks)."""
    counters = []
    for cpu in vp.cpus:
        executor = cpu.vcpu.executor if isinstance(cpu, KvmCpu) else cpu.executor
        counters.append((executor.state.instret, executor.blocks_entered,
                         executor.new_blocks, executor.memory_ops,
                         executor.mmu.tlb.hits, executor.mmu.tlb.misses,
                         executor.mmu.walks))
    return counters


def enable_identity_mmu(vp):
    """Identity-map code, data and peripherals, then turn the MMU on."""
    tables = PageTableBuilder(vp.ram.data, 0x0040_0000)
    tables.identity_map(0x0000_0000, 0x0010_0000)
    tables.identity_map(0x0900_0000, 0x0010_0000)
    state = vp.cpus[0].executor.state
    state.write_sysreg(SysReg.TTBR0_EL1, tables.root)
    state.write_sysreg(SysReg.SCTLR_EL1, 1)


PROGRAMS = {
    "dhrystone": (lambda: functional_dhrystone(100), False,
                  32617, 432222.25, (32617, 10302, 16, 7106, 0, 0, 0)),
    "dhrystone_mmu": (lambda: functional_dhrystone(100), True,
                      32617, 433222.25, (32617, 10302, 16, 7106, 39719, 4, 4)),
    "sieve": (lambda: functional_sieve(500), False,
              16647, 341722.0, (16647, 4910, 13, 2409, 0, 0, 0)),
    "memtest": (lambda: functional_memtest(500), False,
                5013, 156941.25, (5013, 1002, 6, 1002, 0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_avp64_program_counters(name):
    make, mmu, instructions, wall_ns, counters = PROGRAMS[name]
    software, expected = make()
    config = VpConfig(num_cores=1, quantum=SimTime.us(100), parallel=False)
    vp = build_platform("avp64", config, software)
    if mmu:
        enable_identity_mmu(vp)
    vp.run(SimTime.ms(2000))
    assert vp.simctl.shutdown_requested
    assert vp.total_instructions() == instructions
    assert vp.ledger.wall_time_ns() == wall_ns
    assert core_counters(vp) == [counters]


def test_aoa_smp_spin_counters():
    vp = platform_tests.run_guest(platform_tests.TestSmpBringUp.SOURCE, "aoa",
                                  cores=2, quantum_us=10, max_ms=100)
    assert vp.console_output() == "OK"
    assert vp.total_instructions() == 55426
    assert vp.ledger.wall_time_ns() == pytest.approx(77841.7)
    assert core_counters(vp) == [(9626, 4803, 4, 4809, 0, 0, 0),
                                 (45800, 45785, 5, 5, 0, 0, 0)]


#: (cores, parallel, wfi_annotations) -> (per-core counters, watchdog
#: num_scheduled, watchdog num_fired, repr(ledger category totals),
#: repr(ledger wall_time_ns()), DET001 digest).  Per-core counters are
#: (vcpu num_runs, num_mmio_exits, num_wfi_blocks, num_intr_exits,
#: num_debug_exits, kicks delivered, kicks filtered, repeat kicks,
#: num_simulate_calls, num_syncs).
PHASE_BOOTS = {
    (2, False, False): (
        [
            (1143, 1043, 32, 100, 0, 100, 1043, 0, 1143, 100),
            (370, 271, 99, 99, 0, 99, 271, 0, 370, 99),
        ],
        1513, 1513,
        "{'watchdog': 453900.0, 'guest': 70518884.59999998, 'mmio': 5124600.0, 'wfi_blocked': 129263943.0, 'irq': 106800.0}",
        '205639827.60000002',
        '77be9ec3bfc8026b47101673e461766afc6dc7e582623d4f254da84c01ec77ac'),
    (2, False, True): (
        [
            (1143, 1043, 0, 68, 32, 68, 964, 0, 1143, 100),
            (361, 271, 0, 0, 90, 0, 175, 0, 361, 90),
        ],
        1504, 1207,
        "{'watchdog': 451200.0, 'guest': 71043496.60000002, 'mmio': 5124600.0, 'wfi_annotation': 109800.0, 'irq': 106800.0}",
        '76956596.60000007',
        'c27eabf037f0f5496766905bcf5314b64ad0b405a28c94aeaa2790aff43eb38c'),
    (2, True, False): (
        [
            (1143, 1043, 32, 100, 0, 100, 1043, 0, 1143, 100),
            (370, 271, 99, 99, 0, 99, 271, 0, 370, 99),
        ],
        1513, 1513,
        "{'watchdog': 453900.0, 'guest': 70518884.59999998, 'mmio': 13008600.0, 'wfi_blocked': 129263943.0, 'irq': 106800.0}",
        '108190405.80000016',
        '77be9ec3bfc8026b47101673e461766afc6dc7e582623d4f254da84c01ec77ac'),
    (2, True, True): (
        [
            (1143, 1043, 0, 68, 32, 68, 1015, 0, 1143, 100),
            (361, 271, 0, 0, 90, 0, 230, 0, 361, 90),
        ],
        1504, 1313,
        "{'watchdog': 451200.0, 'guest': 71043496.60000002, 'mmio': 13008600.0, 'wfi_annotation': 109800.0, 'irq': 106800.0}",
        '77647331.20000009',
        'c27eabf037f0f5496766905bcf5314b64ad0b405a28c94aeaa2790aff43eb38c'),
    (4, False, False): (
        [
            (1471, 1289, 94, 182, 0, 182, 1289, 0, 1471, 182),
            (452, 271, 181, 181, 0, 181, 271, 0, 452, 181),
            (452, 271, 181, 181, 0, 181, 271, 0, 452, 181),
            (452, 271, 181, 181, 0, 181, 271, 0, 452, 181),
        ],
        2827, 2827,
        "{'watchdog': 848100.0, 'guest': 92132314.1999996, 'mmio': 8197800.0, 'wfi_blocked': 635746551.0, 'irq': 262800.0}",
        '737498665.1999999',
        '6b4559d2e44c234651494593a25477cedf77cc529fd925c867aa623958bea010'),
    (4, False, True): (
        [
            (1471, 1289, 0, 88, 94, 88, 1272, 0, 1471, 182),
            (361, 271, 0, 0, 90, 0, 175, 0, 361, 90),
            (361, 271, 0, 0, 90, 0, 175, 0, 361, 90),
            (361, 271, 0, 0, 90, 0, 175, 0, 361, 90),
        ],
        2554, 1885,
        "{'watchdog': 766200.0, 'guest': 93697550.19999959, 'mmio': 8197800.0, 'wfi_annotation': 327600.0, 'irq': 262800.0}",
        '103406650.2000001',
        'd0a2843c2cb68a3b107ce6ca4bfad9f782b7a8a4d41279e9dfb39087a3da2bbc'),
    (4, True, False): (
        [
            (1471, 1289, 94, 182, 0, 182, 1289, 0, 1471, 182),
            (452, 271, 181, 181, 0, 181, 271, 0, 452, 181),
            (452, 271, 181, 181, 0, 181, 271, 0, 452, 181),
            (452, 271, 181, 181, 0, 181, 271, 0, 452, 181),
        ],
        2827, 2827,
        "{'watchdog': 848100.0, 'guest': 92132314.1999996, 'mmio': 20809800.0, 'wfi_blocked': 635746551.0, 'irq': 262800.0}",
        '194143122.19999972',
        '6b4559d2e44c234651494593a25477cedf77cc529fd925c867aa623958bea010'),
    (4, True, True): (
        [
            (1471, 1289, 0, 88, 94, 88, 1323, 0, 1471, 182),
            (361, 271, 0, 0, 90, 0, 230, 0, 361, 90),
            (361, 271, 0, 0, 90, 0, 230, 0, 361, 90),
            (361, 271, 0, 0, 90, 0, 230, 0, 361, 90),
        ],
        2554, 2101,
        "{'watchdog': 766200.0, 'guest': 93697550.19999959, 'mmio': 20809800.0, 'wfi_annotation': 327600.0, 'irq': 262800.0}",
        '100468153.80000016',
        'd0a2843c2cb68a3b107ce6ca4bfad9f782b7a8a4d41279e9dfb39087a3da2bbc'),
}


def phase_boot_counters(cores, parallel, annotations):
    software = linux_boot_software(cores, LinuxBootParams().scaled(0.02))
    config = VpConfig(num_cores=cores, quantum=SimTime.ms(1), parallel=parallel,
                      wfi_annotations=annotations)
    vp = build_platform("aoa", config, software)
    vp.simctl.on_boot_done = lambda _t: vp.sim.stop()
    trace = trace_run(lambda: vp.run(SimTime.seconds(3000)))
    assert vp.simctl.boot_done_at is not None
    per_core = []
    for cpu in vp.cpus:
        vcpu, guard = cpu.vcpu, cpu.kick_guard
        per_core.append((vcpu.num_runs, vcpu.num_mmio_exits, vcpu.num_wfi_blocks,
                         vcpu.num_intr_exits, vcpu.num_debug_exits,
                         guard.num_kicks_delivered, guard.num_kicks_filtered,
                         guard.num_repeat_kicks, cpu.num_simulate_calls,
                         cpu.num_syncs))
    return (per_core, vp.watchdog.num_scheduled, vp.watchdog.num_fired,
            repr(vp.ledger.category_totals()), repr(vp.ledger.wall_time_ns()),
            trace.digest())


def test_phase_boot_counters():
    for key, expected in PHASE_BOOTS.items():
        assert phase_boot_counters(*key) == expected, key
