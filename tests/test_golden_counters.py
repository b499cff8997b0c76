"""Golden modeled counters of interpreter-mode guests.

Every number the cost models and the ``.rsnap`` TLB section consume comes
from the interpreter's event counters.  These values pin them exactly, so
a change to how the interpreter runs (dispatch, decode caching, RAM
access, address translation) cannot move a modeled result unnoticed.
"""

import pytest

from repro.arch.mmu import PageTableBuilder
from repro.arch.registers import SysReg
from repro.core.kvm_cpu import KvmCpu
from repro.systemc.time import SimTime
from repro.vp import VpConfig, build_platform
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
