#!/usr/bin/env python3
"""RISC-V-on-RISC-V simulation — the paper's §VI future work, working.

Everything above the execution backend is ISA-agnostic: the simulated KVM,
the software watchdog with kick-id filtering, the quantum loop, the TLM
bus and peripherals.  This demo swaps the guest architecture to RV64IM
(real encodings, machine mode) and runs it through the *same*
:class:`KvmCpu` model the ARM guests use — including an MMIO-driven UART
and the in-kernel WFI path.

Run:  python examples/riscv_on_riscv.py
"""

from repro.arch.riscv import Rv64Builder, Rv64Interpreter, Rv64State
from repro.core.kvm_cpu import KvmCpu
from repro.core.watchdog import Watchdog
from repro.host.accounting import HostLedger
from repro.host.machine import apple_m2_pro
from repro.kvm.api import Kvm
from repro.models.uart import Pl011Uart
from repro.systemc.clock import Clock
from repro.systemc.kernel import Kernel
from repro.systemc.time import SimTime
from repro.tlm.quantum import GlobalQuantum
from repro.vcml.memory import Memory
from repro.vcml.router import Router

UART_BASE = 0x1000_0000
RAM_SIZE = 0x10000


def build_guest() -> bytes:
    """An RV64 guest: compute 10!, print a banner, halt."""
    rv = Rv64Builder(base=0)
    # factorial(10) in x5
    rv.li(5, 1)
    rv.li(6, 10)
    rv.label("loop")
    rv.mul(5, 5, 6)
    rv.addi(6, 6, -1)
    rv.bne(6, 0, "loop")
    # store the result for the host to inspect
    rv.li(7, 0x4000)
    rv.sd(5, 7, 0)
    # print "RV64!\n" through the PL011 (one MMIO exit per character)
    rv.lui(10, UART_BASE >> 12)
    for char in b"RV64!\n":
        rv.li(11, char)
        rv.sb(11, 10, 0)
    rv.halt()
    return rv.build()


def main():
    kernel = Kernel()
    bus = Router("bus", parent=kernel)
    ram = Memory("ram", RAM_SIZE, parent=kernel)
    uart = Pl011Uart("uart", parent=kernel)
    bus.map(0, RAM_SIZE - 1, ram.in_socket, name="ram")
    bus.map(UART_BASE, UART_BASE + 0xFFF, uart.in_socket, name="uart")

    # Simulated KVM with the guest RAM mapped as a user memory slot.
    kvm = Kvm()
    vm = kvm.create_vm()
    vm.set_user_memory_region(0, 0, memoryview(ram.data))
    vm.memory.write(0, build_guest())

    # The RISC-V execution backend behind the unchanged ARM-era CPU model.
    state = Rv64State(hart_id=0)
    executor = Rv64Interpreter(state, vm.memory)
    vcpu = vm.create_vcpu(0, executor)

    quantum = GlobalQuantum(SimTime.us(100))
    cpu = KvmCpu("hart0", quantum, vcpu, Watchdog(), parent=kernel)
    cpu.bind_clock(Clock("clk", 1e9, kernel))
    cpu.data_socket.bind(bus.in_socket)
    cpu.host_ledger = HostLedger(quantum.quantum, False, apple_m2_pro(), 1)
    cpu.halt_callback = lambda _cpu: kernel.stop()
    cpu.start_of_simulation()

    kernel.run(SimTime.ms(10))

    factorial = int.from_bytes(ram.data[0x4000:0x4008], "little")
    print(f"console output : {uart.tx_text()!r}")
    print(f"guest computed : 10! = {factorial}")
    print(f"instructions   : {vcpu.total_instructions}")
    print(f"MMIO exits     : {cpu.num_mmio}")
    print(f"modeled wall   : {cpu.host_ledger.wall_time_ns() / 1e3:.1f} us")
    print()
    print("Same KvmCpu, same watchdog, same KVM model — different guest ISA.")
    assert factorial == 3628800


if __name__ == "__main__":
    main()
