"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.arch.assembler import assemble
from repro.arch.registers import CpuState
from repro.iss.executor import GuestMemoryMap
from repro.iss.interpreter import GlobalMonitor, Interpreter
from repro.systemc.kernel import Kernel


@pytest.fixture
def kernel():
    """A fresh simulation kernel, passed by hand to what it simulates."""
    return Kernel()


class GuestHarness:
    """A bare interpreter + RAM, for instruction-level tests."""

    def __init__(self, source: str, ram_size: int = 0x4_0000, base: int = 0,
                 core_id: int = 0, monitor: GlobalMonitor = None):
        self.image = assemble(source, base_address=base)
        self.memory = GuestMemoryMap()
        self.ram = bytearray(ram_size)
        self.memory.add_slot(0, memoryview(self.ram))
        self.image.load_into(self.memory.write)
        self.state = CpuState(core_id)
        self.state.pc = self.image.entry
        self.interp = Interpreter(self.state, self.memory, monitor or GlobalMonitor())

    def run(self, budget: int = 100_000):
        return self.interp.run(budget)

    def reg(self, index: int) -> int:
        return self.state.regs[index]


@pytest.fixture
def guest():
    """Factory fixture: guest(source) -> GuestHarness."""
    return GuestHarness
