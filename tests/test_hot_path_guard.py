"""Guard on the kernel hot path: simulated time stays an ``int`` of ps.

Inside a run, ``SimTime`` objects are only built at the API edge (the
sync wait a processor yields, payload delays, ``kernel.now`` reads), not
once per kernel operation.  Counting constructions per ``simulate`` call
catches a change that lets value objects back onto the hot path.
"""

from __future__ import annotations

import pytest

from repro.systemc.time import SimTime
from repro.vp.config import VpConfig
from repro.vp.linux import LinuxBootParams, linux_boot_software
from repro.vp.platform import build_platform

#: SimTime constructions allowed per simulate() call inside vp.run
MAX_PER_SIMULATE = 2


def simtime_per_simulate(monkeypatch, num_cores: int, parallel: bool) -> float:
    software = linux_boot_software(num_cores, LinuxBootParams().scaled(0.02))
    config = VpConfig(num_cores=num_cores, parallel=parallel)
    vp = build_platform("aoa", config, software)
    duration = SimTime.ms(20)
    constructed = 0
    original = SimTime.__init__

    def counting_init(self, picoseconds: int = 0):
        nonlocal constructed
        constructed += 1
        original(self, picoseconds)

    monkeypatch.setattr(SimTime, "__init__", counting_init)
    vp.run(duration)
    monkeypatch.setattr(SimTime, "__init__", original)
    calls = sum(cpu.num_simulate_calls for cpu in vp.cpus)
    assert calls > 100, "the boot should make many simulate() calls"
    return constructed / calls


@pytest.mark.parametrize("num_cores, parallel", [(2, False), (4, True)])
def test_simtime_constructions_per_simulate_call(monkeypatch, num_cores, parallel):
    per_call = simtime_per_simulate(monkeypatch, num_cores, parallel)
    assert per_call <= MAX_PER_SIMULATE, (
        f"{per_call:.2f} SimTime objects built per simulate() call "
        f"({num_cores} cores, parallel={parallel}); keep kernel time in int ps")
