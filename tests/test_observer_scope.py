"""The observer lifecycle shared by telemetry, flight and obs.

No open scope keeps a finished platform reachable, whether the run sealed
it (shutdown) or not (a ``stop_on_boot`` run ends through ``sim.stop()``),
and every scope's outputs stay readable after the platform is gone.
"""

from __future__ import annotations

import contextlib
import gc
import weakref

import pytest

from repro.arch.assembler import assemble
from repro.bench import measure
from repro.bench.measure import make_config
from repro.flight import recording
from repro.obs import observing
from repro.systemc.kernel import Kernel
from repro.systemc.time import SimTime
from repro.telemetry import collecting
from repro.vp import GuestSoftware, VpConfig, build_platform
from repro.vp.linux import LinuxBootParams, linux_boot_software

#: prints "bye" without a newline, requests shutdown, halts
GUEST = """
.equ UART_BASE_HI, 0x0904
.equ SIMCTL_BASE_HI, 0x090F

_start:
    movz x1, #UART_BASE_HI, lsl #16
    adr x2, message
next:
    ldrb x3, [x2]
    cbz x3, done
    strb x3, [x1]
    add x2, x2, #1
    b next
done:
    movz x4, #SIMCTL_BASE_HI, lsl #16
    str x4, [x4]
    hlt #0
message:
    .asciz "bye"
"""

SCOPES = {
    "telemetry": collecting,
    "flight": lambda: recording(bundles=False),
    "obs": observing,
}
CASES = [["telemetry"], ["flight"], ["obs"], ["telemetry", "flight", "obs"]]


def run_to_shutdown() -> weakref.ref:
    software = GuestSoftware(image=assemble(GUEST, base_address=0x1000),
                             mode="interpreter", name="scope-test")
    vp = build_platform("aoa", VpConfig(num_cores=1, quantum=SimTime.us(100)),
                        software)
    vp.run(SimTime.ms(50))
    assert vp.simctl.shutdown_requested
    return weakref.ref(vp)


def run_stop_on_boot(monkeypatch) -> weakref.ref:
    built = []

    def build(*args):
        built.append(build_platform(*args))
        return built[-1]

    monkeypatch.setattr(measure, "build_platform", build)
    software = linux_boot_software(2, LinuxBootParams().scaled(0.01))
    metrics = measure.run_workload("aoa", make_config(2, 1000, parallel=False),
                                   software, stop_on_boot=True)
    assert metrics.boot_seconds is not None
    return weakref.ref(built.pop())


def check_outputs(name: str, scope) -> None:
    if name == "telemetry":
        assert scope.registry.total("kernel.dispatch") > 0
        assert scope.platforms[0].fold.records()
    elif name == "flight":
        assert len(scope.recorder) > 0
    else:
        (summary,) = scope.summaries().values()
        assert summary.instructions > 0 and summary.verify() == []


@pytest.mark.parametrize("names", CASES, ids="+".join)
@pytest.mark.parametrize("stop_on_boot", [False, True],
                         ids=["shutdown", "stop_on_boot"])
def test_no_scope_keeps_a_finished_platform_reachable(names, stop_on_boot,
                                                      monkeypatch):
    with contextlib.ExitStack() as stack:
        scopes = {name: stack.enter_context(SCOPES[name]()) for name in names}
        ref = (run_stop_on_boot(monkeypatch) if stop_on_boot
               else run_to_shutdown())
        Kernel()   # drop the ambient kernel's hold on the last platform
        gc.collect()
        assert ref() is None
        # Only a finished run seals; stop_on_boot ends through sim.stop().
        for scope in scopes.values():
            (entry,) = scope.platforms
            assert entry.sealed != stop_on_boot and entry.vp is None
        for name, scope in scopes.items():
            check_outputs(name, scope)
    if not stop_on_boot and "flight" in scopes:
        # The unfinished console line is journalled at detach, without
        # the platform.
        (line,) = scopes["flight"].recorder.of_kind("console")
        assert dict(line.data)["text"] == "bye"
