#!/usr/bin/env python3
"""Introspection tooling: non-intrusive tracing and source-level debugging.

The paper's introduction motivates VPs with "deep introspection [and]
insightful tracing facilities".  This demo exercises both on one guest:

1. attach the flight recorder, whose journal is a NISTT-style trace of
   every bus transaction and IRQ line edge,
2. attach the debugger, break at a guest function, inspect registers and
   disassembly, single-step through it,
3. continue to completion and print the transaction trace and statistics;
   this guest takes no interrupts, so the IRQ waveform (VCD) comes from
   the journal of a short 2-core phase-mode Linux boot,
4. force a watchdog "wedge" (the same KVM_RUN kicked twice) and walk the
   post-mortem crash bundle the flight recorder dumps in response; the
   bundle goes to a temporary directory that is removed on exit.

Run:  python examples/trace_and_debug.py
"""

import json
import os
import tempfile

from repro.arch import assemble
from repro.debug import Debugger
from repro.flight import enable_flight
from repro.systemc import SimTime
from repro.vp import GuestSoftware, VpConfig, build_platform
from repro.vp.linux import LinuxBootParams, linux_boot_software

GUEST = """
.equ UART_HI, 0x0904
.equ RTC_HI, 0x0905
.equ SIMCTL_HI, 0x090F

_start:
    movz x0, #12
    bl triple
    movz x9, #0x4000
    str x0, [x9]
    // read the wall clock, then say goodbye
    movz x1, #RTC_HI, lsl #16
    ldrw x2, [x1]
    movz x3, #UART_HI, lsl #16
    movz x4, #0x42              // 'B'
    strb x4, [x3]
    movz x5, #SIMCTL_HI, lsl #16
    str x5, [x5]
    hlt #0

triple:
    add x1, x0, x0
    add x0, x1, x0
    ret
"""


def main():
    with tempfile.TemporaryDirectory(prefix="repro-bundles-") as crash_dir:
        introspect(crash_dir)


def introspect(crash_dir: str):
    image = assemble(GUEST, base_address=0x1000)
    software = GuestSoftware(image=image, mode="interpreter", name="introspect")
    vp = build_platform("aoa", VpConfig(num_cores=1), software)

    flight = enable_flight(vp, crash_dir=crash_dir)
    debugger = Debugger(vp)

    print("== break at triple() ==")
    debugger.add_breakpoint("triple")
    stop = debugger.continue_(SimTime.ms(10))
    print(f"stopped: {stop}")
    print(f"x0 (argument) = {debugger.read_register('x0')}")
    for line in debugger.disassemble("triple", count=3):
        print(line)

    print("\n== single-step through it ==")
    for _ in range(3):
        debugger.step()
        print(f"{debugger.where():<30} x0={debugger.read_register('x0')} "
              f"x1={debugger.read_register('x1')}")

    print("\n== continue to completion ==")
    stop = debugger.continue_(SimTime.ms(50))
    print(f"stopped: {stop}")
    print(f"console: {vp.console_output()!r}")
    result = int.from_bytes(debugger.read_memory(0x4000, 8), "little")
    print(f"guest computed triple(12) = {result}")

    journal = flight.recorder
    print("\n== transaction trace (first 6) ==")
    print(journal.to_text(limit=6))

    print("\n== bus statistics ==")
    print(f"  bus: {journal.statistics()}")

    print(f"\ntotal transactions observed: {len(journal.transports())}")

    print("\n== IRQ waveform (VCD), first 20 ms of a 2-core Linux boot ==")
    boot = build_platform("aoa", VpConfig(num_cores=2),
                          linux_boot_software(2, LinuxBootParams().scaled(0.02)))
    boot_flight = enable_flight(boot, bundles=False)
    boot.run(SimTime.ms(20))
    vcd = boot_flight.recorder.irq_vcd().splitlines()
    print("\n".join(vcd[:32]))
    print(f"... {len(vcd)} lines in all")

    print("\n== force a watchdog fire, inspect the crash bundle ==")
    # Arm the same run id twice with a zero budget: the second delivered
    # kick means SIGUSR1 failed to end KVM_RUN — a wedged core.  The flight
    # recorder reacts by dumping a post-mortem bundle.
    flight.force_watchdog_fire(vp, core=0)
    bundle = flight.bundler.bundles[-1]
    meta = json.load(open(os.path.join(bundle, "meta.json")))
    print(f"bundle reason  : {meta['reason']} ({meta['detail']})")
    print(f"sim time       : {meta['sim_time_ps']} ps")
    core0 = json.load(open(os.path.join(bundle, "cores", "core0.json")))
    print(f"core0 pc       : 0x{core0['registers']['pc']:x}")
    print(f"core0 backtrace: {core0['backtrace']}")
    with open(os.path.join(bundle, "journal.jsonl")) as stream:
        events = [json.loads(line) for line in stream]
    print(f"journal tail   : {len(events)} events; last 3:")
    for event in events[-3:]:
        print(f"  {event}")
    print("disassembly around the PC:")
    with open(os.path.join(bundle, "cores", "core0.disasm.txt")) as stream:
        for line in stream.read().splitlines()[:6]:
            print(f"  {line}")


if __name__ == "__main__":
    main()
